"""The forward tree of output prefixes, walked on integers in bounded batches.

Every exact enumeration of the package walks this one tree: the word laws
of ``entropy``, the tail-set measure of ``lochs`` and the cylinder table of
the stream kernel in ``encoder``.  A node is the set of inputs that emit one
bit prefix along one gain path; its state is an increasing affine function
of the input, so each threshold comparison splits it at one rational point.
The walk goes depth first over batches of nodes held as integer arrays, so
one level of a batch costs a few array operations per gain branch and the
live nodes stay bounded by depth, branching and batch size.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from .errors import ResourceBudgetError
from .numerics import ONE

_BATCH = 1 << 10  # nodes per batch of the prefix-tree walk


def prefix_leaves(choices, u_seq, end=ONE, node_budget: Optional[int] = None):
    """The forward tree of output prefixes over the inputs in [0, end).

    ``choices[j]`` lists the (gain, integer weight) branches of step j and
    ``u_seq[j]`` is its threshold.  Returns (unit, batches).  Each attained
    word of length m = len(u_seq) and gain path has one leaf (word, lo, hi,
    weight, E): the inputs in [lo/unit, hi/unit) emit ``word`` on a path
    whose branch weights multiply to ``weight``, with state (P*x - E)/Q for
    P/Q the path's gain product.  ``batches`` yields the leaves as arrays of
    those five rows, one column per leaf.  Past ``node_budget`` nodes it
    raises ResourceBudgetError.  All integers: with u_j = r_j/s (s takes in
    end's denominator) and L_j the lcm of step j's gain numerators, unit =
    s L_1...L_m and a node carries E, Q and N = L_1...L_m / P.  Branch p/q
    emits 1 from split = (r Q' + s p E) N' on, with Q' = Q q and N' = N/p;
    E' is p E below the split, p E + Q' above.

    The walk is depth first over batches of nodes: a batch steps one level
    by a few array operations per branch, and its children are cut into
    batches of at most _BATCH, so about 2 m * branches * _BATCH nodes are
    live at most.  The columns are int64 when unit * (max u + end) and the
    heaviest path weight are below 2**63, else Python ints.  A node has
    inputs, so E/P <= lo/unit < end, and Q' < P' <= L_1...L_m: split, each
    term of it and E' stay below unit * (max u + end).  A gain in (1, 2) has
    a numerator of at least 3, so words, below 2**m, stay below unit.
    """
    s = math.lcm(end.denominator, *(u.denominator for u in u_seq))
    steps = [(u.numerator * (s // u.denominator),
              [(g.numerator, g.denominator, w) for g, w in options])
             for options, u in zip(choices, u_seq)]
    top = math.prod(math.lcm(*(g.numerator for g, _ in options)) for options in choices)
    unit, m = s * top, len(steps)
    span = end.numerator * (unit // end.denominator)
    heaviest = math.prod(max(w for *_, w in branches) for _, branches in steps)
    wide = max(max((r for r, _ in steps), default=0) * top + span, heaviest) >> 63
    limit = sys.maxsize if node_budget is None else node_budget

    def batches():
        visited = 0
        # rows word, lo, hi, weight, E, Q, N; one column per node
        stack = [(0, np.array([0, 0, span, 1, 0, 1, top], object if wide else np.int64)[:, None])]
        while stack:
            depth, block = stack.pop()
            visited += block.shape[1]
            if visited > limit:
                raise ResourceBudgetError(f"prefix-tree walk passed {node_budget} nodes; "
                                          "shrink the depth")
            if depth == m:
                yield block[:5]
                continue
            word, lo, hi, weight, E, Q, N = block
            r, branches = steps[depth]
            word = word << 1
            kids = []
            for p, q, w in branches:
                Q1, N1, pE, w = Q * q, N // p, p * E, weight * w
                # the split, clipped to [lo, hi]: a child is kept when its lo < hi
                cut = np.minimum(np.maximum((r * Q1 + s * pE) * N1, lo), hi)
                kid = np.array((word, word | 1, lo, cut, cut, hi, w, w, pE, pE + Q1, Q1, Q1, N1,
                                N1)).reshape(7, -1)
                kids.append(kid[:, kid[1] < kid[2]])
            kids = np.concatenate(kids, axis=1)
            stack += ((depth + 1, kids[:, i:i + _BATCH]) for i in range(0, kids.shape[1], _BATCH))

    return unit, batches()
