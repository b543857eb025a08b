"""Amplify-and-quantize bit generator with drifting gain and threshold.

One step takes the state x to beta*x - b where the bit b is 1 exactly when
beta*x >= u (a tie quantizes to 1).  The gain beta stays in (1,2) and the
threshold u may move anywhere in [1, 1/(beta_max-1)] from step to step;
under those constraints the state never leaves [0, 1/(beta_max-1)], so the
loop runs forever without saturating.  Gains and thresholds are described
by small process objects of three shapes - one value, a listed sequence,
uniform dyadic draws - each in a gain role and a threshold role; random
ones draw through the named PRNG, which keeps every run replayable from a
seed.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, ResourceBudgetError
from .numerics import (
    ONE,
    ZERO,
    as_fraction,
    check_beta,
    check_nonnegative_int,
    check_positive_int,
    check_thresholds,
    check_unit,
    cmp_pow2,
    format_rational,
    least_power_at_least,
    round_to_bits,
    state_bound,
)
from .prng import PRNG_ID, SplitMix64


# ---------------------------------------------------------------------------
# processes: three shapes (one value, a listed sequence, uniform dyadic
# draws), each taken in a gain role and in a threshold role


class _GainRole:
    """Gains lie strictly in (1, 2); a bad gain is a DomainError."""

    _key, _label = "beta", "gain"
    _check = staticmethod(check_beta)

    @property
    def beta_range(self) -> tuple:
        return self._range()


class _ThresholdRole:
    """Thresholds start at 1; their upper limit depends on the gain."""

    _key, _label = "u", "threshold"

    @staticmethod
    def _check(u) -> Fraction:
        u = as_fraction(u)
        if u < 1:
            raise ConfigurationError(f"thresholds start at 1, got {u}")
        return u

    @property
    def threshold_range(self) -> tuple:
        return self._range()


def check_role(process, role: str):
    """``process`` if it takes the ``role`` ("gain" or "threshold"), else a one-line refusal."""
    if not isinstance(process, {"gain": _GainRole, "threshold": _ThresholdRole}[role]):
        raise ConfigurationError(f"expected a {role} process, got {type(process).__name__}")
    return process


@dataclass(frozen=True)
class _One:
    """The same value at every step."""

    value: Fraction

    is_random = False

    def __post_init__(self):
        object.__setattr__(self, "value", self._check(self.value))

    def _range(self) -> tuple:
        return (self.value, self.value)

    def realize(self, n_steps: int, rng: Optional[SplitMix64] = None) -> tuple:
        return (self.value,) * n_steps

    def to_json(self) -> dict:
        return {"kind": self._kind, self._key: format_rational(self.value)}


@dataclass(frozen=True)
class _Listed:
    """Explicit per-step values, consumed from the start."""

    values: tuple

    is_random = False

    def __post_init__(self):
        values = tuple(map(self._check, self.values))
        if not values:
            raise ConfigurationError("explicit sequences must be non-empty")
        object.__setattr__(self, "values", values)

    def _range(self) -> tuple:
        return (min(self.values), max(self.values))

    def realize(self, n_steps: int, rng: Optional[SplitMix64] = None) -> tuple:
        if n_steps > len(self.values):
            raise ConfigurationError(
                f"need {n_steps} {self._label} values, sequence has {len(self.values)}"
            )
        return self.values[:n_steps]

    def scaled(self, n_steps: int, rng: Optional[SplitMix64] = None) -> list:
        return [(v.numerator, v.denominator) for v in self.realize(n_steps, rng)]

    def to_json(self) -> dict:
        return {"kind": "explicit", self._key + "s": [format_rational(v) for v in self.values]}


@dataclass(frozen=True)
class _Uniform:
    """Fresh dyadic draw from [lo, hi] at every step, kept rational.

    Each draw is lo + span*odd/2**64 with odd the numerator of
    rng.odd_dyadic(64), which takes one stream word.
    """

    lo: Fraction
    hi: Fraction

    is_random = True

    def __post_init__(self):
        lo, hi = self._check(self.lo), self._check(self.hi)
        if lo > hi:
            raise ConfigurationError(f"need lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def _range(self) -> tuple:
        return (self.lo, self.hi)

    def realize(self, n_steps: int, rng: Optional[SplitMix64] = None) -> tuple:
        return tuple(Fraction(r, d) for r, d in self.scaled(n_steps, rng))

    def scaled(self, n_steps: int, rng: Optional[SplitMix64] = None) -> list:
        """The next n_steps draws of rng as unreduced integer pairs (num, den).

        Every pair shares the denominator lo_d*span_d*2**64.
        """
        if rng is None:
            raise ConfigurationError(f"{self._label} process draws random values; pass rng=")
        return self.pairs(rng.odd_numerators(64, n_steps))

    def pairs(self, odds) -> list:
        """``scaled``'s pairs for given odd numerators."""
        base, step, den = self._scale
        return [(base + step * odd, den) for odd in odds]

    @cached_property
    def _scale(self) -> tuple:
        """(lo_n*span_d*2**64, span_n*lo_d, lo_d*span_d*2**64), fixed per process."""
        lo = self.lo
        span = self.hi - lo
        return (lo.numerator * span.denominator << 64, span.numerator * lo.denominator,
                lo.denominator * span.denominator << 64)

    def to_json(self) -> dict:
        return {
            "kind": "uniform",
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "seed": None,  # draws use the caller's rng; kept so recorded JSON stays byte-identical
            "precision_bits": 64,  # one word per draw; kept so recorded JSON stays byte-identical
        }


class FixedBeta(_GainRole, _One):
    _kind = "fixed"


class ExplicitBetas(_GainRole, _Listed):
    pass


class UniformBetas(_GainRole, _Uniform):
    """Monte-Carlo gain model."""


class ConstantThreshold(_ThresholdRole, _One):
    _kind = "constant"


class ExplicitThresholds(_ThresholdRole, _Listed):
    pass


class UniformThresholds(_ThresholdRole, _Uniform):
    """Fresh threshold draw at every step."""


@dataclass(frozen=True)
class IidSupportBetas(_GainRole, _Listed):
    """I.i.d. gains on a finite support; the exact-enumeration model."""

    probs: Optional[tuple] = None

    is_random = True

    def __post_init__(self):
        super().__post_init__()
        n = len(self.values)
        probs = (Fraction(1, n),) * n if self.probs is None else tuple(map(as_fraction, self.probs))
        if len(probs) != n:
            raise ConfigurationError("one probability per support value")
        if any(p < 0 for p in probs) or sum(probs) != 1:
            raise ConfigurationError("probabilities must be >= 0 and sum to 1")
        object.__setattr__(self, "probs", probs)

    def realize(self, n_steps: int, rng: Optional[SplitMix64] = None) -> tuple:
        if rng is None:
            raise ConfigurationError(f"{self._label} process draws random values; pass rng=")
        return tuple(self.values[rng.choose_weighted(self.probs)] for _ in range(n_steps))

    def to_json(self) -> dict:
        return {
            "kind": "iid-support",
            "values": [format_rational(v) for v in self.values],
            "probs": [format_rational(p) for p in self.probs],
            "seed": None,  # draws use the caller's rng; kept so recorded JSON stays byte-identical
        }


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class EncoderTrace:
    """Full record of one run: inputs, realized sequences, bits, states.

    ``float_bits`` is None in exact mode: states are the true rationals and
    the telescoping identity x0 = sum_i b_i / (beta_1...beta_i) +
    x_n / (beta_1...beta_n) holds with equality.  In float emulation mode
    states carry rounding error and ``near_ties`` marks steps whose
    comparator margin fell below 2**(-float_bits/2), where the emulated bit
    can disagree with the exact one.
    """

    x0: Fraction
    bits: tuple
    states: tuple
    betas: tuple
    thresholds: tuple
    float_bits: Optional[int] = None
    near_ties: Optional[tuple] = None
    rng_info: Optional[dict] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def flagged(self) -> bool:
        return bool(self.near_ties) and any(self.near_ties)

    def to_json(self) -> dict:
        doc = {
            "prng": PRNG_ID,
            "x0": format_rational(self.x0),
            "bits": "".join(str(b) for b in self.bits),
            "states": [format_rational(x) for x in self.states],
            "betas": [format_rational(b) for b in self.betas],
            "thresholds": [format_rational(u) for u in self.thresholds],
            "mode": "exact" if self.float_bits is None else "float-fast",
        }
        if self.float_bits is not None:
            doc["float_bits"] = self.float_bits
            doc["near_ties"] = list(map(int, self.near_ties or ()))
        if self.rng_info is not None:
            doc["rng"] = self.rng_info
        return doc


def apply_Tu(y: Fraction, beta: Fraction, u: Fraction):
    """One quantize-and-update step; returns (bit, next state)."""
    beta = check_beta(beta)
    y, u = as_fraction(y), as_fraction(u)
    bound = state_bound(beta)
    if not (ZERO <= y <= bound):
        raise DomainError(f"state {y} outside [0, {bound}]")
    check_thresholds((u,), bound, DomainError)
    if y < u / beta:
        return 0, beta * y
    return 1, beta * y - 1


def encode(
    x0,
    betas,
    thresholds,
    n_steps: int,
    float_bits: Optional[int] = None,
    rng: Optional[SplitMix64] = None,
) -> EncoderTrace:
    """Run the loop for n_steps from x0 in [0,1] and record everything.

    ``float_bits=None`` runs the loop exactly; an int of at least 4 emulates
    binary floats with that many mantissa bits, rounded to nearest even.
    Random processes draw from ``rng``, split per role.  The trace is a
    pure function of x0 and the realized sequences.
    """
    x0 = check_unit(x0, "x0", DomainError)
    check_positive_int(n_steps, "n_steps", DomainError)
    if float_bits is not None and (isinstance(float_bits, bool)
                                   or not isinstance(float_bits, int) or float_bits < 4):
        raise DomainError(f"float mode needs at least 4 mantissa bits, got {float_bits!r}")

    beta_seq = check_role(betas, "gain").realize(n_steps, rng.derive("betas") if rng else None)
    u_seq = check_role(thresholds, "threshold").realize(
        n_steps, rng.derive("thresholds") if rng else None)
    check_thresholds(u_seq, state_bound(betas.beta_range[1]), ConfigurationError)

    rng_info = None
    if betas.is_random or thresholds.is_random:
        rng_info = {
            "prng": PRNG_ID,
            "ambient": rng.describe(),
            # processes have no seed; kept so that recorded traces stay byte-identical
            "beta_seed": None,
            "threshold_seed": None,
        }

    # float mode rounds every arithmetic result, never a comparison
    exact = float_bits is None
    rnd = (lambda v: v) if exact else partial(round_to_bits, bits=float_bits)
    bits, states, near = [], [], []
    x = rnd(x0)
    for beta, u in zip(beta_seq, u_seq):
        u = rnd(u)
        y = rnd(rnd(beta) * x)
        if not exact:
            near.append(cmp_pow2(abs(y - u), Fraction(-float_bits, 2)) < 0)
        b = 1 if y >= u else 0
        x = rnd(y - b) if b else y
        bits.append(b)
        states.append(x)
    return EncoderTrace(
        x0=x0,
        bits=tuple(bits),
        states=tuple(states),
        betas=beta_seq,
        thresholds=u_seq,
        float_bits=float_bits,
        near_ties=None if exact else tuple(near),
        rng_info=rng_info,
    )


def encode_bits(x0, beta, u, n_bits: int) -> np.ndarray:
    """Fast exact bit stream for fixed gain and constant threshold.

    The state is kept exactly as A/D with integers, but bits are decided on
    two integer windows of it, each an interval that contains the scaled
    state and is rounded outward after every step, so every decided bit is
    the bit of every point of the interval, the true state included.

    * The inner window [lo, hi] holds X = 2**W * x (W = 256).  A cylinder
      table splits the state range [0, kappa) into the cylinders of the
      next K bits (beta**K <= 2**8, K <= 16); when lo and hi fall in one
      cylinder, one bisection decides all K bits and the cylinder's affine
      map x -> beta**K * x - S / q**K steps the window.  A block stops when
      the window straddles two cylinders or after a fixed number of steps
      that keeps it far narrower than 2**W.  Fewer than K last bits are
      the first bits of their cylinder's word.
    * The mid window holds 2**(16 W) * x.  Each block steps it by the
      block's k bits at once (x -> beta**k * x - S / q**k), and the next
      block's inner window is read off its top bits.
    * The exact state takes the composed steps, A <- p**k A - D S and
      D <- q**k D, only once beta**k passes 2**(8 W), and then the mid
      window is read afresh from it.  When the inner window straddles two
      cylinders at the start of a block, the exact state is brought up to
      date and read afresh; if it still straddles, one exact step on A and
      D decides the bit, so exact ties (beta*x == u) still quantize to 1.

    Intended for the long streams the statistical tests and the extraction
    pipeline consume.
    """
    x0, beta, u = check_unit(x0, "x0", DomainError), check_beta(beta), as_fraction(u)
    check_thresholds((u,), state_bound(beta), DomainError)
    check_nonnegative_int(n_bits, "n_bits", DomainError)
    return _stream_kernel(x0, beta, u, n_bits)[0]


_WINDOW_BITS = 256
_MID_FACTOR = 16  # the mid window has _MID_FACTOR * W bits
_TABLE_DEPTH_CAP = 16  # near beta = 1 the walk's node count grows as K**2


class StreamCounts(NamedTuple):
    """What one ``_stream_kernel`` run did besides its table lookups.

    ``fallbacks`` bits took one exact step on A/D, and ``commits`` times
    the composed steps of the mid window went into A/D.  Every other bit
    came from a cylinder lookup.
    """

    fallbacks: int
    commits: int


def _window(A: int, D: int, W: int) -> tuple:
    """(lo, w) with 2**W * A/D in [lo, lo + w], read off the top W bits of D."""
    shift = D.bit_length() - W
    if shift > 0:
        a, d = A >> shift, D >> shift
        lo = (a << W) // (d + 1)
        return lo, -((-(a + 1) << W) // d) - lo
    lo, rem = divmod(A << W, D)
    return lo, int(rem > 0)


def _map_window(lo: int, w: int, P: int, Q: int, off: int) -> tuple:
    """(lo', w') with (P*X - off)/Q in [lo', lo' + w'] for every X in [lo, lo + w].

    Only lo is divided exactly; the width is carried as an upper bound,
    ceil(P*w/Q) + 1, which spares the second long division a hi end costs.
    """
    return (P * lo - off) // Q, -(-P * w // Q) + 1


def _steps_above(beta: Fraction, e: int, cap: int) -> int:
    """Least k >= 1 with beta**k > 2**e, or cap + 1 when beta**cap is not past it.

    The cap keeps the exact search far below its refusal limit, whatever
    the gain's distance from 1.
    """
    p, q = beta.numerator, beta.denominator
    if p**cap <= q**cap << e:
        return cap + 1
    return max(1, least_power_at_least(beta, e, strict=True))


def prefix_leaves(choices, u_seq, end=ONE, node_budget: Optional[int] = None):
    """The forward tree of output prefixes over the inputs in [0, end).

    ``choices[j]`` lists the (gain, integer weight) branches of step j and
    ``u_seq[j]`` is its threshold.  Returns (unit, leaves): per attained word
    of length m = len(u_seq) and gain path, ``leaves`` yields (word, lo, hi,
    weight, E); the inputs in [lo/unit, hi/unit) emit ``word`` on a path whose
    branch weights multiply to ``weight``, with state (P*x - E)/Q for P/Q the
    path's gain product.  Past ``node_budget`` visited nodes it raises
    ResourceBudgetError.  All integers: with u_j = r_j/s (s takes in end's
    denominator) and L_j the lcm of step j's gain numerators, unit =
    s L_1...L_m and a node carries E, Q and N = L_1...L_m / P.  Branch p/q
    emits 1 from split = (r Q' + s p E) N' on, with Q' = Q q and N' = N/p;
    E' is p E below the split, p E + Q' above.
    """
    s = math.lcm(end.denominator, *(u.denominator for u in u_seq))
    steps = [(u.numerator * (s // u.denominator),
              [(g.numerator, g.denominator, w) for g, w in options])
             for options, u in zip(choices, u_seq)]
    top = math.prod(math.lcm(*(g.numerator for g, _ in options)) for options in choices)
    unit, m = s * top, len(steps)
    limit = sys.maxsize if node_budget is None else node_budget

    def leaves():
        visited = 0
        stack = [(0, 0, 0, end.numerator * (unit // end.denominator), 1, 0, 1, top)]
        pop, push = stack.pop, stack.append
        while stack:
            visited += 1
            if visited > limit:
                raise ResourceBudgetError(f"prefix-tree walk passed {node_budget} nodes; "
                                          "shrink the depth")
            depth, word, lo, hi, weight, E, Q, N = pop()
            if depth == m:
                yield word, lo, hi, weight, E
                continue
            r, branches = steps[depth]
            word <<= 1
            depth += 1
            for p, q, w in branches:
                Q1, N1, pE, w = Q * q, N // p, p * E, weight * w
                split = (r * Q1 + s * pE) * N1
                if split > lo:
                    push((depth, word, lo, split if split < hi else hi, w, pE, Q1, N1))
                if hi > split:
                    push((depth, word | 1, split if split > lo else lo, hi, w, pE + Q1, Q1, N1))

    return unit, leaves()


class _Plan(NamedTuple):
    """Spans, cylinder table and one cylinder's step of the stream kernel for one (beta, u, W)."""

    K: int  # table depth
    k_blk: int  # steps per inner block, a multiple of K
    k_mid: int  # steps of the mid window between commits
    PK: int  # p**K and q**K: a cylinder steps x to (PK * x - offset) / QK
    QK: int
    bounds: tuple  # the cylinder table, see _kernel_plan
    words: tuple
    offsets: tuple
    scaled: tuple
    u: Fraction  # the constant threshold
    W: int  # the bounds and scaled offsets are in units of 2**-W


@lru_cache(maxsize=64)
def _kernel_plan(beta: Fraction, u: Fraction, W: int = _WINDOW_BITS) -> _Plan:
    """The stream kernel's constants for one (beta, u, W), W = 256 by default.

    The table lists the depth-K cylinders of the state range [0, kappa),
    one entry per cylinder, lowest first.  Cylinder i holds the states x
    with c_i <= x < c_(i+1); bounds[i - 1] is ceil(2**W * c_i) (the first
    cylinder is open below), and the last entry, far above 2**W * kappa,
    stands in for the open upper end of the last cylinder.  For integers
    lo <= hi, lo >= ceil(2**W c) iff lo >= 2**W c and hi < ceil(2**W c') iff
    hi < 2**W c', so a window [lo, hi] with bounds[i - 1] <= lo and hi <
    bounds[i] lies in cylinder i exactly.  Its states then emit the K bytes
    words[i] and move to (PK * x - offsets[i]) / QK with PK = p**K and QK =
    q**K; scaled[i] is offsets[i] * 2**W.  Both table kernels walk it
    through ``_cylinders``, on windows of 2**W * state at the plan's own W.
    """
    p, q = beta.numerator, beta.denominator
    # an inner block widens the window by about beta per step: stop while
    # it is below 2**(W/2), i.e. beta**k <= 2**(W/2), and at most W steps
    k_max = min(W, _steps_above(beta, W // 2, W) - 1) or 1
    # table depth: beta**K <= 2**8, at most one block; blocks are whole tables
    K = max(1, min(k_max, _steps_above(beta, 8, _TABLE_DEPTH_CAP) - 1))
    k_blk = K * (k_max // K)
    # the mid window commits once beta**k passes 2**(W2/2), or after W2 steps
    W2 = _MID_FACTOR * W
    k_mid = min(W2, _steps_above(beta, W2 // 2, W2))

    # the depth-K cylinders of [0, kappa); the walk yields the highest first.
    # The lowest is open below, and the last bound is far above
    # 2**W * kappa = 2**W * q / (p - q).  Tuples: the cache hands the same
    # plan to every caller.
    unit, leaves = prefix_leaves([[(beta, 1)]] * K, (u,) * K, state_bound(beta))
    words, lows, _, _, offsets = zip(*reversed(list(leaves)))
    # one byte per bit: the low K (<= _TABLE_DEPTH_CAP = 16) bits of each word
    digits = np.unpackbits(np.array(words, ">u2").view(np.uint8)).reshape(-1, 16)
    digits = digits[:, 16 - K:].tobytes()
    return _Plan(K, k_blk, k_mid, p**K, q**K,
                 tuple(-((-lo << W) // unit) for lo in lows[1:])
                 + ((q // (p - q) + 2) << (W + 4),),
                 tuple(digits[i:i + K] for i in range(0, len(digits), K)), offsets,
                 tuple(o << W for o in offsets), u, W)


def _cylinders(plan: _Plan, lo: int, hi: int):
    """The one walk of a window [lo, hi] of 2**W * x through the cylinder table.

    Yields the index of the cylinder that holds the window, K bits per index,
    and stops at the first straddle.  The window takes the cylinder's step,
    rounded outward, only when the caller asks for the next index.
    """
    bounds, scaled, PK, QK = plan.bounds, plan.scaled, plan.PK, plan.QK
    while True:
        # lo <= 2**W * kappa < bounds[-1]: c indexes a cylinder
        c = bisect_right(bounds, lo)
        if hi >= bounds[c]:
            return
        yield c
        off = scaled[c]
        lo = (PK * lo - off) // QK
        hi = -((off - PK * hi) // QK)


def _stream_kernel(x0: Fraction, beta: Fraction, u: Fraction, n_bits: int,
                   W: int = _WINDOW_BITS):
    """Three-level exact stream; returns (bits, StreamCounts).

    Exact for every inner window width W >= 1; W only sets how many bits
    the windows decide before a wider level must be read.  A block's
    cylinders compose by the Horner update S <- PK * S + Qk * offsets[c],
    with Qk the running product of QK, into its step x -> (p**k * x - S) / Qk;
    blocks compose into S_tot by the same rule.
    """
    p, q = beta.numerator, beta.denominator
    r, s = u.numerator, u.denominator
    K, k_blk, k_mid, PK, QK, _, words, offsets, _, _, _ = plan = _kernel_plan(beta, u, W)
    W2 = _MID_FACTOR * W
    drop = W2 - W

    A, D = x0.numerator, x0.denominator
    # the mid window is [L2, L2 + w2]
    L2, w2 = _window(A, D, W2)
    # steps taken by the mid window since A/D was last brought up to date:
    # A/D must still take A <- p**k_tot A - D S_tot, D <- q_tot D
    S_tot, q_tot, k_tot = 0, 1, 0
    out = bytearray(n_bits + K)  # whole words: the last may run past n_bits
    fallbacks = commits = 0
    i = 0
    while i < n_bits:
        end = min(i + k_blk, n_bits)
        S, Qk = 0, 1
        j = i
        for c in _cylinders(plan, L2 >> drop, -(-(L2 + w2) >> drop)):
            out[j:j + K] = words[c]
            S = PK * S + Qk * offsets[c]
            Qk *= QK
            j += K
            if j >= end:
                break
        k = j - i
        if k:
            Pk = p**k
            L2, w2 = _map_window(L2, w2, Pk, Qk, S << W2)
            S_tot = Pk * S_tot + q_tot * S
            q_tot *= Qk
            k_tot += k
            i = j
            if k_tot < k_mid:
                continue
        elif not k_tot:
            # a window read fresh from A/D misses the table: one exact step decides
            fallbacks += 1
            A *= p
            D *= q
            if A * s >= r * D:
                out[i] = 1
                A -= D
            i += 1
            L2, w2 = _window(A, D, W2)
            continue
        # the mid span is used up, or a block missed the table at its start
        # on a stale mid window: bring A/D up to date and read afresh
        commits += 1
        A = p**k_tot * A - D * S_tot
        D *= q_tot
        S_tot, q_tot, k_tot = 0, 1, 0
        L2, w2 = _window(A, D, W2)
    return np.frombuffer(out, dtype=np.uint8)[:n_bits], StreamCounts(fallbacks, commits)
