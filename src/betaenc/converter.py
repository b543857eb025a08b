"""Turning expansion bits into ordinary binary digits of the input.

After k bits the input is pinned down to a closed interval of length
beta**(-k) / (beta - 1) (the cylinder).  A binary digit of order j is
certain as soon as the cylinder fits inside a single dyadic cell of order
j, under the half-open cell convention of ``numerics.in_cell``.  This
module streams that refinement (``push_bit``), answers "how many bits buy
m digits" (``k_of_m``), and exhibits why a drifting gain destroys the
conversion (``uncertainty_interval``): with beta known only up to an
interval, any word containing a 1 leaves a residual uncertainty that never
shrinks, no matter how many bits are spent.

``push_bit`` and the cost scan (``_scan``) carry the same integer
cylinder in the coordinates of its cell and ask ``in_cell``, so neither
divides or touches a Fraction per bit; the scan takes one exact step per
bit, reading every threshold process as the integer pairs of ``scaled``.

``_lockstep`` is the Monte-Carlo kernel: it gives the scan's results for a
block of inputs, stepping all of them together.  Each lane holds
outward-rounded int64 windows, at F fraction bits, of its state and of two
distances d and e of its cylinder from its pending target's cell edges;
the state window decides the bit against the threshold's window, and the
bounds on d and e prove containment or rule it out.  What they leave open
takes the exact cell test on the lane's L, P and Q, and a bit they cannot
decide sends the lane to ``_scan`` from scratch.  Every J steps the lanes'
int64 offsets fold into L and every window is rebuilt exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .encoder import ConstantThreshold, check_role
from .errors import ConfigurationError, DomainError
from .numerics import (
    ONE,
    ZERO,
    Interval,
    as_fraction,
    check_beta,
    check_orders,
    check_positive_int,
    check_thresholds,
    check_unit,
    decimal_context,
    decimal_str,
    format_rational,
    in_cell,
    least_power_at_least,
    log2_decimal,
    state_bound,
)
from .prng import SplitMix64, _counter_words


@dataclass(frozen=True)
class ConversionState:
    """Everything the streaming converter knows after k bits at gain beta = p/q.

    Its first j = ``m_confirmed`` digits are certain: they are the bits of
    ``cell``, the order-j cell that holds the cylinder.  In that cell's own
    coordinates, as ``_scan`` carries it, the cylinder is
    [R/P, (R*(p-q) + T*q) / (P*(p-q))] with P = p**k, T = q**k << j and
    R = (L << j) - cell*P for its lower end L/P.
    """

    beta: Fraction
    k: int
    R: int
    P: int
    T: int
    cell: int
    m_confirmed: int

    @property
    def cylinder(self) -> Interval:
        lo = Fraction(self.R + self.cell * self.P, self.P << self.m_confirmed)
        return Interval(lo, lo + Fraction(self.T, self.P << self.m_confirmed) / (self.beta - 1))

    @property
    def emitted(self) -> tuple:
        return tuple(self.cell >> i & 1 for i in reversed(range(self.m_confirmed)))


def fresh_state(beta) -> ConversionState:
    return ConversionState(check_beta(beta), 0, 0, 1, 1, 0, 0)


def push_bit(state: ConversionState, bit: int, beta):
    """Refine by one bit; returns (new state, tuple of newly certain digits).

    Digits are emitted in order and never retracted.  A cylinder whose
    lower end has left [0,1] (possible only for bit streams no actual
    input produces) can never fit a cell again, so nothing is emitted.
    """
    # fresh_state range-checked the state's own gain: an equal one needs only
    # the conversion, which still refuses floats and bools
    if beta is not state.beta and as_fraction(beta) != state.beta:
        raise DomainError(f"state was made for gain {state.beta}, got {beta}")
    if bit not in (0, 1):
        raise DomainError(f"bits must be 0 or 1, got {bit!r}")
    beta = state.beta
    p, q = beta.numerator, beta.denominator
    P, T = state.P * p, state.T * q
    R = state.R * p + (T if bit else 0)
    cell, j = state.cell, state.m_confirmed
    last = int(cell + 1 == 1 << j)  # 1 in the closed last cell, whose half d = 1 is one too
    fresh = []
    while True:
        d = int(R << 1 >= P)  # the half of the cell that holds the lower end
        if not in_cell(R2 := (R << 1) - d * P, T << 1, P, p - q, q, last & d):
            break
        R, T, cell, j, last = R2, T << 1, cell << 1 | d, j + 1, last & d
        fresh.append(d)
    return ConversionState(beta, state.k + 1, R, P, T, cell, j), tuple(fresh)


class KResult(NamedTuple):
    """Bit cost of one digit target; ``exceeded`` marks a cap hit."""

    k: int
    exceeded: bool


def default_k_cap(m: int, beta) -> int:
    """Cap ceil(4*m*log2/log(beta)) + 64: far past the almost-sure cost."""
    return least_power_at_least(beta, 4 * m) + 64


def scan_targets(m_values, beta, k_cap: Optional[int] = None) -> list:
    """Input-independent scan metadata: (m, cap, k_min) per target.

    Below k_min the cylinder is still longer than an order-m cell, so no
    containment test is worth running.  Precompute once when scanning many
    inputs against the same targets.
    """
    beta = check_beta(beta)
    if k_cap is not None:
        check_positive_int(k_cap, "k_cap", ConfigurationError)
    pmq = beta.numerator - beta.denominator
    inv_kappa = Fraction(pmq, beta.denominator)
    out = []
    for m in m_values:
        cap = k_cap if k_cap is not None else default_k_cap(m, beta)
        out.append((m, cap, least_power_at_least(beta, m, coefficient=inv_kappa)))
    return out


def _scan(x: Fraction, targets, beta: Fraction, thresholds) -> list:
    """Integer kernel: least k whose cylinder sits in x's order-m cell.

    Targets ascending in m and in cap, as ``scan_targets`` makes them;
    returns one KResult per target.  Containment is monotone in k for
    fixed m (cylinders are nested) and the per-m answers are
    nondecreasing, so a single left-to-right scan settles every target.
    After k bits the state is A/D = (P*x - L)/Q with P = p**k, Q = q**k and
    L/P the cylinder's lower end, which is carried in x's order-m cell a for
    ``in_cell``: R = (L << m) - a*P and T = Q << m, re-anchored per target.

    ``thresholds`` yields one (numerator, denominator) pair per bit,
    covering the largest cap, as a process's ``scaled`` does; each bit
    takes one exact step on A/D.
    """
    p, q = beta.numerator, beta.denominator
    pmq = p - q
    xn, xd = x.numerator, x.denominator
    thresholds = iter(thresholds)
    results = []
    R, P, T, k = 0, 1, 1, 0
    A, D = xn, xd
    m0 = a0 = 0  # R and T are in the coordinates of the order-m0 cell a0
    for m, cap, k_min in targets:
        top = (1 << m) - 1
        a = min((xn << m) // xd, top)  # x's own cell, the last one closed
        R, T = (R << m - m0) - (a - (a0 << m - m0)) * P, T << m - m0
        m0, a0, last = m, a, int(a == top)
        while not (k >= k_min and in_cell(R, T, P, pmq, q, last)):
            if k >= cap:  # containment at k == cap still counts
                results.append(KResult(cap, True))
                break
            try:
                r, s = next(thresholds)
            except StopIteration:
                raise ConfigurationError(f"threshold sequence exhausted after {k} values") from None
            k += 1
            A *= p
            D *= q
            P *= p
            T *= q
            if A * s >= r * D:
                A -= D
                R = R * p + T
            else:
                R *= p
        else:
            results.append(KResult(k, False))
    return results


# a uniform process's threshold words are drawn for this many steps at a time:
# at 1024 lanes, 32 steps held the lochs benchmark's peak RSS 0.5 MiB higher
_WORD_BLOCK = 16
# a uniform draw enters its threshold window through its numerator's top bits
_DRAW_BITS = 32
_NEVER = 1 << 62  # the k_min of a lane that has no target left


def _fraction_bits(beta: Fraction) -> int:
    """F: the kernel holds 2**F * value in int64, with p * (kappa + 2) * 2**F < 2**62."""
    return 62 - (-(-beta.numerator * (state_bound(beta) + 2) // 1)).bit_length()


def _draw_bounds(process, keys, start: int, q: int, F: int) -> tuple:
    """Bounds (lo, hi) on 2**F * q * u for the uniform draws u numbered start..start+_WORD_BLOCK-1.

    Row i of each (_WORD_BLOCK, len(keys)) array belongs to draw start + i
    of every key's stream.  The draw is u = lo + span * odd / 2**64 (see
    ``encoder._Uniform``), and with h the top G = _DRAW_BITS bits of odd,
    2**F * q * u lies in [A_lo + c_lo * h, A_hi + c_hi * (h + 1)], where
    A = 2**F * q * lo and C = 2**(F-G) * q * span are rounded down and up.
    """
    G = _DRAW_BITS
    A = q * process.lo * (1 << F)
    C = q * (process.hi - process.lo) * Fraction(2) ** (F - G)
    h = _counter_words(keys, start, _WORD_BLOCK).T
    h >>= np.uint64(63 - G)
    h = h.astype(np.int64, order="C")
    h &= (1 << G) - 1  # odd = 2 * word + 1 mod 2**64: its top G bits are word bits 63-G..62
    hi = h + 1
    hi *= -(-C.numerator // C.denominator)
    hi += -(-A.numerator // A.denominator)
    h *= C.numerator // C.denominator
    h += A.numerator // A.denominator
    return h, hi


def _lockstep(xns, precision: int, targets, beta: Fraction, process, keys=None) -> tuple:
    """``_scan``'s results for every x = xns[i] / 2**precision, one step for all lanes at once.

    Returns (ks, exceeded, proved, exact): ks and exceeded have one row per
    lane and one column per target; proved counts the targets the int64
    bounds settled and exact the lane tests the exact path took outside
    refreshes.  A random threshold ``process`` draws lane i's thresholds
    from the stream whose key is keys[i], as ``process.scaled`` would.

    After k bits, let y be a lane's state, l its cylinder's lower end and a
    the cell of order m of its pending target; d = beta**k (l - a/2**m)
    and e = beta**k ((a+1)/2**m - l) - kappa.  The cylinder sits in the
    cell exactly when d >= 0 and e > 0 (e >= 0 in the closed last cell),
    and a step takes y to beta*y - b, d to beta*d + b and e to
    beta*e + 1 - b, as (beta - 1) * kappa = 1.  A lane holds six int64
    bounds in units of 2**-F, rounded outward at each step: y's window
    [zlo, zhi] and two-sided bounds on d and on -e, cut at 2**F (a d or e
    past it stays positive).  Its bit is 1 when p * zlo reaches the upper
    end of the window of q * 2**F * u and 0 when p * zhi is below its lower
    end; a uniform u enters through the top _DRAW_BITS bits of its
    numerator, drawn for _WORD_BLOCK steps at a time.
    A lane whose bit is undecided goes to ``_scan`` from scratch.

    From k_min on, a lane whose bounds prove d >= 0 and e > 0 settles its
    target at k on them.  One whose bounds straddle zero, or that reaches
    its due step, takes the exact cell test on L, P = p**k and Q = q**k,
    which settles or caps its targets as ``_scan`` does and rebuilds the
    bounds of the next one; so does a lane in the closed last cell with
    e = 0.  A lane's due step is its cap, or after a settle on its bounds,
    which keeps the bounds of the target settled, the next target's k_min
    if that comes first: no target settles before its k_min, which every
    lane shares, so the next refresh or one batched exact test there
    rebuilds the bounds in time.  Its bits fold into the int64
    offset S <- p*S + b*q**j, j steps after a refresh, so that
    L = L0 * p**j + Q0 * S.  Every J steps (p**J * kappa < 2**62), and
    once half the lanes are done, a refresh folds S into L (Python ints),
    rebuilds every window exactly and drops the finished lanes.
    """
    p, q = beta.numerator, beta.denominator
    pmq = p - q
    n, nt = len(xns), len(targets)
    cap_max = targets[-1][1]
    ks = np.zeros((n, nt), dtype=np.int64)
    exceeded = np.zeros((n, nt), dtype=bool)
    if not process.is_random:
        us = iter(process.scaled(cap_max))  # one pair per step, the same for every lane
    proved = exact = 0

    def rescan(lanes):
        """``_scan`` each lane from scratch."""
        for o in lanes:
            x = Fraction(xns[o], 1 << precision)
            rng = SplitMix64(0, (), int(keys[o])) if process.is_random else None
            for t, res in enumerate(_scan(x, targets, beta, process.scaled(cap_max, rng))):
                ks[o, t], exceeded[o, t] = res
        return ks, exceeded, proved, exact

    F = _fraction_bits(beta)
    if F < 1:  # a gain this close to 1 leaves int64 no room for a window
        return rescan(range(n))
    one, kappa_F = 1 << F, (q << F) // pmq
    J = 1
    while p ** (J + 1) * q < pmq << 62:
        J += 1
    q_pows = [q**j for j in range(J + 1)]
    due_steps = {cap for _, cap, _ in targets} | {k_min for _, _, k_min in targets}
    # per slot, and for finished (nt) and undecided (nt + 1) lanes
    k_mins = np.array([k_min for _, _, k_min in targets] + [_NEVER] * 2)
    caps = np.array([cap for _, cap, _ in targets] + [-1] * 2)
    # rows: zlo, zhi, the upper and lower bounds on d, the lower and upper
    # bounds on -e.  A step takes them to (p * row + ceil_rows) // q + b * adds:
    # beta*y - b, beta*d + b and beta*(-e) - 1 + b, flooring the lower bounds
    # and ceiling the upper ones
    ceil_rows = np.array([0, q - 1, q - 1, 0, -q * one, q - 1 - q * one])[:, None]
    adds = one * np.array([-1, -1, 1, 1, 1, 1])[:, None]
    retired = np.array([0, 0, -1, -1, -one, -one])  # decides 0, never an event

    xo = np.array(xns, dtype=object)
    fallbacks = []
    lane = np.arange(n)  # the lanes the arrays hold, by position in xns
    slot = np.zeros(n, dtype=np.int64)
    # due: the step at which a lane takes the exact test whatever its bounds say
    k_min, due = k_mins[slot], caps[slot]
    W = np.empty((6, n), dtype=np.int64)
    S = np.zeros(n, dtype=np.int64)
    Ls = np.zeros(n, dtype=object)
    P0 = Q0 = 1  # p**k and q**k at the last refresh
    k = j = 0
    live = n

    def settle(pos, L, P, Q):
        """Exact cell tests at k for the lanes at pos, with exact L; fresh bounds on d and e."""
        for t, (m, cap_t, k_min_t) in enumerate(targets):
            sel = (slot[pos] == t).nonzero()[0]
            if not sel.size:
                continue
            at, o = pos[sel], lane[pos[sel]]
            Qm = Q << m
            cell = (xo[o] >> (precision - m)) + 1  # a + 1
            last = cell >> m  # 1 in the last cell
            N = cell * P - (L[sel] << m)  # d = (P - N)/Qm, e = N/Qm - kappa
            hit = np.zeros(sel.size, dtype=bool)
            if k >= k_min_t:
                hit = in_cell(P - N, Qm, P, pmq, q, last)
                ks[o[hit], t] = k
            if k >= cap_t:
                exceeded[o[~hit], t] = True
                ks[o[~hit], t] = cap_t
                slot[at] = t + 1
                continue
            slot[at[hit]] = t + 1
            rest = ~hit
            # tq is within a unit of 2**F * N/Qm, and the terms of P and kappa
            # are rounded within a unit, so 2**F * d lies in [d_hi - 2, d_hi]
            # and 2**F * -e in [e_lo, e_lo + 3]
            tq = (N[rest] << F) // Qm
            d_hi = np.minimum(-((-P << F) // Qm) - tq, one)
            e_lo = np.maximum(kappa_F - 1 - tq - last[rest], -one)
            W[2:, at[rest]] = d_hi, d_hi - 2, e_lo, e_lo + 3

    while True:
        refresh = not k or j == J or 2 * live < len(lane)
        if refresh:
            pos = (slot < nt).nonzero()[0]
        else:
            events = (W[2] >= 0) & (W[4] < 0) & (k_min <= k)
            if k in due_steps:
                events |= due == k
            pos = events.nonzero()[0]
            if pos.size:
                sure = (W[3, pos] >= 0) & (W[5, pos] < 0) & (due[pos] > k)
                won, pos = pos[sure], pos[~sure]
                if won.size:
                    ks[lane[won], slot[won]] = k
                    slot[won] += 1
                    proved += won.size
                    # the bounds are still those of the target just settled:
                    # the exact test rebuilds them at the next one's k_min or
                    # cap, now if that has come (a finished lane retires then)
                    k_min[won] = k_mins[slot[won]]
                    due[won] = np.minimum(caps[slot[won]], k_min[won])
                    pos = np.concatenate((pos, won[due[won] <= k]))
                exact += int(np.count_nonzero(slot[pos] < nt))
        if pos.size:
            pj = p**j
            P, Q = P0 * pj, Q0 * q_pows[j]
            L = Ls[pos] * pj + Q0 * S[pos].astype(object)
            settle(pos, L, P, Q)
            done = pos[slot[pos] == nt]
            W[:, done] = retired[:, None]
            live -= done.size
            k_min[pos], due[pos] = k_mins[slot[pos]], caps[slot[pos]]
        if refresh:
            keep = slot[pos] < nt
            pos, Ls, P0, Q0, j = pos[keep], L[keep], P, Q, 0
            lane, slot, k_min, due, W = lane[pos], slot[pos], k_min[pos], due[pos], W[:, pos]
            S = np.zeros(pos.size, dtype=np.int64)
            W[0] = ((xo[lane] * P - (Ls << precision)) << F) // (Q << precision)
            W[1] = W[0] + 1
            if process.is_random and k % _WORD_BLOCK:
                block_lo, block_hi = block_lo[:, pos], block_hi[:, pos]
        if not live:
            break
        if not process.is_random:
            r, s = next(us)
            qu_lo, qu_hi = (q * r << F) // s, -((-q * r << F) // s)
        else:
            c = k % _WORD_BLOCK
            if not c:
                block_lo = block_hi = None  # the used block goes before the next is drawn
                block_lo, block_hi = _draw_bounds(process, keys[lane], k, q, F)
            qu_lo, qu_hi = block_lo[c], block_hi[c]
        M = W * p
        bit = M[0] >= qu_hi
        undecided = bit == (M[1] < qu_lo)
        W = (M + ceil_rows) // q + bit * adds
        np.minimum(W[2:4], one, out=W[2:4])
        np.maximum(W[4:], -one, out=W[4:])
        k += 1
        j += 1
        S = S * p + bit * q_pows[j]
        if undecided.any():
            at = undecided.nonzero()[0]
            fallbacks += lane[at].tolist()
            slot[at] = nt + 1
            k_min[at], due[at] = k_mins[-1], caps[-1]
            W[:, at] = retired[:, None]
            live -= at.size
            if not live:
                break
    return rescan(fallbacks)


def k_profile(
    x,
    m_values: Sequence[int],
    beta,
    thresholds=None,
    k_cap: Optional[int] = None,
    rng: Optional[SplitMix64] = None,
) -> list:
    """KResult for each target digit count, in one pass over the bit stream."""
    x = check_unit(x, "x", DomainError)
    beta = check_beta(beta)
    ms = check_orders(m_values, "m_values", DomainError)
    thresholds = check_role(ConstantThreshold(1) if thresholds is None else thresholds, "threshold")
    check_thresholds(thresholds.threshold_range, state_bound(beta), ConfigurationError)
    targets = scan_targets(ms, beta, k_cap)
    return _scan(x, targets, beta, thresholds.scaled(
        targets[-1][1], rng.derive("thresholds") if rng else None))


def k_of_m(
    x,
    m: int,
    beta,
    thresholds=None,
    k_cap: Optional[int] = None,
    rng: Optional[SplitMix64] = None,
) -> KResult:
    """Least number of stream bits that makes m binary digits certain."""
    return k_profile(x, [m], beta, thresholds, k_cap, rng)[0]


def uncertainty_interval(bits: Sequence[int], beta_min, beta_max) -> Interval:
    """All inputs consistent with the word when the gain is only known to a range.

    Closed interval; its length stays bounded away from 0 in m whenever the
    word contains a 1 and the range is non-degenerate, which is exactly the
    obstruction to binary conversion under drifting gain.
    """
    beta_min, beta_max = check_beta(beta_min), check_beta(beta_max)
    if beta_min > beta_max:
        raise DomainError(f"need beta_min <= beta_max, got {beta_min} > {beta_max}")
    if len(bits) < 1:
        raise DomainError("need at least one bit")
    lo = ZERO
    hi = ZERO
    inv_lo, inv_hi = 1 / beta_max, 1 / beta_min
    p_lo, p_hi = ONE, ONE
    for b in bits:
        p_lo *= inv_lo
        p_hi *= inv_hi
        if b not in (0, 1):
            raise DomainError(f"bits must be 0 or 1, got {b!r}")
        if b:
            lo += p_lo
            hi += p_hi
    hi += state_bound(beta_max) * p_hi
    return Interval(lo, hi)


def transfer_rows(
    x,
    m_values: Sequence[int],
    beta,
    thresholds=None,
    k_cap: Optional[int] = None,
    rng: Optional[SplitMix64] = None,
) -> list:
    """CSV-ready records: (x, m, k, k - m*log2/log(beta), exceeded)."""
    beta = check_beta(beta)
    with decimal_context(60):
        ratio = Decimal(1) / log2_decimal(beta)
    rows = []
    for m, res in zip(m_values, k_profile(x, m_values, beta, thresholds, k_cap, rng)):
        with decimal_context(28):
            deviation = Decimal(res.k) - Decimal(m) * ratio
        rows.append(
            {
                "x": format_rational(as_fraction(x)),
                "m": m,
                "k": res.k,
                "deviation": decimal_str(deviation),
                "exceeded": int(res.exceeded),
            }
        )
    return rows
