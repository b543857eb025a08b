"""Turning expansion bits into ordinary binary digits of the input.

After k bits the input is pinned down to a closed interval of length
beta**(-k) / (beta - 1) (the cylinder).  A binary digit of order j is
certain as soon as the cylinder fits inside a single dyadic cell of order
j, under the half-open cell convention of ``numerics.cell_of``.  This
module streams that refinement (``push_bit``), answers "how many bits buy
m digits" (``k_of_m``), and exhibits why a drifting gain destroys the
conversion (``uncertainty_interval``): with beta known only up to an
interval, any word containing a 1 leaves a residual uncertainty that never
shrinks, no matter how many bits are spent.

``push_bit`` and the cost scan walk the same integer cylinder, so neither
touches a Fraction per bit; the scan is also the Monte-Carlo kernel.
Under a constant threshold it pulls K bits per cylinder from the stream
kernel's walker (``encoder._cylinders``) and takes one exact step where
the walk stops; other thresholds take one exact step per bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .encoder import ConstantThreshold, _cylinders, _kernel_plan, _Plan, _window, check_role
from .errors import ConfigurationError, DomainError
from .numerics import (
    ONE,
    ZERO,
    Interval,
    as_fraction,
    cell_of,
    check_beta,
    check_orders,
    check_positive_int,
    check_thresholds,
    check_unit,
    decimal_context,
    decimal_str,
    format_rational,
    least_power_at_least,
    log_ratio_decimal,
    state_bound,
)
from .prng import SplitMix64


@dataclass(frozen=True)
class ConversionState:
    """Everything the streaming converter knows after k bits at gain beta = p/q.

    The cylinder is [L/P, (L*(p-q) + Q*q) / (P*(p-q))] with P = p**k and
    Q = q**k, as in ``_scan``, and its first ``m_confirmed`` digits are
    certain.  Cylinders are nested, so those digits are the order-j cell
    of L/P, j = m_confirmed.
    """

    beta: Fraction
    k: int
    L: int
    P: int
    Q: int
    m_confirmed: int

    @property
    def cylinder(self) -> Interval:
        p, q = self.beta.numerator, self.beta.denominator
        return Interval(Fraction(self.L, self.P),
                        Fraction(self.L * (p - q) + self.Q * q, self.P * (p - q)))

    @property
    def emitted(self) -> tuple:
        j = self.m_confirmed
        cell = (self.L << j) // self.P
        return tuple(cell >> i & 1 for i in reversed(range(j)))


def fresh_state(beta) -> ConversionState:
    return ConversionState(check_beta(beta), 0, 0, 1, 1, 0)


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
    P, Q = state.P * p, state.Q * q
    L = state.L * p + (Q if bit else 0)
    hi_n, hi_d = L * (p - q) + Q * q, P * (p - q)
    j = state.m_confirmed
    fresh = []
    while (cell := cell_of(L, P, hi_n, hi_d, j + 1)) is not None:
        j += 1
        fresh.append(cell & 1)
    return ConversionState(beta, state.k + 1, L, P, Q, j), tuple(fresh)


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
    After k bits the cylinder is [L/P, (L*(p-q) + Q*q) / (P*(p-q))] with
    P = p**k and Q = q**k, and the state is A/D = (P*x - L)/Q.

    ``thresholds`` is the caller's ``_kernel_plan(beta, u)`` for a
    constant u, or an iterable of one (numerator, denominator) pair per
    bit, covering the largest cap, which takes one exact step on A/D per
    bit.  With a plan, each exact step starts an ``encoder._cylinders``
    walk of the outward-rounded window of 2**W * state, W the plan's own
    window width; each cylinder it yields decides K bits, and the pending
    target is tested at block ends only.  A block whose end settles it is
    stepped again through its word for the least k (a later target its end
    misses resumes the walk there).  A straddle, or a block that would
    pass the cap, takes one exact step on A/D rebuilt from L, P and Q and
    starts a new walk; a window widens by about beta per step, so it
    straddles in the end.
    """
    p, q = beta.numerator, beta.denominator
    pmq = p - q
    xn, xd = x.numerator, x.denominator

    plan = thresholds if isinstance(thresholds, _Plan) else None
    if plan:
        K, PK, QK, words, offsets, u = plan.K, plan.PK, plan.QK, plan.words, plan.offsets, plan.u
        r, s = u.numerator, u.denominator
    else:
        thresholds = iter(thresholds)
    results = []
    L, P, Q, k = 0, 1, 1, 0
    A, D = xn, xd
    walk = None  # the cylinder walk of the window of 2**W * state after k bits
    rest = None  # the bits of a block whose end settles the pending target
    for m, cap, k_min in targets:
        a = cell_of(xn, xd, xn, xd, m)  # x's own cell: a point always has one
        hi_cell, last_cell = (a + 1) * pmq, int(a == (1 << m) - 1)
        if rest is not None and (k1 < k_min or
                                 cell_of(L1, P1, L1 * pmq + Q1 * q, P1 * pmq, m) != a):
            # the settling block's end does not settle this target: skip there
            L, P, Q, k, rest = L1, P1, Q1, k1, None
        # cell_of(L, P, L * pmq + Q * q, P * pmq, m) == a written out: the
        # per-step path tests it every bit (~21k tests per 1000 samples at
        # beta = 3/2, u = 1; ~118k under u ~ U[1, 2]), and a call there took
        # the six lochs configurations of the benchmark from a median 0.53 s
        # to 0.57 s (16 interleaved pairs, 2-CPU Xeon, noisy)
        while not (k >= k_min and (L << m) >= a * P
                   and ((L * pmq + Q * q) << m) < hi_cell * P + last_cell):
            if k >= cap:  # containment at k == cap still counts
                results.append(KResult(cap, True))
                break
            if rest is not None:
                # the block's end settles this target: step its word bit by
                # bit, straight up to k_min, below which nothing settles
                for b in rest:
                    k += 1
                    P *= p
                    Q *= q
                    L = L * p + Q * b
                    if k >= k_min:
                        break
                continue
            if walk is not None and k + K <= cap:
                # whole blocks while the window lies in one cylinder; the
                # target is tested at each block end only
                for c in walk:
                    L1, P1, Q1, k1 = L * PK + Q * offsets[c], P * PK, Q * QK, k + K
                    if k1 >= k_min and cell_of(L1, P1, L1 * pmq + Q1 * q, P1 * pmq, m) == a:
                        rest = iter(words[c])
                        break
                    L, P, Q, k = L1, P1, Q1, k1
                    if k + K > cap:
                        break
                else:
                    walk = None  # the window straddles two cylinders
                continue
            if plan:
                A, D = P * xn - L * xd, Q * xd
            else:
                try:
                    r, s = next(thresholds)
                except StopIteration:
                    raise ConfigurationError(
                        f"threshold sequence exhausted after {k} values"
                    ) from None
            k += 1
            A *= p
            D *= q
            P *= p
            Q *= q
            if A * s >= r * D:
                A -= D
                L = L * p + Q
            else:
                L = L * p
            if plan:
                lo, w = _window(A, D, plan.W)
                walk = _cylinders(plan, lo, lo + w)
        else:
            results.append(KResult(k, False))
    return results


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
    if isinstance(thresholds, ConstantThreshold):
        return _scan(x, targets, beta, _kernel_plan(beta, thresholds.value))
    seq = thresholds.scaled(targets[-1][1], rng.derive("thresholds") if rng else None)
    return _scan(x, targets, beta, seq)


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
    ratio = log_ratio_decimal(beta)
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
