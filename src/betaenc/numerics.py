"""Exact rational arithmetic, dyadic cells, and expansion cylinders.

Every theorem-grade quantity in this package is a ``fractions.Fraction``.
Floating point appears only in the explicitly approximate encoder mode and
in statistical summaries.  This module owns the interval geometry and the
exact power comparisons that the verification harnesses lean on.

Conventions, fixed once here and used everywhere:

* Dyadic cells of order m are half-open ``[k/2^m, (k+1)/2^m)`` except the
  last cell, which closes at 1 so the cells cover [0, 1] exactly.
* "Interval I sits inside cell D" means ``D.lo <= I.lo`` and ``I.hi < D.hi``,
  with ``I.hi <= 1`` accepted for the last cell.  ``cell_of`` is the one
  implementation of this rule, on integer numerators and denominators: the
  streaming converter, the cost scan and the exact tail measure all ask it
  (the scan's per-bit test is an inline copy).
* Expansion cylinders are the closed intervals
  ``[sum b_i beta^-i, sum b_i beta^-i + beta^-k/(beta-1)]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import DomainError

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (decimals rejected: exact inputs only)."""
    if any(c in text for c in ".eE"):
        raise DomainError(f"{text!r}: write rationals as p/q; decimals are rejected here")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("bool is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    # floats are refused on purpose: they would silently launder precision
    raise DomainError(f"not an exact rational: {value!r}")


def check_beta(beta: Fraction) -> Fraction:
    beta = as_fraction(beta)
    if not (ONE < beta < TWO):
        raise DomainError(f"amplification must lie strictly in (1, 2), got {beta}")
    return beta


def check_positive_int(value, name: str, error: type) -> int:
    """``value`` if it is an int of at least 1; a bool is refused like any non-int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return value


def check_nonnegative_int(value, name: str, error: type) -> int:
    """``value`` if it is an int of at least 0; a bool is refused like any non-int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise error(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def check_seed(value, name: str, error: type) -> int:
    """``value`` if it is an int in [0, 2**64): SplitMix64 would wrap any other."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1 << 64:
        raise error(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return value


def check_unit(value, name: str, error: type) -> Fraction:
    """``value`` as a Fraction if it lies in [0, 1], the encoder's input range."""
    value = as_fraction(value)
    if not ZERO <= value <= ONE:
        raise error(f"{name} must lie in [0,1], got {value}")
    return value


def check_thresholds(values, kappa: Fraction, error: type) -> None:
    """Refuse any threshold outside [1, kappa], kappa = 1/(beta_max - 1)."""
    for u in values:
        if not ONE <= u <= kappa:
            raise error(f"threshold {u} outside [1, {kappa}]")


def check_orders(values, name: str, error: type) -> tuple:
    """``values`` as a tuple if they are ints >= 1 in strictly increasing order."""
    orders = tuple(values)
    if not orders or any(isinstance(m, bool) or not isinstance(m, int) or m < 1
                         for m in orders):
        raise error(f"{name} must be positive integers")
    if any(lo >= hi for lo, hi in zip(orders, orders[1:])):
        raise error(f"{name} must be strictly increasing")
    return orders


def state_bound(beta_max: Fraction) -> Fraction:
    """Upper bound 1/(beta_max - 1) on every encoder state."""
    beta_max = as_fraction(beta_max)
    if beta_max <= ONE:
        raise DomainError("state bound needs beta > 1")
    return 1 / (beta_max - ONE)


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            object.__setattr__(self, "lo", as_fraction(self.lo))
            object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


def cell_of(lo_n: int, lo_d: int, hi_n: int, hi_d: int, m: int) -> Optional[int]:
    """Index of the order-m dyadic cell that holds [lo_n/lo_d, hi_n/hi_d], or None.

    Positive denominators and 0 <= lo <= hi.  A lower end at or past 1 is
    clamped to the last cell, whose test hi <= 1 then fails unless lo == hi == 1.
    """
    last = (1 << m) - 1
    a = (lo_n << m) // lo_d
    if a >= last:  # the closed last cell: hi <= 1
        return last if hi_n <= hi_d else None
    return a if (hi_n << m) < (a + 1) * hi_d else None


def cmp_pow2(value: Fraction, exponent: Union[Fraction, int]) -> int:
    """Exact sign of value - 2**exponent for rational value and exponent."""
    value = as_fraction(value)
    if value <= 0:
        return -1
    e = as_fraction(exponent)
    a, b = e.numerator, e.denominator
    powed = value**b
    num, den = powed.numerator, powed.denominator
    if a >= 0:
        lhs, rhs = num, den << a
    else:
        lhs, rhs = num << (-a), den
    return (lhs > rhs) - (lhs < rhs)


_POWER_SEARCH_LIMIT = 1 << 20


def _bit_log2(x: Fraction) -> int:
    """bitlen(p) - bitlen(q) for x = p/q > 0; log2(x) lies strictly within 1 of it."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _power_upper_bound(beta: Fraction, k: int, bits: int = 64) -> tuple:
    """(m, e) with m * 2**e >= beta**k and m short, by square-and-multiply.

    Every product is cut back to ``bits`` significant bits by rounding up,
    so the bound costs k.bit_length() small multiplications and exceeds
    beta**k by a factor of at most about 1 + 4*k / 2**bits.
    """

    def up(m: int, e: int) -> tuple:
        drop = m.bit_length() - bits
        return (-(-m >> drop), e + drop) if drop > 0 else (m, e)

    scale = bits + beta.denominator.bit_length()
    base = up(-((-beta.numerator << scale) // beta.denominator), -scale)
    acc = (1, 0)
    while k:
        if k & 1:
            acc = up(acc[0] * base[0], acc[1] + base[1])
        k >>= 1
        if k:
            base = up(base[0] * base[0], 2 * base[1])
    return acc


def least_power_at_least(
    beta: Fraction,
    exponent2: Union[Fraction, int],
    *,
    coefficient: Fraction = ONE,
    strict: bool = False,
) -> int:
    """Least k >= 0 with coefficient * beta**k >= 2**exponent2 (or > if strict).

    This is the exact evaluation of ceilings like ``ceil(s * log2/log(beta))``
    without touching floating point.  Bit lengths give a first guess; every
    decision after it is an exact ``cmp_pow2`` test: gallop from the guess
    until k is bracketed, then bisect.  Answers above K = 2**20 are refused,
    at once when an upward-rounded bound on beta**K already misses the
    target, so a base near 1 never forms its K-th power exactly.
    """
    beta = as_fraction(beta)
    coefficient = as_fraction(coefficient)
    if beta <= ONE or coefficient <= ZERO:
        raise DomainError("need beta > 1 and a positive coefficient")

    def meets(value: Fraction) -> bool:
        c = cmp_pow2(value, exponent2)
        return c > 0 or (c == 0 and not strict)

    def reaches(k: int) -> bool:
        return meets(coefficient * beta**k)

    if reaches(0):
        return 0
    need = as_fraction(exponent2) - _bit_log2(coefficient)
    # beta**K <= m * 2**e: when even that misses the target, so does every k <= K
    # (a bound more than a bit above the target surely meets it and is not formed)
    m, e = _power_upper_bound(beta, _POWER_SEARCH_LIMIT)
    if e + m.bit_length() < need + 2:
        bound = Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)
        if not meets(coefficient * bound):
            raise DomainError("power search ran away; check arguments")
    # log2 of beta**64 to within 1, so of beta to within 1/64
    scaled_log = _bit_log2(beta**64)
    guess = -(-need * 64 // scaled_log) if scaled_log > 0 and need > 0 else 1
    # gallop from the guess until lo does not reach and hi does, then bisect
    lo, hi = 0, min(guess, _POWER_SEARCH_LIMIT)
    step = 1
    if reaches(hi):
        while hi - step > lo and reaches(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        while True:
            if hi >= _POWER_SEARCH_LIMIT:
                raise DomainError("power search ran away; check arguments")
            lo, hi = hi, min(hi + step, _POWER_SEARCH_LIMIT)
            if reaches(hi):
                break
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


# The two logs below are pure and their Decimals immutable, so reports that
# ask for the same log many times compute it once; typed, so a refused type
# (a float) never gets the entry of the rational it equals.
@lru_cache(maxsize=256, typed=True)
def log2_decimal(value: Fraction) -> Decimal:
    """log2 of a positive rational, correct to ~50 significant digits."""
    value = as_fraction(value)
    if value <= 0:
        raise DomainError("log of a nonpositive value")
    with localcontext() as ctx:
        ctx.prec = 60
        num = Decimal(value.numerator).ln()
        den = Decimal(value.denominator).ln()
        return (num - den) / Decimal(2).ln()


@lru_cache(maxsize=64, typed=True)
def log_ratio_decimal(beta: Fraction) -> Decimal:
    """log2 / log(beta), the ideal digit-transfer rate, to ~50 significant digits."""
    beta = as_fraction(beta)
    if beta <= 1:
        raise DomainError("rate needs beta > 1")
    with localcontext() as ctx:
        ctx.prec = 60
        lnb = Decimal(beta.numerator).ln() - Decimal(beta.denominator).ln()
        return Decimal(2).ln() / lnb


def as_decimal(value: Fraction) -> Decimal:
    """numerator / denominator, divided in the caller's decimal context."""
    return Decimal(value.numerator) / Decimal(value.denominator)


def decimal_str(value: Decimal, places: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = places + 30
        q = Decimal(value).quantize(
            Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN
        )
    return format(q, "f")


def round_to_bits(x: Fraction, bits: int) -> Fraction:
    """Round-to-nearest-even at `bits` significant binary digits.

    The result is exactly the value an ideal binary float with a
    `bits`-bit mantissa (and unbounded exponent) would store.
    """
    if bits < 1:
        raise DomainError("need a positive mantissa width")
    x = as_fraction(x)
    if x == 0:
        return ZERO
    sign = 1 if x > 0 else -1
    n, d = abs(x).numerator, abs(x).denominator
    e = n.bit_length() - d.bit_length()
    # normalize so 2^e <= n/d < 2^(e+1)
    if e >= 0:
        if n < (d << e):
            e -= 1
    else:
        if (n << (-e)) < d:
            e -= 1
    shift = bits - 1 - e
    if shift >= 0:
        num, den = n << shift, d
    else:
        num, den = n, d << (-shift)
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    if shift >= 0:
        out = Fraction(q, 1 << shift)
    else:
        out = Fraction(q << (-shift))
    return sign * out
