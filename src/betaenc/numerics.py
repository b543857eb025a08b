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


def _times(a: tuple, b: tuple) -> tuple:
    """(m, e) with m * 2**e >= a[0] * 2**a[1] * b[0] * 2**b[1], m rounded up to 64 bits."""
    m, e = a[0] * b[0], a[1] + b[1]
    drop = m.bit_length() - 64
    return (-(-m >> drop), e + drop) if drop > 0 else (m, e)


def _upper(x: Fraction) -> tuple:
    """A short (m, e) with m * 2**e >= x > 0."""
    scale = 64 + x.denominator.bit_length()
    return _times((-((-x.numerator << scale) // x.denominator), -scale), (1, 0))


def _rounded_squares(beta: Fraction):
    """Short (m, e) with m * 2**e >= beta**(2**i), for i = 0, 1, 2, ...

    Each square is rounded up to 64 bits, so the i-th bound exceeds
    beta**(2**i) by a factor of at most about 1 + 4 * 2**i / 2**64.
    """
    square = _upper(beta)
    while True:
        yield square
        square = _times(square, square)


def least_power_at_least(
    beta: Fraction,
    exponent2: Union[Fraction, int],
    *,
    coefficient: Fraction = ONE,
    strict: bool = False,
) -> int:
    """Least k >= 0 with coefficient * beta**k >= 2**exponent2 (or > if strict).

    This is the exact evaluation of ceilings like ``ceil(s * log2/log(beta))``
    without touching floating point.  Upward-rounded 64-bit bounds on
    beta**(2**i) are squared until one carries the coefficient past the
    target; k is then lifted from the top level down, taking a step of 2**i
    only while the bound on coefficient * beta**(k + 2**i) misses the target.
    So every k up to the lifted one misses.  The bounds exceed beta**k by
    a factor of at most about 1 + 4k/2**64, so exact ``cmp_pow2`` steps
    from the lifted k + 1 prove the answer in one or two tests unless
    beta - 1 is below about 4k/2**64.  Answers above K = 2**20 are
    refused; when the lifting reaches K no exact power is formed.
    """
    beta = as_fraction(beta)
    coefficient = as_fraction(coefficient)
    exponent2 = as_fraction(exponent2)
    if beta <= ONE or coefficient <= ZERO:
        raise DomainError("need beta > 1 and a positive coefficient")

    def meets(value: Fraction) -> bool:
        c = cmp_pow2(value, exponent2)
        return c > 0 or (c == 0 and not strict)

    def misses(bound: tuple) -> bool:
        m, e = bound
        top = e + m.bit_length()  # 2**(top - 1) <= m * 2**e < 2**top
        if top <= exponent2:
            return True
        if top - 1 > exponent2:
            return False
        return not meets(Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e))

    if meets(coefficient):
        return 0
    limit = _POWER_SEARCH_LIMIT
    lifted, k, squares = _upper(coefficient), 0, []
    for square in _rounded_squares(beta):
        squares.append(square)
        if 1 << len(squares) > limit or not misses(_times(lifted, square)):
            break
    for i in reversed(range(len(squares))):
        step = _times(lifted, squares[i])
        if misses(step):
            lifted, k = step, k + (1 << i)
    # every k' <= k misses even by an upper bound, so exact tests start at k + 1
    while k < limit:
        k += 1
        if meets(coefficient * beta**k):
            return k
    raise DomainError("power search ran away; check arguments")


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
