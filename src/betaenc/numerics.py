"""Exact rational arithmetic, dyadic cells, and expansion cylinders.

Every theorem-grade quantity in this package is a ``fractions.Fraction``.
Floating point appears only in the explicitly approximate encoder mode and
in statistical summaries.  This module owns the interval geometry and the
exact power comparisons that the verification harnesses lean on.

Conventions, fixed once here and used everywhere:

* Dyadic cells of order m are half-open ``[k/2^m, (k+1)/2^m)`` except the
  last cell, which closes at 1 so the cells cover [0, 1] exactly.
* "Interval I sits inside cell D" means ``D.lo <= I.lo`` and ``I.hi < D.hi``,
  with ``I.hi <= 1`` accepted for the last cell.  ``in_cell`` is the one
  implementation of this rule, on a cylinder in the cell's own integer
  coordinates: the streaming converter, the cost scan and the exact tail
  measure all ask it.
* Expansion cylinders are the closed intervals
  ``[sum b_i beta^-i, sum b_i beta^-i + beta^-k/(beta-1)]``.
* ``floor_log2`` is the one floor(log2) of a rational (the extraction
  budget, ``round_to_bits`` and ``cmp_pow2`` ask it), ``_log2_bounds``
  the one integer bracket of a log2 (``cmp_pow2``, ``least_power_at_least``
  and ``floor_log_ratio`` read it), the rate log2/log(beta) is
  ``1 / log2_decimal(beta)``, and report decimals are ``decimal_str``'s,
  half-even at 12 places.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Union

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


def in_cell(R: int, T: int, P: int, pmq: int, q: int, last: int) -> bool:
    """Whether [R/P, (R*pmq + T*q) / (P*pmq)] sits in the cell [0, 1) of its coordinates.

    The order-m cell a maps to [0, 1) by y -> 2**m * y - a; ``last`` is 1
    in the closed last cell, which also takes an upper end at 1, else 0.
    On integer arrays it decides every column at once.
    """
    return (R >= 0) & (R * pmq + T * q < P * pmq + last)


def floor_log2(value: Fraction) -> int:
    """floor(log2(value)) for a positive rational, by bit lengths and one shifted comparison."""
    n, d = value.numerator, value.denominator
    if n <= 0:
        raise DomainError("log of a nonpositive value")
    e = n.bit_length() - d.bit_length()  # 2**(e - 1) < value < 2**(e + 1)
    return e - (n < (d << e) if e >= 0 else (n << -e) < d)


def cmp_pow2(value: Fraction, exponent: Union[Fraction, int]) -> int:
    """Exact sign of value - 2**exponent for rational value and exponent.

    An integer exponent a is decided by ``floor_log2``; when that is a,
    value is 2**a exactly if it is a power of two, so no |a|-bit integer is
    formed.  For an exponent a/b with b > 1, 2**(a/b) is irrational, so
    b * log2(value) is never a, and a 64-bit ``_log2_bounds`` bracket
    decides it unless it is a near-tie; only then is value**b compared
    with 2**a.
    """
    value = as_fraction(value)
    if value <= 0:
        return -1
    e = as_fraction(exponent)
    a, b = e.numerator, e.denominator
    if b == 1:
        n, d = value.numerator, value.denominator
        t = floor_log2(value)
        if t != a:
            return 1 if t > a else -1
        return 0 if n & (n - 1) == 0 == d & (d - 1) else 1
    lo, hi = _log2_bounds(value, 64)
    if b * lo > a << 64:
        return 1
    if b * hi < a << 64:
        return -1
    powed = value**b
    num, den = powed.numerator, powed.denominator
    if a >= 0:
        lhs, rhs = num, den << a
    else:
        lhs, rhs = num << (-a), den
    return (lhs > rhs) - (lhs < rhs)


_POWER_SEARCH_LIMIT = 1 << 20


def least_power_at_least(
    beta: Fraction,
    exponent2: Union[Fraction, int],
    *,
    coefficient: Fraction = ONE,
    strict: bool = False,
) -> int:
    """Least k >= 0 with coefficient * beta**k >= 2**exponent2 (or > if strict).

    This is the exact evaluation of ceilings like ``ceil(s * log2/log(beta))``
    without touching floating point.  When k = 0 misses, the answer is the
    least integer at least t = (exponent2 - log2(coefficient)) / log2(beta),
    or above t if strict.  ``_log2_bounds`` brackets t with twice the bits
    each round until the bracket holds one answer.  Answers above K = 2**20
    are refused once the bracket's lower end rules out every k <= K.  Only
    a tie (t an integer) or a near-tie, where a bracket narrower than 1
    still holds two answers, forms exact powers: at most two ``cmp_pow2``
    tests from the least answer the bracket allows.
    """
    beta = as_fraction(beta)
    coefficient = as_fraction(coefficient)
    exponent2 = as_fraction(exponent2)
    if beta <= ONE or coefficient <= ZERO:
        raise DomainError("need beta > 1 and a positive coefficient")

    def meets(value: Fraction) -> bool:
        c = cmp_pow2(value, exponent2)
        return c > 0 or (c == 0 and not strict)

    def answer(t: Fraction) -> int:
        return t // 1 + 1 if strict else -(-t // 1)

    if meets(coefficient):
        return 0
    limit = _POWER_SEARCH_LIMIT
    a, b = exponent2.numerator, exponent2.denominator
    bits = 64
    while True:
        c_lo, c_hi = _log2_bounds(coefficient, bits)
        beta_lo, beta_hi = _log2_bounds(beta, bits)
        # k = 0 misses, so t >= 0
        t_lo = Fraction(max((a << bits) - b * c_hi, 0), b * beta_hi)
        k = answer(t_lo)
        if k > limit:
            break
        if beta_lo > 0:
            t_hi = Fraction((a << bits) - b * c_lo, b * beta_lo)
            if answer(t_hi) == k:
                return k
            if t_hi - t_lo < 1:
                break
        bits *= 2
    for k in range(max(k, 1), limit + 1):
        if meets(coefficient * beta**k):
            return k
    raise DomainError("power search ran away; check arguments")


def _ln_bounds(p: int, q: int, bits: int) -> tuple:
    """(lo, hi) with lo <= 2**bits * ln(p/q) <= hi, for 0 < q < p <= 2q.

    ln(p/q) = 2 * sum z**(2i+1) / (2i+1) with z = (p-q)/(p+q) <= 1/3.  Each
    power is the last one times z**2, floored, so it falls short by less
    than 1/(1 - z**2) <= 9/8, and each floored quotient by less than 3.  The
    sum stops at the first power that floors to 0; the terms from there on
    add up to less than (9/8)**2 < 2.
    """
    a, b = p - q, p + q
    power, total, n = (a << bits) // b, 0, 0
    while power:
        total += power // (2 * n + 1)
        power = power * a * a // (b * b)
        n += 1
    return 2 * total, 2 * (total + 3 * n + 2)


def _log2_bounds(value: Fraction, bits: int) -> tuple:
    """(lo, hi) with lo <= 2**bits * log2(value) <= hi, for a positive rational.

    value = 2**t * w with t = floor_log2(value) and 1 <= w < 2; a power of
    two gives lo == hi == t * 2**bits, and otherwise log2(w) lies between
    the quotients of the ``_ln_bounds`` brackets of ln(w) and ln(2), taken
    at s = bits + 8 bits so that the two ends are a few units apart.  A w
    with terms longer than s bits is first cut to s bits, f/2**s <= w <
    (f + 1)/2**s, which adds less than 1/f <= 2**-s to ln(w): one unit on
    the upper end, added every time.
    """
    t = floor_log2(value)
    p, q = value.numerator, value.denominator
    p, q = (p, q << t) if t >= 0 else (p << -t, q)
    if p == q:
        return t << bits, t << bits
    s = bits + 8
    if q.bit_length() > s:
        p, q = (p << s) // q, 1 << s
    ln_lo, ln_hi = _ln_bounds(p, q, s)
    two_lo, two_hi = _ln_bounds(2, 1, s)
    return (t << bits) + (ln_lo << bits) // two_hi, (t << bits) - (-(ln_hi + 1) << bits) // two_lo


def _isqrt(n: int) -> int:
    """floor(sqrt(n)) for n > 0, by Newton's method from above."""
    x = 1 << (n.bit_length() + 1) // 2
    while (y := (x + n // x) // 2) < x:
        x = y
    return x


def floor_log_ratio(beta: Fraction, m: int, coefficient: Fraction, radicand: int) -> int:
    """floor(m * log2/log(beta) + coefficient * sqrt(radicand)), beta in (1, 2), decided exactly.

    For rational beta in (1, 2), log2/log(beta) is transcendental
    (Gelfond-Schneider), so the value is never an integer: rational
    brackets of log2(beta) and of sqrt(radicand), with twice the bits each
    round, end with both ends on one side of the integer next to it.
    """
    bits = 64
    while True:
        log_lo, log_hi = _log2_bounds(beta, bits)
        root = _isqrt(radicand << 2 * bits)
        roots = (Fraction(root, 1 << bits), Fraction(root + 1, 1 << bits))
        if coefficient < 0:
            roots = roots[::-1]
        if log_lo > 0:
            lo = Fraction(m << bits, log_hi) + coefficient * roots[0]
            hi = Fraction(m << bits, log_lo) + coefficient * roots[1]
            if lo // 1 == hi // 1:
                return lo // 1
        bits *= 2


def decimal_context(prec: int):
    """A fresh ``prec``-digit decimal context, half-even with the default traps."""
    return localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN))


# log2 is pure and its Decimals immutable, so reports that ask for the same
# log many times compute it once; typed, so a refused type (a float) never
# gets the entry of the rational it equals.
@lru_cache(maxsize=256, typed=True)
def log2_decimal(value: Fraction) -> Decimal:
    """log2 of a positive rational, correct to ~50 significant digits.

    The digit-transfer rate log2/log(beta) is ``1 / log2_decimal(beta)``.
    """
    value = as_fraction(value)
    if value <= 0:
        raise DomainError("log of a nonpositive value")
    with decimal_context(60):
        num = Decimal(value.numerator).ln()
        den = Decimal(value.denominator).ln()
        return (num - den) / Decimal(2).ln()


def as_decimal(value: Fraction) -> Decimal:
    """numerator / denominator, divided in the caller's decimal context."""
    return Decimal(value.numerator) / Decimal(value.denominator)


def decimal_str(value: Decimal) -> str:
    """``value`` rounded half-even to 12 decimal places, in fixed-point notation."""
    with decimal_context(42):
        q = Decimal(value).quantize(Decimal(1).scaleb(-12), rounding=ROUND_HALF_EVEN)
    return format(q, "f")


def round_to_bits(x: Fraction, bits: int) -> Fraction:
    """Round-to-nearest-even at `bits` significant binary digits.

    The result is exactly the value an ideal binary float with a
    `bits`-bit mantissa (and unbounded exponent) would store:
    ``Fraction.__round__`` rounds x / ulp half to even, on negatives too.
    """
    if bits < 1:
        raise DomainError("need a positive mantissa width")
    x = as_fraction(x)
    if x == 0:
        return ZERO
    ulp = TWO ** (floor_log2(abs(x)) + 1 - bits)
    return round(x / ulp) * ulp
