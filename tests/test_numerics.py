import itertools
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from betaenc import numerics
from betaenc.errors import DomainError
from betaenc.numerics import (
    Interval,
    as_fraction,
    cell_of,
    check_beta,
    cmp_pow2,
    decimal_str,
    format_rational,
    least_power_at_least,
    log2_decimal,
    log_ratio_decimal,
    round_to_bits,
    state_bound,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=1 << 12)
betas = st.fractions(
    min_value=Fraction(9, 8), max_value=Fraction(15, 8), max_denominator=64
)


def test_as_fraction_accepts_int_str_fraction():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(DomainError):
        as_fraction(0.5)
    with pytest.raises(DomainError):
        as_fraction(True)


def test_as_fraction_reads_the_cli_grammar():
    assert as_fraction(" -3/2 ") == Fraction(-3, 2)
    for bad in ("3 / 2", "3/-2", "0.5", "1e3", "3/0", "x"):
        with pytest.raises(DomainError):
            as_fraction(bad)


def test_check_beta_range():
    assert check_beta("3/2") == Fraction(3, 2)
    for bad in (1, 2, Fraction(5, 2), Fraction(1, 2)):
        with pytest.raises(DomainError):
            check_beta(bad)


def test_state_bound_values():
    assert state_bound(Fraction(3, 2)) == 2
    assert state_bound(Fraction(9, 5)) == Fraction(5, 4)
    assert state_bound(Fraction(8, 5)) == Fraction(5, 3)
    with pytest.raises(DomainError, match="^state bound needs beta > 1$"):
        state_bound(1)


def test_interval_basics():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    assert iv.length == Fraction(1, 6)
    # int endpoints are converted, so equal intervals compare equal
    assert Interval(0, 2) == Interval(Fraction(0), Fraction(2))
    assert type(Interval(0, 2).hi) is Fraction
    with pytest.raises(DomainError):
        Interval(Fraction(1, 2), Fraction(1, 3))


# -- exact comparisons -------------------------------------------------------


def test_cmp_pow2_integer_exponents():
    assert cmp_pow2(Fraction(8), 3) == 0
    assert cmp_pow2(Fraction(9), 3) == 1
    assert cmp_pow2(Fraction(7), 3) == -1
    assert cmp_pow2(Fraction(1, 4), -2) == 0
    assert cmp_pow2(Fraction(0), 5) == -1
    assert cmp_pow2(Fraction(-3), -5) == -1


def test_cmp_pow2_fractional_exponents():
    # 2**(1/2): 577/408 is a hair above sqrt(2), 408/577 relates to 1/sqrt2
    assert cmp_pow2(Fraction(577, 408), Fraction(1, 2)) == 1
    assert cmp_pow2(Fraction(239, 169), Fraction(1, 2)) == -1
    assert cmp_pow2(Fraction(3, 2), Fraction(1, 2)) == 1
    assert cmp_pow2(Fraction(4, 3), Fraction(1, 2)) == -1


@given(rationals, st.fractions(min_value=-8, max_value=8, max_denominator=6))
def test_cmp_pow2_matches_floats_away_from_ties(value, exponent):
    target = 2.0 ** float(exponent)
    approx = float(value) - target
    if abs(approx) > 1e-9 * max(1.0, target):
        assert cmp_pow2(value, exponent) == (1 if approx > 0 else -1)


def test_least_power_basics():
    # 2^e thresholds against beta = 3/2
    beta = Fraction(3, 2)
    assert least_power_at_least(beta, 0) == 0
    assert least_power_at_least(beta, 1) == 2  # (3/2)^2 = 9/4 >= 2
    assert least_power_at_least(beta, 64) == 110
    assert least_power_at_least(Fraction(9, 5), 64) == 76


def test_least_power_strict_and_coefficient():
    beta = Fraction(2, 1)  # not a valid gain, but a legal base here
    with pytest.raises(DomainError):
        least_power_at_least(Fraction(1, 2), 1)
    assert least_power_at_least(Fraction(4), 4) == 2  # 4^2 = 16 = 2^4
    assert least_power_at_least(Fraction(4), 4, strict=True) == 3
    assert least_power_at_least(beta, 3, coefficient=Fraction(1, 2)) == 4


@given(betas, st.integers(min_value=0, max_value=60))
def test_least_power_is_the_least(beta, e):
    k = least_power_at_least(beta, e)
    assert beta**k >= 2**e
    if k:
        assert beta ** (k - 1) < 2**e


power_bases = st.one_of(
    betas,
    st.fractions(min_value=Fraction(11, 10), max_value=Fraction(7, 2), max_denominator=1000),
    st.sampled_from([Fraction(2), Fraction(4), Fraction(8), Fraction(3, 2), Fraction(9, 4)]),
)
power_exponents = st.one_of(
    st.integers(min_value=-40, max_value=200),
    st.fractions(min_value=-20, max_value=60, max_denominator=12),
)
power_coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(8), Fraction(1, 64)]),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 1)),
    st.fractions(min_value=1, max_value=10**6, max_denominator=97),
)


@given(power_bases, power_exponents, power_coefficients, st.booleans())
@settings(max_examples=300)
def test_least_power_matches_linear_search(beta, e, coefficient, strict):
    expected = oracles.least_power_at_least(beta, e, coefficient, strict)
    assert least_power_at_least(beta, e, coefficient=coefficient, strict=strict) == expected


def test_least_power_refuses_exactly_past_two_to_the_twenty():
    limit = 1 << 20
    two = Fraction(2)
    assert least_power_at_least(two, limit) == limit
    assert least_power_at_least(two, limit - 1, coefficient=Fraction(1, 2)) == limit
    assert least_power_at_least(two, limit - 1, strict=True) == limit
    with pytest.raises(DomainError):
        least_power_at_least(two, limit + 1)
    with pytest.raises(DomainError):
        least_power_at_least(two, limit, strict=True)


def test_least_power_refuses_a_base_near_one_at_once():
    # (1 + 2**-40)**(2**20) < 1 + 2**-19 is far from 2; the exact power
    # (43-million-bit terms) is never formed
    near_one = Fraction(2**40 + 1, 2**40)
    with pytest.raises(DomainError):
        least_power_at_least(near_one, 1)
    with pytest.raises(DomainError):
        least_power_at_least(near_one, Fraction(1, 3), coefficient=Fraction(99, 100))
    # the bound 1/(1 - 2**20 * 2**-21) = 2 meets 2**0 / (1/2) exactly: refused only when strict
    half_step = Fraction(2**21 + 1, 2**21)
    with pytest.raises(DomainError):
        least_power_at_least(half_step, 0, coefficient=Fraction(1, 2), strict=True)


def test_least_power_near_one_still_finds_reachable_answers():
    # the bound (1 - 2**20 * 2**-24)**-1 = 16/15 clears the target, so the exact search runs
    beta = Fraction(2**24 + 1, 2**24)
    coefficient = 2 - Fraction(1, 2**10)
    k = least_power_at_least(beta, 1, coefficient=coefficient)
    assert coefficient * beta**k >= 2 > coefficient * beta ** (k - 1)
    assert 0 < k <= 1 << 20


@given(
    st.integers(min_value=(1 << 8) + 1, max_value=1 << 10),
    st.fractions(min_value=0, max_value=Fraction(3, 2), max_denominator=4),
    st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=16),
    st.booleans(),
)
@settings(max_examples=100)
def test_least_power_fast_refusal_is_exact_at_a_small_limit(big, e, coefficient, strict):
    # with the search limit K = 2**8, bases 1 + 1/big have K*(beta - 1) in (1/4, 1),
    # so the refusal bound is live and cheap to check against the linear search
    beta = Fraction(big + 1, big)
    try:
        expected = oracles.least_power_at_least(beta, e, coefficient, strict, limit=1 << 8)
    except ValueError:
        expected = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_POWER_SEARCH_LIMIT", 1 << 8)
        if expected is None:
            with pytest.raises(DomainError):
                least_power_at_least(beta, e, coefficient=coefficient, strict=strict)
        else:
            assert least_power_at_least(beta, e, coefficient=coefficient, strict=strict) == expected


# -- dyadic cells ------------------------------------------------------------


def point_cell(x: Fraction, m: int):
    """cell_of on the one-point interval [x, x]."""
    return cell_of(x.numerator, x.denominator, x.numerator, x.denominator, m)


def test_cell_of_points_interior_and_edges():
    assert point_cell(Fraction(0), 3) == 0
    assert point_cell(Fraction(1, 8), 3) == 1  # cells are half-open below
    assert point_cell(Fraction(1, 3), 2) == 1
    assert point_cell(Fraction(1), 3) == 7  # x = 1 sits in the closed last cell
    assert point_cell(Fraction(3, 2), 3) is None  # past 1 lies in no cell


@given(st.fractions(min_value=0, max_value=1, max_denominator=1 << 16),
       st.integers(min_value=1, max_value=16))
def test_cell_of_point_is_the_cell_of_the_point(x, m):
    k = point_cell(x, m)
    assert k == oracles.dyadic_index(x, m)
    assert 0 <= k < 1 << m
    assert Fraction(k, 1 << m) <= x <= Fraction(k + 1, 1 << m)


def test_cell_of_half_open_rule():
    assert cell_of(1, 4, 2, 5, 2) == 1  # [1/4, 2/5] in [1/4, 1/2)
    assert cell_of(1, 3, 1, 2, 2) is None  # [1/3, 1/2] touches 1/2, the next cell
    assert cell_of(3, 4, 1, 1, 2) == 3  # [3/4, 1] in the closed last cell


def test_beta_cylinder_and_length():
    beta = Fraction(3, 2)
    cyl = oracles.beta_cylinder([1, 0], beta)
    assert cyl.lo == Fraction(2, 3)
    assert cyl.length == oracles.cylinder_length(2, beta)
    assert oracles.cylinder_length(0, beta) == state_bound(beta)


# -- decimal helpers ---------------------------------------------------------


def test_log2_decimal_exact_powers():
    assert log2_decimal(Fraction(8)) == Decimal(3)
    assert log2_decimal(Fraction(1, 4)) == Decimal(-2)
    with pytest.raises(DomainError, match="^log of a nonpositive value$"):
        log2_decimal(Fraction(0))
    with pytest.raises(DomainError, match="^rate needs beta > 1$"):
        log_ratio_decimal(Fraction(1))


def test_log_ratio_matches_float_log():
    for beta in (Fraction(3, 2), Fraction(9, 5), Fraction(8, 5)):
        got = float(log_ratio_decimal(beta))
        want = math.log(2) / math.log(float(beta))
        assert abs(got - want) < 1e-12


def test_decimal_str_formatting():
    assert decimal_str(Decimal("1.5"), 3) == "1.500"
    assert decimal_str(Decimal("2") / Decimal("3"), 6) == "0.666667"
    assert format_rational(Fraction(-3, 7)) == "-3/7"


# -- float emulation helper --------------------------------------------------


def test_round_to_bits_ties_to_even():
    # 4 mantissa bits on [16, 32): representables step by 2
    assert round_to_bits(Fraction(33, 2), 4) == 16  # nearest
    assert round_to_bits(Fraction(35, 2), 4) == 18
    assert round_to_bits(Fraction(17), 4) == 16  # tie -> even mantissa
    assert round_to_bits(Fraction(19), 4) == 20
    assert round_to_bits(Fraction(0), 10) == 0
    assert round_to_bits(Fraction(-17), 4) == -16
    with pytest.raises(DomainError, match="^need a positive mantissa width$"):
        round_to_bits(Fraction(1, 3), 0)


@given(st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=1 << 20))
def test_round_to_bits_is_closest(x):
    bits = 8
    r = round_to_bits(x, bits)
    # error at most half an ulp of x's binade
    scale = Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length())
    assert abs(r - x) <= scale  # coarse sanity; exactness checked at ties above


def test_least_power_refuses_the_band_below_the_limit_at_once():
    # K = 2**20 and beta = 1 + e with K*e in [1/2, 4]: beta**K is about
    # 1.65 and 2.72, below the targets 2 and 4; the upward-rounded bound
    # sees it, so the 2**20-th powers (20- and 21-million-bit terms) are never formed
    start = time.perf_counter()
    with pytest.raises(DomainError):
        least_power_at_least(Fraction(2**21 + 1, 2**21), 1)
    with pytest.raises(DomainError):
        least_power_at_least(Fraction(2**20 + 1, 2**20), 2)
    with pytest.raises(DomainError):
        least_power_at_least(Fraction(2**18 + 1, 2**18), 6, strict=True)
    # each exact refusal took seconds; the bound takes well under a millisecond
    assert time.perf_counter() - start < 1


def test_rounded_squares_are_tight_and_above():
    for beta, levels in [(Fraction(3, 2), 8), (Fraction(2**21 + 1, 2**21), 13),
                         (Fraction(9, 5), 1), (Fraction(7, 2), 6), (Fraction(8), 4),
                         (Fraction(2**48 + 1, 2**48), 12)]:
        squares = itertools.islice(numerics._rounded_squares(beta), levels)
        for i, (m, e) in enumerate(squares):
            k = 1 << i
            bound = m * Fraction(2) ** e
            assert beta**k <= bound < beta**k * (1 + Fraction(4 * k + 4, 2**64))
            assert m.bit_length() <= 64


def test_least_power_near_one_is_proved_by_two_exact_comparisons():
    # 64 * log2 / log(1 + 1/4096) is about 181727; each exact power there has
    # over two million bits, so the time bound allows only a few of them
    beta = Fraction(4097, 4096)
    start = time.perf_counter()
    k = least_power_at_least(beta, 64)
    assert time.perf_counter() - start < 2
    assert k == 181727
    assert cmp_pow2(beta**k, 64) >= 0 > cmp_pow2(beta ** (k - 1), 64)


@given(
    st.integers(min_value=1 << 6, max_value=1 << 9),
    st.fractions(min_value=0, max_value=6, max_denominator=4),
    st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=16),
    st.booleans(),
)
@settings(max_examples=100)
def test_least_power_band_refusal_is_exact_at_a_small_limit(den, e, coefficient, strict):
    # with the search limit K = 2**8, bases 1 + 1/den have K*(beta - 1) in
    # [1/2, 4], the band the bound 1/(1 - K*e) could not decide
    beta = Fraction(den + 1, den)
    try:
        expected = oracles.least_power_at_least(beta, e, coefficient, strict, limit=1 << 8)
    except ValueError:
        expected = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_POWER_SEARCH_LIMIT", 1 << 8)
        if expected is None:
            with pytest.raises(DomainError):
                least_power_at_least(beta, e, coefficient=coefficient, strict=strict)
        else:
            assert least_power_at_least(beta, e, coefficient=coefficient, strict=strict) == expected
