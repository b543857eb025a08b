import math
import time
import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from betaenc import numerics
from betaenc.errors import DomainError
from betaenc.numerics import (
    Interval,
    as_fraction,
    check_beta,
    cmp_pow2,
    decimal_str,
    floor_log2,
    floor_log_ratio_sqrt,
    format_rational,
    in_cell,
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


def integer_root(n: int, b: int) -> int:
    """floor(n ** (1/b)) for n >= 0, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // b + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**b <= n else (lo, mid)
    return lo


@given(st.integers(min_value=-40, max_value=64), st.integers(min_value=1, max_value=12),
       st.integers(min_value=40, max_value=100), st.integers(min_value=-3, max_value=3))
@example(2, 1, 40, 0)  # 4 at 2
@example(-3, 1, 40, 0)  # 1/8 at -3
@example(6, 3, 60, 0)  # 4 at 6/3 = 2
@example(-40, 1, 40, -1)  # r = 1, so the value is 0 and has no reciprocal
@settings(max_examples=300)
def test_cmp_pow2_matches_the_full_power_at_and_near_ties(a, b, precision, offset):
    # r / 2**precision is the largest such value at most 2**(a/b): a tie when
    # b divides a, and within about 2**-precision of one otherwise
    r = integer_root(1 << (a + b * precision), b)
    value, exponent = Fraction(r + offset, 1 << precision), Fraction(a, b)
    if offset == 0 and a % b == 0:
        assert cmp_pow2(value, exponent) == 0
    assert cmp_pow2(value, exponent) == oracles.cmp_pow2(value, exponent)
    if value > 0:
        assert cmp_pow2(1 / value, -exponent) == oracles.cmp_pow2(1 / value, -exponent)


@given(rationals, st.fractions(min_value=-40, max_value=40, max_denominator=50))
def test_cmp_pow2_matches_the_full_power(value, exponent):
    assert cmp_pow2(value, exponent) == oracles.cmp_pow2(value, exponent)


@pytest.mark.parametrize("a", [10**8, -10**8])
def test_cmp_pow2_decides_a_huge_integer_exponent_without_its_power(a):
    # 2**a itself would be a 10**8-bit integer: 12.5 MB
    tracemalloc.start()
    try:
        got = cmp_pow2(Fraction(1, 3), a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (1 if a < 0 else -1)
    assert peak < 1 << 20


def test_cmp_pow2_ties_at_integer_exponents():
    for a in range(-70, 71):
        power = Fraction(2) ** a
        assert cmp_pow2(power, a) == 0
        assert cmp_pow2(power * Fraction(3, 2), a) == 1 == -cmp_pow2(power * Fraction(3, 4), a)
        # an odd numerator or denominator at floor_log2 == a is never a power of two
        assert cmp_pow2(power * Fraction(2**40 + 1, 2**40), a) == 1


def test_least_power_forms_no_full_power_to_decide_its_last_step():
    # the last exact test compares a 5.4-million-bit value with 2**(794/3);
    # cubing it took most of 6-10 s, the bounds decide it at once
    start = time.perf_counter()
    k = least_power_at_least(Fraction(2624, 2623), Fraction(794, 3),
                             coefficient=Fraction(377, 136), strict=True)
    assert k == 478614
    assert time.perf_counter() - start < 5


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


def cells_holding(lo: Fraction, hi: Fraction, m: int, cells=None) -> list:
    """Those of the order-m ``cells`` (all by default) whose ``in_cell`` takes [lo, hi].

    With p - q = q = 1, the interval in cell a is [R/P, (R + T)/P], where
    P is the product of the two denominators, R = 2**m * P * lo - a * P
    and T = 2**m * P * (hi - lo).
    """
    P = lo.denominator * hi.denominator
    T = int((hi - lo) * P) << m
    return [a for a in (range(1 << m) if cells is None else cells)
            if in_cell((lo.numerator * hi.denominator << m) - a * P, T, P, 1, 1,
                       int(a == (1 << m) - 1))]


def test_in_cell_points_interior_and_edges():
    def point(x, m):
        return cells_holding(x, x, m)

    assert point(Fraction(0), 3) == [0]
    assert point(Fraction(1, 8), 3) == [1]  # cells are half-open below
    assert point(Fraction(1, 3), 2) == [1]
    assert point(Fraction(1), 3) == [7]  # x = 1 sits in the closed last cell
    assert point(Fraction(3, 2), 3) == []  # past 1 lies in no cell


@given(st.fractions(min_value=0, max_value=1, max_denominator=1 << 16),
       st.integers(min_value=1, max_value=16))
def test_in_cell_point_is_the_cell_of_the_point(x, m):
    k = oracles.dyadic_index(x, m)
    # a cell past the two neighbours of k is no nearer x than they are
    assert cells_holding(x, x, m, range(max(k - 1, 0), min(k + 2, 1 << m))) == [k]
    assert Fraction(k, 1 << m) <= x <= Fraction(k + 1, 1 << m)


def test_in_cell_half_open_rule():
    assert cells_holding(Fraction(1, 4), Fraction(2, 5), 2) == [1]  # in [1/4, 1/2)
    assert cells_holding(Fraction(1, 3), Fraction(1, 2), 2) == []  # touches 1/2, the next cell
    assert cells_holding(Fraction(3, 4), Fraction(1), 2) == [3]  # in the closed last cell


@st.composite
def cylinder_cells(draw):
    """(beta, k, L, m, a): the depth-k cylinder with lower end L/p**k, up to
    twice past 1, and the order-m cell a of that lower end or a neighbour."""
    beta = draw(st.sampled_from([Fraction(3, 2), Fraction(9, 5), Fraction(4, 3),
                                 Fraction(17, 16)]))
    k = draw(st.integers(min_value=0, max_value=40))
    P = beta.numerator**k
    L = draw(st.integers(min_value=0, max_value=2 * P))
    m = draw(st.integers(min_value=1, max_value=12))
    top = (1 << m) - 1
    a = min((L << m) // P, top) + draw(st.sampled_from([-1, 0, 1]))
    return beta, k, L, m, min(max(a, 0), top)


@given(cylinder_cells())
@example((Fraction(4, 3), 10, 347141, 2, 1))  # upper end 1/2: touches the next cell
@example((Fraction(4, 3), 10, 346141, 2, 1))  # just below 1/2: inside
@example((Fraction(4, 3), 10, 871429, 1, 1))  # upper end 1 in the closed last cell
@example((Fraction(3, 2), 4, 81, 3, 7))  # lower end at 1
@example((Fraction(3, 2), 4, 82, 3, 7))  # lower end past 1
def test_in_cell_agrees_with_the_division_oracles(case):
    beta, k, L, m, a = case
    p, q = beta.numerator, beta.denominator
    P, Q = p**k, q**k
    hi_n, hi_d = L * (p - q) + Q * q, P * (p - q)
    got = in_cell((L << m) - a * P, Q << m, P, p - q, q, int(a == (1 << m) - 1))
    cylinder = oracles.Cylinder(Fraction(L, P), Fraction(hi_n, hi_d))
    cell = oracles.Cylinder(Fraction(a, 1 << m), Fraction(a + 1, 1 << m))
    assert got == oracles.interval_in_dyadic_cell(cylinder, cell)
    assert got == (oracles.cell_of(L, P, hi_n, hi_d, m) == a)


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
    assert decimal_str(Decimal("1.5")) == "1.500000000000"
    assert decimal_str(Decimal("2") / Decimal("3")) == "0.666666666667"
    # half-even at the twelfth place
    assert decimal_str(Decimal("0.0000000000025")) == "0.000000000002"
    assert decimal_str(Decimal("-0.0000000000035")) == "-0.000000000004"
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


@st.composite
def rounding_cases(draw):
    """(x, bits): exact half-ulp ties of odd and even mantissas, values near
    ties, and any rationals, of either sign and far above and below 1."""
    bits, e = draw(st.integers(1, 60)), draw(st.integers(-300, 300))
    ulp = Fraction(2) ** (e + 1 - bits)  # of the binade [2**e, 2**(e + 1))
    mantissa = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    kind = draw(st.sampled_from(["tie", "near", "any"]))
    if kind == "tie":
        x = (mantissa + Fraction(1, 2)) * ulp
    elif kind == "near":
        x = (mantissa + Fraction(1, 2) + draw(st.sampled_from([-1, 1])) * Fraction(
            1, 1 << draw(st.integers(2, 80)))) * ulp
    else:
        x = Fraction(draw(st.integers(1, 1 << 200)), draw(st.integers(1, 1 << 200))) * 2 * ulp
    return (-x if draw(st.booleans()) else x), bits


@given(rounding_cases())
@example((Fraction(17), 4))  # tie, down to the even mantissa
@example((Fraction(-19), 4))  # tie, up to the even mantissa
@example((Fraction(3, 2), 1))  # a one-bit tie: 2 has the even mantissa
@example((Fraction(-1, 3), 60))
def test_round_to_bits_matches_the_divmod_oracle(case):
    x, bits = case
    got = round_to_bits(x, bits)
    assert isinstance(got, Fraction) and got == oracles.round_to_bits(x, bits)


@given(st.integers(-300, 300), st.integers(1, 80), st.integers(1, 1 << 200),
       st.integers(1, 1 << 200))
@example(0, 1, 1, 1)
def test_floor_log2_matches_cmp_pow2_at_and_beside_powers_of_two(e, j, n, d):
    power, near = Fraction(2) ** e, Fraction(1, 1 << j)
    # 2**e and its neighbours 2**e * (1 +- 2**-j), above and below 1
    for value, want in [(power, e), (power * (1 + near), e), (power * (1 - near), e - 1)]:
        assert floor_log2(value) == want
    value = Fraction(n, d) * power
    got = floor_log2(value)
    assert cmp_pow2(value, got) >= 0 > cmp_pow2(value, got + 1)


def test_floor_log2_refuses_nonpositive_values():
    for value in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(DomainError, match="^log of a nonpositive value$"):
            floor_log2(value)


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


def test_least_power_near_one_is_proved_by_two_exact_comparisons():
    # 64 * log2 / log(1 + 1/4096) is about 181727; each exact power there has
    # over two million bits, so the time bound allows only a few of them
    beta = Fraction(4097, 4096)
    start = time.perf_counter()
    k = least_power_at_least(beta, 64)
    assert time.perf_counter() - start < 2
    assert k == 181727
    assert cmp_pow2(beta**k, 64) >= 0 > cmp_pow2(beta ** (k - 1), 64)


ONE = Fraction(1)


def count_exact_tests(patch) -> list:
    """Count the ``cmp_pow2`` calls the power search makes, one entry per call."""
    calls, inner = [], numerics.cmp_pow2

    def counted(value, exponent):
        calls.append(exponent)
        return inner(value, exponent)

    patch.setattr(numerics, "cmp_pow2", counted)
    return calls


def lochs_typical_searches():
    """A lochs run's searches at the default eps and tail cuts: (beta, e, coefficient, strict)."""
    for beta in (Fraction(3, 2), Fraction(9, 5)):
        inv_kappa = beta - 1
        for m in (8, 16, 32, 64):
            yield beta, m, ONE, True  # beta**k > 2**m
            yield beta, m, inv_kappa, False  # scan_targets' k_min
            for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
                yield beta, m + 1, eps, True
            tn, td = (Fraction(1, 10) * m).as_integer_ratio()
            yield beta**td, m * td, beta**tn, False
            yield beta**td, m * td, beta**-tn, True


def test_searches_the_brackets_decide_form_no_exact_power():
    for beta, e, coefficient, strict in lochs_typical_searches():
        with pytest.MonkeyPatch.context() as patch:
            calls = count_exact_tests(patch)
            k = least_power_at_least(beta, e, coefficient=coefficient, strict=strict)
        assert len(calls) == 1  # the k = 0 check
        assert k == oracles.least_power_at_least(beta, e, coefficient, strict)
    # the two slowest searches known, each once proved by exact powers of millions of bits
    worst = [(Fraction(2624, 2623), Fraction(794, 3), Fraction(377, 136), True, 478614),
             (Fraction(4097, 4096), 64, ONE, False, 181727)]
    for beta, e, coefficient, strict, want in worst:
        with pytest.MonkeyPatch.context() as patch:
            calls = count_exact_tests(patch)
            assert least_power_at_least(beta, e, coefficient=coefficient, strict=strict) == want
        assert len(calls) == 1


def test_a_tie_still_reaches_its_exact_tests():
    # (9/4)**3 * 2**5 * (4/9)**3 = 2**5: t = 3 exactly, which no bracket clears
    beta, coefficient = Fraction(9, 4), 32 * Fraction(4, 9) ** 3
    for strict, want, tests in [(False, 3, 2), (True, 4, 3)]:
        with pytest.MonkeyPatch.context() as patch:
            calls = count_exact_tests(patch)
            assert least_power_at_least(beta, 5, coefficient=coefficient, strict=strict) == want
        assert len(calls) == tests
    # powers-of-two bases have exact brackets, so their ties need no exact power
    for beta, e, coefficient, strict, want in [(Fraction(4), 4, ONE, False, 2),
                                                (Fraction(4), 4, ONE, True, 3),
                                                (Fraction(2), 3, Fraction(1, 2), False, 4)]:
        with pytest.MonkeyPatch.context() as patch:
            calls = count_exact_tests(patch)
            assert least_power_at_least(beta, e, coefficient=coefficient, strict=strict) == want
        assert len(calls) == 1


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


def wide_log_ratio_sqrt(beta, m, coefficient, digits=200) -> Decimal:
    """m * log2/log(beta) + coefficient * sqrt(m) on ``digits``-digit decimals."""
    ctx = Context(prec=digits)
    ratio = ctx.divide(ctx.ln(2), ctx.subtract(ctx.ln(beta.numerator), ctx.ln(beta.denominator)))
    t = ctx.multiply(ctx.divide(coefficient.numerator, coefficient.denominator), ctx.sqrt(m))
    return ctx.add(ctx.multiply(m, ratio), t)


@settings(max_examples=300)
@given(beta=st.fractions(Fraction(1001, 1000), Fraction(1999, 1000), max_denominator=1000),
       m=st.integers(1, 10**6),
       coefficient=st.fractions(-1000, 1000, max_denominator=1000))
def test_floor_log_ratio_sqrt_matches_wide_decimals(beta, m, coefficient):
    assume(1 < beta < 2)
    value = wide_log_ratio_sqrt(beta, m, coefficient)
    assert floor_log_ratio_sqrt(beta, m, coefficient) == math.floor(value)
    # the row's cut is never on an integer: 200 digits see it clear of one
    assert abs(value - round(value)) > Decimal(10) ** -150


@pytest.mark.parametrize("beta", [Fraction(3, 2), Fraction(9, 5), Fraction(101, 100)])
def test_floor_log_ratio_sqrt_decides_ties_sixty_digits_miss(beta):
    """At m = 4, sqrt(m) = 2: a coefficient that puts the value within 1e-79
    of 100.  The 60-digit decimals the sqrt tail used to read put it on the
    wrong side of 100 at 3/2 and 101/100; the brackets refine until they clear it."""
    m = 4
    ratio = wide_log_ratio_sqrt(beta, 1, Fraction(0))
    close = Fraction(ratio.quantize(Decimal(10) ** -80, context=Context(prec=200)))
    coefficient = (100 - m * close) / 2
    value = wide_log_ratio_sqrt(beta, m, coefficient)
    assert 0 < abs(value - 100) < Decimal(10) ** -79
    assert floor_log_ratio_sqrt(beta, m, coefficient) == math.floor(value)


log2_values = st.one_of(
    st.fractions(min_value=Fraction(1, 2**80), max_value=1, max_denominator=10**30),
    st.fractions(min_value=2, max_value=2**80, max_denominator=10**6),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    st.integers(-300, 300).map(lambda t: Fraction(2) ** t),
)


@given(log2_values, st.sampled_from([1, 8, 64, 300]))
@example(Fraction(1, 3), 1)
@example(Fraction(2**40 + 1, 2**40), 64)
@example(Fraction(3**300 + 1, 5**200), 64)  # terms longer than the bracket: cut first
@settings(max_examples=300)
def test_log2_bounds_bracket_wide_decimals(value, bits):
    lo, hi = numerics._log2_bounds(value, bits)
    t = floor_log2(value)
    if value == Fraction(2) ** t:
        assert lo == hi == t << bits
        return
    ctx = Context(prec=200)
    log2 = ctx.divide(ctx.subtract(ctx.ln(value.numerator), ctx.ln(value.denominator)),
                      ctx.ln(2))
    scaled = ctx.multiply(log2, 2**bits)
    assert lo <= scaled <= hi
    assert hi - lo <= 16  # a few units of 2**-bits


def test_floor_log_ratio_sqrt_refines_a_log_bracket_that_starts_at_zero():
    # log2(1 + 2**-70) is below the 64-bit bracket's resolution, whose
    # lower end is then 0; the next rounds have room for it
    beta = Fraction(2**70 + 1, 2**70)
    for m, coefficient in [(1, Fraction(0)), (3, Fraction(-7, 2)), (10**6, Fraction(5, 3))]:
        value = wide_log_ratio_sqrt(beta, m, coefficient)
        assert floor_log_ratio_sqrt(beta, m, coefficient) == math.floor(value)


def test_least_power_refines_a_log_bracket_that_starts_at_zero():
    # t = -log2(1 - 2**-61) / log2(1 + 2**-70), about 512, from a base whose
    # 64-bit log2 bracket has lower end 0
    beta, coefficient = Fraction(2**70 + 1, 2**70), 2 - Fraction(1, 2**60)
    for strict in (False, True):
        expected = oracles.least_power_at_least(beta, 1, coefficient, strict)
        assert least_power_at_least(beta, 1, coefficient=coefficient, strict=strict) == expected
