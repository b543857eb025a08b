import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from betaenc.converter import (
    KResult,
    _scan,
    default_k_cap,
    fresh_state,
    k_of_m,
    k_profile,
    push_bit,
    scan_targets,
    transfer_rows,
    uncertainty_interval,
)
from betaenc.encoder import (
    ConstantThreshold,
    ExplicitThresholds,
    FixedBeta,
    IidSupportBetas,
    UniformBetas,
    UniformThresholds,
    encode,
    encode_bits,
)
from betaenc.errors import ConfigurationError, DomainError
from betaenc.numerics import Interval, state_bound
from betaenc.prng import SplitMix64

F = Fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=1 << 12)
small_betas = st.sampled_from([F(3, 2), F(8, 5), F(9, 5), F(4, 3)])


def test_frozen_costs():
    assert k_of_m(F(0), 1, F(3, 2)) == KResult(4, False)
    assert k_of_m(F(0), 1, F(9, 5)) == KResult(2, False)
    assert k_of_m(F(1, 3), 4, F(3, 2)) == KResult(9, False)
    assert k_of_m(F(1, 3), 8, F(3, 2)) == KResult(16, False)


def test_profile_matches_single_calls():
    ms = [1, 2, 4, 8, 16]
    profile = k_profile(F(1, 3), ms, F(3, 2))
    assert profile == [k_of_m(F(1, 3), m, F(3, 2)) for m in ms]
    ks = [r.k for r in profile]
    assert ks == sorted(ks)


def test_streaming_fresh_state_and_first_step():
    state = fresh_state(F(3, 2))
    assert state.cylinder == Interval(F(0), F(2))
    assert state.m_confirmed == 0
    state, fresh = push_bit(state, 0, F(3, 2))
    assert state.cylinder == Interval(F(0), F(4, 3))
    assert fresh == ()


def test_streaming_emits_after_four_zeros():
    state = fresh_state(F(3, 2))
    emitted = []
    for b in (0, 0, 0, 0):
        state, fresh = push_bit(state, b, F(3, 2))
        emitted.extend(fresh)
    # cylinder is [0, 32/81], inside [0, 1/2) but not inside [0, 1/4)
    assert state.cylinder.hi == F(32, 81)
    assert emitted == [0]
    assert state.m_confirmed == 1


def test_streaming_all_ones_never_emits():
    # the all-ones cylinder keeps its upper end at kappa = 2
    state = fresh_state(F(3, 2))
    for _ in range(50):
        state, fresh = push_bit(state, 1, F(3, 2))
        assert fresh == ()
    assert state.cylinder.hi == F(2)


def test_push_bit_rejects_junk():
    with pytest.raises(DomainError):
        push_bit(fresh_state(F(3, 2)), 2, F(3, 2))


def test_push_bit_refuses_a_gain_its_state_was_not_made_for():
    # mixing gains would give [2/3, 341/324], a cylinder of neither gain
    state, _ = push_bit(fresh_state(F(3, 2)), 1, F(3, 2))
    with pytest.raises(DomainError, match="gain"):
        push_bit(state, 0, F(9, 5))


def test_push_bit_takes_an_equal_gain_in_any_exact_form():
    # one object, a fresh Fraction per bit, a string per bit
    beta = F(3, 2)
    bits = [int(b) for b in encode_bits(F(5, 17), beta, 1, 60)]
    digits = []
    for make in (lambda: beta, lambda: F(3, 2), lambda: "3/2"):
        state, out = fresh_state(beta), []
        for b in bits:
            state, fresh = push_bit(state, b, make())
            out.extend(fresh)
        digits.append(out)
    assert digits[0] and digits[1] == digits[0] and digits[2] == digits[0]
    for junk in (1.5, True):
        with pytest.raises(DomainError):
            push_bit(fresh_state(beta), 1, junk)


@st.composite
def bit_streams(draw):
    """(beta, bits): random, all-ones, all-zeros or encoder streams.

    At beta = 4/3 the cylinder's ends are dyadic, so they can touch cell edges."""
    beta = draw(st.sampled_from([F(3, 2), F(9, 5), F(17, 16), F(4, 3)]))
    n = draw(st.integers(min_value=1, max_value=240))
    kind = draw(st.sampled_from(["random", "ones", "zeros", "encoded"]))
    if kind == "random":
        return beta, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if kind != "encoded":
        return beta, [int(kind == "ones")] * n
    x = draw(st.one_of(st.just(F(0)), st.just(F(1)), unit_fractions))
    return beta, [int(b) for b in encode_bits(x, beta, 1, n)]


@given(bit_streams())
@settings(max_examples=80)
def test_push_bit_matches_the_fraction_oracle(case):
    beta, bits = case
    state = fresh_state(beta)
    ref = (oracles.Cylinder(F(0), 1 / (beta - 1)), (), 0)
    for b in bits:
        state, fresh = push_bit(state, b, beta)
        ref, ref_fresh = oracles.push_bit_fraction(ref, b, beta)
        assert fresh == ref_fresh
        assert (state.cylinder.lo, state.cylinder.hi) == ref[0]
    assert (state.emitted, state.k) == ref[1:]


@given(unit_fractions, small_betas, st.integers(min_value=1, max_value=10))
@settings(max_examples=60)
def test_cost_matches_brute_force_oracle(x, beta, m):
    # one cap on both sides: the package's default formula, by the oracle's
    # linear search (an input like x = 1 never settles and runs to the cap)
    cap = oracles.least_power_at_least(beta, 4 * m) + 64
    res = k_of_m(x, m, beta, k_cap=cap)
    assert k_of_m(x, m, beta) == res
    expected = oracles.cylinder_k(x, m, beta, k_cap=cap)
    if expected is None:
        assert res == KResult(cap, True)
    else:
        assert res == KResult(expected, False)


@pytest.mark.parametrize("beta", [F(3, 2), F(9, 5), F(4, 3)])
@pytest.mark.parametrize("x", [F(0), F(1), F(5, 8), F(1, 3)], ids=str)
@pytest.mark.parametrize("kind", ["constant", "listed", "uniform"])
def test_profile_across_wide_target_gaps_matches_brute_force_oracle(beta, x, kind):
    """The scan re-anchors its cylinder once per target; over (1, 7, 40)
    each target's cost is the oracle's.  5/8 sits on a cell edge at
    orders 3 and up, and at beta = 4/3 every cylinder end is dyadic, so
    a cylinder can end exactly on a cell edge."""
    ms = (1, 7, 40)
    targets = scan_targets(ms, beta)
    kappa, n = state_bound(beta), targets[-1][1]
    rng = None
    if kind == "constant":
        thresholds = ConstantThreshold(1)
        seq = [F(1)] * n
    elif kind == "listed":
        thresholds = ExplicitThresholds([1 + (kappa - 1) * F(i % 7, 6) for i in range(n)])
        seq = thresholds.values
    else:
        thresholds, rng = UniformThresholds(1, kappa), SplitMix64(5)
        seq = thresholds.realize(n, SplitMix64(5).derive("thresholds"))
    want = []
    for m, cap, _ in targets:
        k = oracles.cylinder_k(x, m, beta, u_values=seq, k_cap=cap)
        want.append(KResult(cap, True) if k is None else KResult(k, False))
    assert k_profile(x, ms, beta, thresholds, rng=rng) == want


@pytest.mark.parametrize("beta", [F(3, 2), F(9, 5)])
def test_push_bit_over_a_long_stream_matches_the_fraction_cylinder(beta):
    """4 000 encoder bits of 5/17: the digits are 5/17's and the cylinder is
    the Fraction one, far past the 240 bits of the hypothesis test."""
    x = F(5, 17)
    bits = [int(b) for b in encode_bits(x, beta, 1, 4000)]
    state, digits = fresh_state(beta), []
    for b in bits:
        state, fresh = push_bit(state, b, beta)
        digits.extend(fresh)
    assert len(digits) > 2000
    assert tuple(digits) == state.emitted == oracles.doubling_digits(x, len(digits))
    assert (state.cylinder.lo, state.cylinder.hi) == oracles.beta_cylinder(bits, beta)


@given(unit_fractions, small_betas)
@settings(max_examples=40)
def test_streamed_digits_are_binary_digits_of_x(x, beta):
    trace = encode(x, FixedBeta(beta), ConstantThreshold(1), 48)
    state = fresh_state(beta)
    for b in trace.bits:
        state, _ = push_bit(state, b, beta)
    m = state.m_confirmed
    if m:
        assert list(state.emitted) == list(oracles.doubling_digits(x, m))


def test_cost_under_random_thresholds_matches_oracle():
    beta = F(3, 2)
    thresholds = UniformThresholds(F(1), state_bound(beta))
    rng = SplitMix64(11)
    res = k_of_m(F(1, 3), 4, beta, thresholds, rng=rng)
    cap = default_k_cap(4, beta)
    seq = thresholds.realize(cap, SplitMix64(11).derive("thresholds"))
    assert res.k == oracles.cylinder_k(F(1, 3), 4, beta, u_values=seq)


@pytest.mark.parametrize("beta", [F(3, 2), F(9, 5)])
@pytest.mark.parametrize("lo, hi", [(F(1), None), (F(7, 6), F(5, 4))])
def test_k_profile_draws_thresholds_from_the_callers_rng(beta, lo, hi):
    """A random process draws the cap's thresholds from rng.derive("thresholds")."""
    hi = state_bound(beta) if hi is None else hi
    ms = (4, 8, 16)
    targets = scan_targets(ms, beta)
    seq = oracles.uniform_draws(lo, hi, 64, SplitMix64(11).derive("thresholds"), targets[-1][1])
    want = oracles.scan_steps(F(1, 3), targets, beta, ((u.numerator, u.denominator) for u in seq))
    results = k_profile(F(1, 3), ms, beta, UniformThresholds(lo, hi), rng=SplitMix64(11))
    assert [tuple(r) for r in results] == want


@pytest.mark.parametrize("thresholds, k_cap", [(UniformThresholds(1, 2), 10**7),
                                               (ConstantThreshold(1), 10**8)],
                         ids=["uniform", "constant"])
def test_a_huge_cap_holds_only_the_thresholds_the_scan_reads(thresholds, k_cap):
    """Thresholds reach the scan lazily: at a cap of 10**7 or 10**8 the
    profile is the one at a cap of 1000, and the scan's memory stays small.
    Uniform draws made for the whole cap up front took 555 MiB at 3 * 10**6."""
    args = (F(1, 3), (4, 64), F(3, 2), thresholds)
    want = k_profile(*args, k_cap=1000, rng=SplitMix64(1))
    tracemalloc.start()
    try:
        got = k_profile(*args, k_cap=k_cap, rng=SplitMix64(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and not any(r.exceeded for r in got)
    assert peak < 4 << 20


# every entry point that draws refuses a random process with no rng, naming its role
NO_RNG_CALLS = {
    "encode-uniform-gains": (lambda: encode(F(1, 2), UniformBetas(F(3, 2), F(9, 5)),
                                            ConstantThreshold(1), 3), "gain"),
    "encode-iid-gains": (lambda: encode(F(1, 2), IidSupportBetas((F(3, 2), F(8, 5))),
                                        ConstantThreshold(1), 3), "gain"),
    "encode-uniform-thresholds": (lambda: encode(F(1, 2), FixedBeta(F(3, 2)),
                                                 UniformThresholds(1, 2), 3), "threshold"),
    "k_profile": (lambda: k_profile(F(1, 3), (4, 8), F(3, 2), UniformThresholds(1, 2)),
                  "threshold"),
    "k_of_m": (lambda: k_of_m(F(1, 3), 4, F(3, 2), UniformThresholds(1, 2)), "threshold"),
}


@pytest.mark.parametrize("call, role", NO_RNG_CALLS.values(), ids=NO_RNG_CALLS)
def test_entry_points_refuse_a_random_process_without_an_rng(call, role):
    with pytest.raises(ConfigurationError,
                       match=f"^{role} process draws random values; pass rng=$"):
        call()


@st.composite
def scan_cases(draw):
    """(x, beta, u, ascending m list from 1, k_cap) for the scan oracle."""
    beta = draw(st.sampled_from([F(3, 2), F(9, 5), F(7, 5), F(8, 5), F(5, 3)]))
    kappa = 1 / (beta - 1)
    u = draw(st.sampled_from([F(1), kappa]) | st.fractions(1, kappa, max_denominator=60))
    ms = [1]
    for step in draw(st.lists(st.integers(1, 12), max_size=4)):
        ms.append(ms[-1] + step)
    k_cap = draw(st.none() | st.integers(1, 40))
    e = draw(st.integers(1, 24))
    x = draw(st.sampled_from([F(0), F(1), F(1, 2), F(1, 3)])
             | st.integers(0, 1 << e).map(lambda j: F(j, 1 << e))  # on cell edges
             | st.integers(0, (1 << 200) - 1).map(lambda j: F(2 * j + 1, 1 << 201))
             # beta**j * x == u: a tie at step j, after j - 1 zeros
             | st.integers(1, 8).map(lambda j: u / beta**j).filter(lambda v: v <= 1))
    return x, beta, u, ms, k_cap


@given(scan_cases(), st.integers(0, 1 << 32))
@settings(max_examples=150, deadline=None)
def test_scan_matches_the_per_step_oracle(case, seed):
    x, beta, u, ms, k_cap = case
    constant = (u.numerator, u.denominator)
    # the drawn cap, and caps one below and at each uncapped answer
    uncapped = oracles.scan_steps(x, scan_targets(ms, beta), beta, itertools.repeat(constant))
    for cap in {k_cap} | {k + d for k, _ in uncapped for d in (-1, 0) if k + d >= 1}:
        targets = scan_targets(ms, beta, cap)
        want = oracles.scan_steps(x, targets, beta, itertools.repeat(constant))
        got = _scan(x, targets, beta, ConstantThreshold(u).scaled(targets[-1][1]))
        assert [tuple(r) for r in got] == want, cap
    # uniform thresholds take the same entry point
    targets = scan_targets(ms, beta, k_cap)
    pairs = list(UniformThresholds(1, 1 / (beta - 1)).scaled(targets[-1][1], SplitMix64(seed)))
    want = oracles.scan_steps(x, targets, beta, iter(pairs))
    assert [tuple(r) for r in _scan(x, targets, beta, iter(pairs))] == want
    # the last target settles at the last bit drawn: one draw fewer runs out
    with pytest.raises(ConfigurationError, match="exhausted"):
        _scan(x, targets, beta, iter(pairs[:want[-1][0] - 1]))


def test_cap_hit_reports_exceeded():
    assert k_of_m(F(0), 1, F(3, 2), k_cap=2) == KResult(2, True)
    assert k_of_m(F(0), 1, F(3, 2), k_cap=3) == KResult(3, True)
    # the cap is inclusive: containment exactly at k_cap still resolves
    assert k_of_m(F(0), 1, F(3, 2), k_cap=4) == KResult(4, False)


@pytest.mark.parametrize("k_cap", [0, -1, True, 2.0])
def test_cap_below_one_rejected(k_cap):
    with pytest.raises(ConfigurationError):
        scan_targets([1], F(3, 2), k_cap)
    with pytest.raises(ConfigurationError):
        k_profile(F(1, 3), [1], F(3, 2), k_cap=k_cap)
    with pytest.raises(ConfigurationError):
        transfer_rows(F(1, 3), [1], F(3, 2), k_cap=k_cap)


def test_short_explicit_thresholds_rejected():
    # the cap for m=1 needs far more than three values
    with pytest.raises(ConfigurationError):
        k_of_m(F(1, 3), 1, F(3, 2), ExplicitThresholds((F(1), F(1), F(1))))


def test_threshold_band_checked_against_gain():
    with pytest.raises(ConfigurationError):
        k_of_m(F(1, 3), 1, F(3, 2), ConstantThreshold(F(5, 2)))


def test_input_validation():
    with pytest.raises(DomainError):
        k_of_m(F(3, 2), 1, F(3, 2))
    with pytest.raises(DomainError):
        k_profile(F(1, 2), [], F(3, 2))
    with pytest.raises(DomainError):
        k_profile(F(1, 2), [2, 2], F(3, 2))
    with pytest.raises(DomainError):
        k_profile(F(1, 2), [4, 2], F(3, 2))
    with pytest.raises(DomainError):
        k_profile(F(1, 2), [0], F(3, 2))
    # True passed as the int 1 and failed deep in the power search
    with pytest.raises(DomainError, match="^m_values must be positive integers$"):
        k_profile(F(1, 3), [True, 2], F(3, 2))


def test_edge_inputs():
    # x = 0 resolves every order (the all-zero cylinder shrinks onto 0)
    assert not k_of_m(F(0), 8, F(3, 2)).exceeded
    # x = 1 never resolves: the cylinder upper end stays strictly above 1,
    # while the closed last cell needs hi <= 1; a genuine boundary, not a cap
    # artifact, and the oracle agrees
    res = k_of_m(F(1), 1, F(3, 2), k_cap=200)
    assert res == KResult(200, True)
    assert oracles.cylinder_k(F(1), 1, F(3, 2), k_cap=200) is None


def test_scan_targets_floor():
    # below k_min = 4 the cylinder cannot fit an order-1 cell (kappa = 2)
    (m, cap, k_min) = scan_targets([1], F(3, 2))[0]
    assert (m, k_min) == (1, 4)
    assert cap == default_k_cap(1, F(3, 2))


def test_default_cap_value():
    assert default_k_cap(1, F(3, 2)) == 71


def test_uncertainty_interval_blocks_conversion():
    # gain known only to [3/2, 9/5]: a word starting 1,0,...,0 pins the
    # input no better than an interval of length >= 1/9, at any depth
    for m in (2, 8, 64):
        bits = [1] + [0] * (m - 1)
        iv = uncertainty_interval(bits, F(3, 2), F(9, 5))
        assert iv.lo == F(5, 9)
        assert iv.hi - iv.lo >= F(1, 9)


def test_uncertainty_interval_degenerate_range():
    # with the gain pinned, the interval is just the cylinder
    iv = uncertainty_interval([0, 0], F(3, 2), F(3, 2))
    assert iv == Interval(F(0), F(8, 9))


def test_uncertainty_interval_validation():
    with pytest.raises(DomainError):
        uncertainty_interval([], F(3, 2), F(9, 5))
    with pytest.raises(DomainError):
        uncertainty_interval([0], F(9, 5), F(3, 2))
    with pytest.raises(DomainError):
        uncertainty_interval([0, 2], F(3, 2), F(9, 5))


@given(unit_fractions)
@settings(max_examples=30)
def test_uncertainty_interval_contains_the_input(x):
    beta = F(8, 5)
    trace = encode(x, FixedBeta(beta), ConstantThreshold(1), 12)
    iv = uncertainty_interval(trace.bits, F(3, 2), F(9, 5))
    assert iv.lo <= x <= iv.hi


def test_transfer_rows_shape():
    rows = transfer_rows(F(1, 3), [4, 8], F(3, 2))
    assert [r["m"] for r in rows] == [4, 8]
    assert [r["k"] for r in rows] == [9, 16]
    assert rows[0]["x"] == "1/3"
    assert rows[0]["exceeded"] == 0
    # k - m * log(2)/log(beta) at 12 places; m=4 target is 6.83...
    assert rows[0]["deviation"].startswith("2.16")
    assert len(rows[0]["deviation"].split(".")[1]) == 12


def test_k_profile_refuses_a_gain_process_as_thresholds():
    # an AttributeError on threshold_range before roles were checked
    betas = IidSupportBetas((F(3, 2), F(8, 5)))
    with pytest.raises(ConfigurationError,
                       match="^expected a threshold process, got IidSupportBetas$"):
        k_profile(F(1, 3), (4,), F(3, 2), betas)
