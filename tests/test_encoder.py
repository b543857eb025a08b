import functools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from betaenc.encoder import (
    ConstantThreshold,
    ExplicitBetas,
    ExplicitThresholds,
    FixedBeta,
    IidSupportBetas,
    UniformBetas,
    UniformThresholds,
    _cylinders,
    _kernel_plan,
    _map_window,
    _stream_kernel,
    _window,
    apply_Tu,
    encode,
    encode_bits,
)
from betaenc.errors import ConfigurationError, DomainError
from betaenc.prng import SplitMix64

F = Fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=1 << 16)
small_betas = st.sampled_from([F(3, 2), F(8, 5), F(9, 5), F(4, 3), F(7, 4)])


def test_known_run_from_one_half():
    trace = encode(F(1, 2), FixedBeta(F(3, 2)), ConstantThreshold(1), 3)
    assert trace.bits == (0, 1, 0)
    assert trace.states == (F(3, 4), F(1, 8), F(3, 16))
    assert len(trace) == 3
    assert not trace.flagged
    assert trace.rng_info is None


def test_apply_Tu_below_threshold_keeps_amplifying():
    assert apply_Tu(F(1), F(3, 2), F(2)) == (0, F(3, 2))
    assert apply_Tu(F(3, 2), F(3, 2), F(2)) == (1, F(5, 4))


def test_apply_Tu_tie_fires():
    # exactly at threshold: the comparator reports 1
    assert apply_Tu(F(2, 3), F(3, 2), F(1)) == (1, F(0))


def test_apply_Tu_domain_checks():
    with pytest.raises(DomainError):
        apply_Tu(F(5, 2), F(3, 2), F(1))  # state above kappa = 2
    with pytest.raises(DomainError):
        apply_Tu(F(1, 2), F(3, 2), F(1, 2))  # threshold below 1
    with pytest.raises(DomainError):
        apply_Tu(F(1, 2), F(3, 2), F(5, 2))  # threshold above kappa


def test_encode_domain_and_config_errors():
    with pytest.raises(DomainError):
        encode(F(3, 2), FixedBeta(F(3, 2)), ConstantThreshold(1), 2)
    for n_steps in (0, True, 2.0):
        with pytest.raises(DomainError, match="n_steps"):
            encode(F(1, 2), FixedBeta(F(3, 2)), ConstantThreshold(1), n_steps)
    # u = 5/4 exceeds kappa = 1/(beta-1) only when beta = 9/5... no:
    # kappa(9/5) = 5/4 exactly, so 5/4 is legal there and 3/2 is not
    with pytest.raises(ConfigurationError):
        encode(F(1, 2), FixedBeta(F(9, 5)), ConstantThreshold(F(3, 2)), 2)
    encode(F(1, 2), FixedBeta(F(9, 5)), ConstantThreshold(F(5, 4)), 2)


def test_threshold_process_validation():
    with pytest.raises(ConfigurationError):
        ConstantThreshold(F(1, 2))
    with pytest.raises(ConfigurationError):
        UniformThresholds(F(1, 2), F(1))
    with pytest.raises(ConfigurationError):
        UniformThresholds(F(3, 2), F(5, 4))


def test_explicit_sequences_must_cover_run():
    betas = ExplicitBetas((F(3, 2), F(8, 5)))
    with pytest.raises(ConfigurationError):
        encode(F(1, 2), betas, ConstantThreshold(1), 3)
    trace = encode(F(1, 2), betas, ConstantThreshold(1), 2)
    assert trace.betas == (F(3, 2), F(8, 5))
    with pytest.raises(ConfigurationError, match="^explicit sequences must be non-empty$"):
        ExplicitBetas(())


def test_iid_support_prob_validation():
    with pytest.raises(ConfigurationError):
        IidSupportBetas((F(3, 2), F(8, 5)), (F(1, 2), F(1, 3)))
    with pytest.raises(ConfigurationError):
        IidSupportBetas((F(3, 2),), (F(1, 2), F(1, 2)))
    p = IidSupportBetas((F(3, 2), F(8, 5)))
    assert p.probs == (F(1, 2), F(1, 2))
    assert p.beta_range == (F(3, 2), F(8, 5))


def test_random_processes_need_an_rng():
    for process in (UniformBetas(F(3, 2), F(9, 5)), UniformThresholds(1, 2),
                    IidSupportBetas((F(3, 2), F(8, 5)))):
        with pytest.raises(ConfigurationError, match="process draws random values; pass rng=$"):
            process.realize(4)
        assert process.realize(4, SplitMix64(1)) == process.realize(4, SplitMix64(1))
    with pytest.raises(ConfigurationError, match="^threshold process draws random values"):
        encode(F(1, 2), FixedBeta(F(3, 2)), UniformThresholds(1, 2), 3)
    # a process is a law, with no stream of its own
    with pytest.raises(TypeError):
        UniformThresholds(1, 2, seed=3)
    with pytest.raises(TypeError):
        UniformBetas(F(3, 2), F(9, 5), precision_bits=8)
    with pytest.raises(TypeError):
        IidSupportBetas((F(3, 2), F(8, 5)), seed=5)


@pytest.mark.parametrize("betas, thresholds", [
    (UniformBetas(F(3, 2), F(9, 5)), ConstantThreshold(1)),
    (IidSupportBetas((F(3, 2), F(8, 5)), (F(1, 4), F(3, 4))), ConstantThreshold(1)),
    (FixedBeta(F(3, 2)), UniformThresholds(1, 2)),
    (UniformBetas(F(3, 2), F(9, 5)), UniformThresholds(F(1), F(5, 4))),
], ids=["uniform-gains", "iid-gains", "uniform-thresholds", "both"])
def test_encode_draws_each_role_from_its_child_of_the_callers_rng(betas, thresholds):
    rng = SplitMix64(3)
    trace = encode(F(1, 3), betas, thresholds, 12, rng=rng)
    assert trace.betas == betas.realize(12, SplitMix64(3).derive("betas"))
    assert trace.thresholds == thresholds.realize(12, SplitMix64(3).derive("thresholds"))
    assert trace.rng_info == {"prng": "splitmix64/v1", "ambient": rng.describe(),
                              "beta_seed": None, "threshold_seed": None}
    # the trace is a function of x0 and the realized sequences alone
    listed = encode(F(1, 3), ExplicitBetas(trace.betas), ExplicitThresholds(trace.thresholds), 12)
    assert listed == trace


def test_encode_records_rng_info_for_random_processes():
    trace = encode(
        F(1, 2),
        UniformBetas(F(3, 2), F(9, 5)),
        UniformThresholds(F(1), F(5, 4)),
        5,
        rng=SplitMix64(3),
    )
    assert trace.rng_info is not None
    assert trace.rng_info["prng"] == "splitmix64/v1"
    assert all(F(3, 2) <= b <= F(9, 5) for b in trace.betas)
    assert all(F(1) <= u <= F(5, 4) for u in trace.thresholds)
    # same ambient rng, same realization
    again = encode(
        F(1, 2),
        UniformBetas(F(3, 2), F(9, 5)),
        UniformThresholds(F(1), F(5, 4)),
        5,
        rng=SplitMix64(3),
    )
    assert again == trace


@given(unit_fractions, small_betas, st.integers(min_value=1, max_value=60))
def test_bits_match_definition_oracle(x0, beta, n):
    trace = encode(x0, FixedBeta(beta), ConstantThreshold(1), n)
    assert trace.bits == oracles.encoder_bits(x0, beta, [F(1)] * n, n)


@given(unit_fractions, small_betas, st.integers(min_value=1, max_value=200))
def test_encode_bits_fast_path_agrees(x0, beta, n):
    fast = encode_bits(x0, beta, F(1), n)
    assert isinstance(fast, np.ndarray) and fast.dtype == np.uint8
    slow = encode(x0, FixedBeta(beta), ConstantThreshold(1), n).bits
    assert tuple(int(b) for b in fast) == slow


@st.composite
def stream_cases(draw):
    """(x0, beta, u, n) for the blocked stream kernel, spread over its inputs."""
    x0 = draw(st.one_of(
        st.sampled_from([F(0), F(1)]),
        unit_fractions,
        st.integers(min_value=1, max_value=200).flatmap(
            lambda k: st.integers(min_value=0, max_value=1 << k).map(lambda a: F(a, 1 << k))),
        st.fractions(min_value=0, max_value=1, max_denominator=10**40),
    ))
    beta = draw(st.one_of(
        small_betas,
        st.integers(min_value=2, max_value=1 << 48).flatmap(
            lambda q: st.integers(min_value=q + 1, max_value=2 * q - 1).map(lambda p: F(p, q))),
    ))
    kappa = 1 / (beta - 1)
    frac = draw(st.one_of(st.sampled_from([F(0), F(1)]),
                          st.fractions(min_value=0, max_value=1, max_denominator=1 << 20)))
    u = 1 + (kappa - 1) * frac
    if draw(st.booleans()):
        # near tie: pull u/beta +- delta, closer to the threshold than a
        # 128-bit window resolves, back through random admissible steps
        delta = F(draw(st.sampled_from([-1, 1])), 3 << draw(st.integers(110, 150)))
        x = u / beta + delta
        for b in draw(st.lists(st.booleans(), max_size=150)):
            x = (x + 1) / beta if (b or x >= u) and x + 1 >= u else x / beta
        x0 = min(x, F(1))
    n = draw(st.integers(min_value=0, max_value=3000))
    return x0, beta, u, n


@given(stream_cases())
def test_encode_bits_matches_scaled_loop_oracle(case):
    x0, beta, u, n = case
    fast = encode_bits(x0, beta, u, n)
    assert fast.dtype == np.uint8 and fast.shape == (n,)
    assert tuple(int(b) for b in fast) == oracles.encoder_stream_scaled(x0, beta, u, n)


@given(stream_cases(), st.integers(min_value=1, max_value=24))
def test_stream_kernel_is_exact_with_narrow_windows(case, window_bits):
    # narrow windows straddle often and round at every step, so each
    # outward rounding and the exact fallback are exercised constantly
    x0, beta, u, n = case
    n = min(n, 600)
    bits, _ = _stream_kernel(x0, beta, u, n, window_bits)
    assert tuple(int(b) for b in bits) == oracles.encoder_stream_scaled(x0, beta, u, n)


def test_stream_kernel_sweep_of_small_gains_and_windows():
    # a rounding slip in the interval steps shows only when the threshold
    # falls in a sliver below one window unit; small p/q, u on a 1/8 grid
    # and 1..10-bit windows hit such slivers often enough to expose it
    rnd = random.Random(2024)
    for q in range(2, 13):
        for p in range(q + 1, 2 * q):
            beta = F(p, q)
            kappa = 1 / (beta - 1)
            for eighths in range(9):
                u = 1 + (kappa - 1) * F(eighths, 8)
                for window_bits in range(1, 11):
                    x0 = F(rnd.randint(0, 1000), rnd.randint(1000, 3000))
                    bits, _ = _stream_kernel(x0, beta, u, 40, window_bits)
                    assert tuple(int(b) for b in bits) == \
                        oracles.encoder_stream_scaled(x0, beta, u, 40), (x0, beta, u, window_bits)


@pytest.mark.parametrize("x0, beta, u", [
    (F(2, 3), F(3, 2), F(1)),            # beta*x0 == u at the first step
    (F(4, 3) / F(8, 5), F(8, 5), F(4, 3)),   # x0 == u/beta, u inside (1, kappa)
    (F(5, 4) / F(9, 5), F(9, 5), F(5, 4)),   # x0 == u/beta, u == kappa
    (F(4, 9), F(3, 2), F(1)),            # the tie arrives at the second step
])
def test_stream_kernel_takes_exact_steps_on_ties(x0, beta, u):
    n = 400
    bits, counts = _stream_kernel(x0, beta, u, n)
    assert tuple(int(b) for b in bits) == oracles.encoder_stream_scaled(x0, beta, u, n)
    assert counts.fallbacks > 0


def test_stream_kernel_needs_no_exact_steps_on_a_dyadic_orbit():
    x0 = F(SplitMix64(7).derive("x0").odd_dyadic(64))
    n = 5000
    bits, counts = _stream_kernel(x0, F(3, 2), F(1), n)
    assert counts.fallbacks == 0
    assert tuple(int(b) for b in bits) == oracles.encoder_stream_scaled(x0, F(3, 2), 1, n)


def _commit_bound(beta, u, n, W, counts):
    """A/D takes one commit per mid span, plus at most one per fallback."""
    k_mid = _kernel_plan(beta, u, W).k_mid
    return counts.commits <= -(-n // k_mid) + counts.fallbacks


@given(stream_cases(), st.integers(min_value=1, max_value=24),
       st.integers(min_value=1000, max_value=5000))
@settings(max_examples=60)
def test_table_kernel_matches_the_blocked_and_scaled_oracles(case, window_bits, n):
    # narrow windows over long streams: the table misses, the mid window
    # commits every few hundred bits and straddles take exact steps
    x0, beta, u, _ = case
    bits, counts = _stream_kernel(x0, beta, u, n, window_bits)
    assert bits.dtype == np.uint8 and bits.shape == (n,)
    blocked, _ = oracles.stream_kernel_blocked(x0, beta, u, n, window_bits)
    assert tuple(bits.tolist()) == blocked == oracles.encoder_stream_scaled(x0, beta, u, n)
    assert _commit_bound(beta, u, n, window_bits, counts)


@given(st.integers(min_value=-(1 << 40), max_value=1 << 40), st.integers(min_value=0, max_value=1 << 20),
       st.integers(min_value=2, max_value=1 << 30), st.integers(min_value=1, max_value=1 << 30),
       st.integers(min_value=0, max_value=1 << 50))
def test_mid_window_step_keeps_the_image(lo, w, P, Q, off):
    new_lo, new_w = _map_window(lo, w, P, Q, off)
    assert new_lo <= F(P * lo - off, Q) and F(P * (lo + w) - off, Q) <= new_lo + new_w


def test_narrow_windows_reach_every_kernel_path():
    n = 5000
    for x0, beta, u, window_bits in [
        (F(5, 17), F(3, 2), F(1), 4),
        (F(4, 3) / F(8, 5), F(8, 5), F(4, 3), 6),
        (F(1, 3), F(9, 5), F(5, 4), 8),
    ]:
        bits, counts = _stream_kernel(x0, beta, u, n, window_bits)
        assert tuple(bits.tolist()) == oracles.encoder_stream_scaled(x0, beta, u, n)
        assert 0 < counts.fallbacks < n and counts.commits > 0
        assert _commit_bound(beta, u, n, window_bits, counts)


@pytest.mark.parametrize("beta, u, window_bits", [
    (F(3, 2), F(1), 256),
    (F(8, 5), F(4, 3), 24),
    (F(9, 5), F(5, 4), 8),
    (F(7, 4), F(4, 3), 1),
    (F(2**40 + 1, 2**40), F(2**39), 256),
])
def test_cylinder_table_tiles_the_state_range(beta, u, window_bits):
    plan = _kernel_plan(beta, u, window_bits)
    K, bounds, words, offsets, scaled = plan.K, plan.bounds, plan.words, plan.offsets, plan.scaled
    kappa = 1 / (beta - 1)
    leaves = oracles.cylinder_table_fraction(beta, u, K)
    assert len(words) == len(offsets) == len(scaled) == len(bounds) == len(leaves)
    assert leaves[0][1] == 0 and leaves[-1][2] == kappa
    assert all(a[2] == b[1] for a, b in zip(leaves, leaves[1:]))
    scale = 1 << window_bits
    for i, (word, lo, hi, slope, shift) in enumerate(leaves):
        if i:
            assert bounds[i - 1] == -(-lo.numerator * scale // lo.denominator)
        assert words[i] == bytes(int(c) for c in format(word, f"0{K}b"))
        assert slope == beta**K and offsets[i] == shift * beta.denominator**K
        assert scaled[i] == offsets[i] * scale
        # both ends: the run from lo, and the left limit of the runs at hi
        for x, tie_bit in ((lo, 1), (hi, 0)):
            run_bits, state = oracles.encoder_run(x, beta, u, K, tie_bit)
            assert bytes(run_bits) == words[i]
            assert state == beta**K * x - F(offsets[i], beta.denominator**K)
    assert bounds[-1] > kappa * scale


_fraction_table = functools.lru_cache(maxsize=None)(oracles.cylinder_table_fraction)


@given(st.one_of(st.sampled_from([F(0), F(1), F(2, 3)]), unit_fractions,
                 st.fractions(min_value=0, max_value=1, max_denominator=10**40)),
       small_betas, st.sampled_from(["one", "kappa", "inside"]),
       st.integers(min_value=1, max_value=256))
@settings(max_examples=150, deadline=None)
def test_cylinder_walk_spells_the_bits_and_stops_at_the_first_straddle(x, beta, where,
                                                                        window_bits):
    kappa = 1 / (beta - 1)
    u = {"one": F(1), "kappa": kappa, "inside": 1 + (kappa - 1) * F(5, 7)}[where]
    plan = _kernel_plan(beta, u, window_bits)
    table = _fraction_table(beta, u, plan.K)
    scale = 1 << window_bits
    lows = [lo for _, lo, *_ in table]

    def cylinder_of(end):
        # the first cylinder is open below and the last one above
        return max(bisect_right(lows, F(end, scale)) - 1, 0)

    lo, w = _window(x.numerator, x.denominator, window_bits)
    hi = lo + w
    walk = _cylinders(plan, lo, hi)
    word_bits = []
    for _ in range(64):
        c = cylinder_of(lo)
        if cylinder_of(hi) != c:
            assert next(walk, None) is None, "the walk passed a straddle"
            break
        assert next(walk) == c
        word, _, _, slope, shift = table[c]
        word_bits += [int(b) for b in format(word, f"0{plan.K}b")]
        # the window's image under the cylinder's map, rounded outward
        lo = math.floor(slope * lo - shift * scale)
        hi = math.ceil(slope * hi - shift * scale)
    if word_bits:
        n = len(word_bits)
        assert tuple(word_bits) == encode(x, FixedBeta(beta), ConstantThreshold(u), n).bits


def _thresholds_at_one_kappa_and_inside(beta):
    kappa = 1 / (beta - 1)
    return [(beta, F(1)), (beta, kappa), (beta, 1 + (kappa - 1) * F(5, 7))]


@pytest.mark.parametrize("beta, u", [
    *(case for beta in (F(3, 2), F(9, 5), F(7, 5), F(8, 5), F(5, 3), F(7, 4), F(4, 3),
                        F(11, 10), F(2**40 + 1, 2**40))
      for case in _thresholds_at_one_kappa_and_inside(beta)),
    # from depth 2 on, splits land exactly on a node's upper end (6/5, 12/7)
    # or lower end (9/5, 16/7, i.e. beta**2/(beta**2 - 1)): no empty cylinder
    (F(3, 2), F(6, 5)), (F(3, 2), F(9, 5)), (F(4, 3), F(12, 7)), (F(4, 3), F(16, 7)),
])
@pytest.mark.parametrize("window_bits", [256, 8])
def test_integer_walk_builds_the_fraction_walk_table(beta, u, window_bits):
    plan = _kernel_plan(beta, u, window_bits)
    leaves = oracles.cylinder_table_fraction(beta, u, plan.K)
    scale, qK = 1 << window_bits, beta.denominator**plan.K
    assert plan.bounds[:-1] == tuple(-(-lo.numerator * scale // lo.denominator)
                                     for _, lo, _, _, _ in leaves[1:])
    assert plan.words == tuple(bytes(int(c) for c in format(word, f"0{plan.K}b"))
                               for word, *_ in leaves)
    assert plan.offsets == tuple(shift * qK for *_, shift in leaves)
    assert plan.scaled == tuple(o * scale for o in plan.offsets)
    assert plan.PK == beta.numerator**plan.K and plan.QK == qK


def test_stream_kernel_counts_its_steps():
    n = 5000
    x0 = F(SplitMix64(7).derive("x0").odd_dyadic(64))
    bits, counts = _stream_kernel(x0, F(3, 2), F(1), n)
    assert counts.fallbacks == 0
    assert 0 < counts.commits <= -(-n // _kernel_plan(F(3, 2), F(1), 256).k_mid)
    ties = [(F(2, 3), F(3, 2), F(1)), (F(4, 3) / F(8, 5), F(8, 5), F(4, 3)),
            (F(5, 4) / F(9, 5), F(9, 5), F(5, 4)), (F(4, 9), F(3, 2), F(1))]
    for x0, beta, u in ties:
        bits, counts = _stream_kernel(x0, beta, u, n)
        assert tuple(bits.tolist()) == oracles.encoder_stream_scaled(x0, beta, u, n)
        assert counts.fallbacks > 0
        assert _commit_bound(beta, u, n, 256, counts)
    assert "commits=" in repr(counts) and isinstance(encode_bits(x0, beta, u, n), np.ndarray)


@pytest.mark.parametrize("x0, beta, u", [
    (F(5, 17), F(3, 2), F(1)), (F(5, 17), F(3, 2), F(2)),
    (F(1, 3), F(9, 5), F(1)), (F(1, 3), F(9, 5), F(5, 4)),
    (F(2, 7), F(7, 4), F(1)), (F(2, 7), F(7, 4), F(4, 3)),
    (F(4, 9), F(3, 2), F(1)),  # the tie arrives at the second step
])
def test_encode_bits_decides_the_tail_from_the_table(x0, beta, u):
    # every length up to three whole words: the last n mod K bits are the
    # first bits of a table word, written whole and cut off on return
    K = _kernel_plan(beta, u, 256).K
    for n in range(3 * K + 1):
        bits = encode_bits(x0, beta, u, n)
        assert bits.shape == (n,)
        assert tuple(bits.tolist()) == oracles.encoder_stream_scaled(x0, beta, u, n), n
        want = encode(x0, FixedBeta(beta), ConstantThreshold(u), n).bits if n else ()
        for window_bits in (256, 8):
            kernel_bits, _ = _stream_kernel(x0, beta, u, n, window_bits)
            assert tuple(kernel_bits.tolist()) == want, (n, window_bits)


@pytest.mark.parametrize("beta", [F(2**40 + 1, 2**40), F(2**48 + 1, 2**48)])
def test_encode_bits_with_gains_next_to_one(beta):
    # the block and mid spans stop at W and 16 W steps, so the kernel never
    # asks least_power_at_least for a power past its refusal limit
    kappa = 1 / (beta - 1)
    n = 3000
    for x0, u in [(F(1, 3), F(1)), (F(1), F(1)), (beta ** -2000, F(1)),
                  (F(1), (1 + kappa) / 2), (F(1, 3), kappa)]:
        bits = encode_bits(x0, beta, u, n)
        assert tuple(bits.tolist()) == oracles.encoder_stream_scaled(x0, beta, u, n)


@given(unit_fractions, small_betas, st.integers(min_value=1, max_value=40))
def test_reconstruction_identity(x0, beta, n):
    trace = encode(x0, FixedBeta(beta), ConstantThreshold(1), n)
    for i in range(1, n + 1):
        partial = oracles.reconstruct_partial(trace, i)
        assert partial + trace.states[i - 1] / beta**i == x0


def test_reconstruction_worked_example():
    # after two steps from 1/2: bits (0,1), so sum = beta^-2 = 4/9 and the
    # state term is (1/8) * 4/9 = 1/18; together they give back 1/2
    trace = encode(F(1, 2), FixedBeta(F(3, 2)), ConstantThreshold(1), 2)
    assert oracles.reconstruct_partial(trace, 2) == F(4, 9)
    assert F(4, 9) + trace.states[1] * F(4, 9) == F(1, 2)


def test_state_bound_invariant_under_max_threshold():
    # thresholds at the top of the admissible band keep states in [0, kappa]
    kappa = F(2)
    trace = encode(F(1), FixedBeta(F(3, 2)), ConstantThreshold(kappa), 64)
    assert all(0 <= s <= kappa for s in trace.states)


def test_float_mode_tracks_near_ties():
    trace = encode(F(1, 3), FixedBeta(F(3, 2)), ConstantThreshold(1), 30, float_bits=8)
    assert trace.near_ties is not None
    assert len(trace.near_ties) == 30
    doc = trace.to_json()
    assert doc["mode"] == "float-fast"
    assert doc["float_bits"] == 8


def test_float_mode_agrees_with_exact_away_from_ties():
    # 53-bit emulation on a short clean orbit reproduces the exact bits
    exact = encode(F(1, 3), FixedBeta(F(3, 2)), ConstantThreshold(1), 40)
    emulated = encode(F(1, 3), FixedBeta(F(3, 2)), ConstantThreshold(1), 40, float_bits=53)
    if not emulated.flagged:
        assert emulated.bits == exact.bits


def test_float_mode_needs_at_least_four_mantissa_bits():
    for float_bits in (2, 3, 0, True, 4.0, "8"):
        with pytest.raises(DomainError, match="at least 4 mantissa bits"):
            encode(F(1, 3), FixedBeta(F(3, 2)), ConstantThreshold(1), 3, float_bits=float_bits)


def test_trace_json_shape():
    doc = encode(F(1, 2), FixedBeta(F(3, 2)), ConstantThreshold(1), 3).to_json()
    assert doc["bits"] == "010"
    assert doc["x0"] == "1/2"
    assert doc["states"] == ["3/4", "1/8", "3/16"]
    assert doc["mode"] == "exact"
    assert "near_ties" not in doc


def test_encode_bits_input_validation():
    with pytest.raises(DomainError):
        encode_bits(F(3, 2), F(3, 2), F(1), 4)
    with pytest.raises(DomainError):
        encode_bits(F(1, 2), F(3, 2), F(5, 2), 4)  # u above kappa
    for n_bits in (10.0, True, "3", -1):
        with pytest.raises(DomainError, match="n_bits"):
            encode_bits(F(1, 3), F(3, 2), 1, n_bits)


# one instance of each process kind, with its frozen repr and JSON
FROZEN_PROCESSES = [
    (FixedBeta(F(3, 2)),
     "FixedBeta(value=Fraction(3, 2))",
     {"kind": "fixed", "beta": "3/2"}),
    (ExplicitBetas((F(3, 2), F(8, 5))),
     "ExplicitBetas(values=(Fraction(3, 2), Fraction(8, 5)))",
     {"kind": "explicit", "betas": ["3/2", "8/5"]}),
    (IidSupportBetas((F(3, 2), F(8, 5)), (F(1, 4), F(3, 4))),
     "IidSupportBetas(values=(Fraction(3, 2), Fraction(8, 5)), "
     "probs=(Fraction(1, 4), Fraction(3, 4)))",
     {"kind": "iid-support", "values": ["3/2", "8/5"], "probs": ["1/4", "3/4"], "seed": None}),
    (UniformBetas(F(3, 2), F(9, 5)),
     "UniformBetas(lo=Fraction(3, 2), hi=Fraction(9, 5))",
     {"kind": "uniform", "lo": "3/2", "hi": "9/5", "seed": None, "precision_bits": 64}),
    (ConstantThreshold(F(3, 2)),
     "ConstantThreshold(value=Fraction(3, 2))",
     {"kind": "constant", "u": "3/2"}),
    (ExplicitThresholds((1, F(5, 4))),
     "ExplicitThresholds(values=(Fraction(1, 1), Fraction(5, 4)))",
     {"kind": "explicit", "us": ["1/1", "5/4"]}),
    (UniformThresholds(1, F(5, 4)),
     "UniformThresholds(lo=Fraction(1, 1), hi=Fraction(5, 4))",
     {"kind": "uniform", "lo": "1/1", "hi": "5/4", "seed": None, "precision_bits": 64}),
]


@pytest.mark.parametrize("process, text, doc", FROZEN_PROCESSES)
def test_process_repr_and_json_are_frozen(process, text, doc):
    assert repr(process) == text
    assert process.to_json() == doc
    assert process == type(process)(*[getattr(process, f) for f in process.__dataclass_fields__])


def test_process_kinds_never_compare_equal():
    kinds = [process for process, _, _ in FROZEN_PROCESSES]
    kinds += [FixedBeta(F(5, 4)), ConstantThreshold(F(5, 4)),
              ExplicitBetas((F(5, 4),)), ExplicitThresholds((F(5, 4),)),
              UniformBetas(F(5, 4), F(5, 4)), UniformThresholds(F(5, 4), F(5, 4))]
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            assert (a == b) == (i == j), (a, b)
    assert FixedBeta(F(3, 2)) != ConstantThreshold(F(3, 2))
    assert UniformBetas(F(5, 4), F(5, 4)) != UniformThresholds(F(5, 4), F(5, 4))


def test_process_roles_and_draws_are_frozen():
    gains, thresholds = FROZEN_PROCESSES[:4], FROZEN_PROCESSES[4:]
    assert [p.is_random for p, _, _ in FROZEN_PROCESSES] == [
        False, False, True, True, False, False, True]
    assert [p.beta_range for p, _, _ in gains] == [
        (F(3, 2), F(3, 2)), (F(3, 2), F(8, 5)), (F(3, 2), F(8, 5)), (F(3, 2), F(9, 5))]
    assert [p.threshold_range for p, _, _ in thresholds] == [
        (F(3, 2), F(3, 2)), (F(1), F(5, 4)), (F(1), F(5, 4))]
    # draws from the streams that process seeds 5 and 1 once named; the
    # 8-bit uniform draws frozen then have these draws' odd numerators mod
    # 2**8 (843/512 = 3/2 + 3/10 * 125/256, and 288883583522393619063 =
    # 15 << 64 + 3 * odd with odd = 125 mod 2**8)
    assert gains[2][0].realize(3, SplitMix64(5).derive("gain")) == (F(3, 2), F(8, 5), F(8, 5))
    assert gains[3][0].realize(3, SplitMix64(1).derive("gain")) == (
        F(288883583522393619063, 10 << 64), F(317991058324850521539, 10 << 64),
        F(294230503156355081169, 10 << 64))
    assert thresholds[2][0].realize(3, SplitMix64(1).derive("threshold")) == (
        F(77668969651164775813, 1 << 66), F(86628765258303815945, 1 << 66),
        F(83445348280168100995, 1 << 66))


# (role, lo, hi): lo == hi, non-dyadic endpoints, and the lochs range [1, kappa]
UNIFORM_CASES = [
    (UniformBetas, F(7, 6), F(5, 4)),
    (UniformBetas, F(5, 4), F(5, 4)),
    (UniformBetas, F(3, 2), F(9, 5)),
    (UniformThresholds, F(7, 6), F(5, 4)),
    (UniformThresholds, F(1), F(5, 4)),
    (UniformThresholds, F(5, 4), F(5, 4)),
    (UniformThresholds, F(1), F(2)),
    (UniformThresholds, F(1), F(10, 3)),
]


@given(
    st.sampled_from(UNIFORM_CASES),
    st.lists(st.integers(min_value=0, max_value=70), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_uniform_integer_draws_match_the_fraction_oracle(case, chunks, seed):
    role, lo, hi = case
    process = role(lo, hi)
    span = hi - lo
    den = lo.denominator * span.denominator << 64
    expected = oracles.uniform_draws(lo, hi, 64, SplitMix64(seed), sum(chunks))
    # chunked draws from one stream continue each other, whatever the chunk sizes
    rng = SplitMix64(seed)
    pairs = [pair for n in chunks for pair in process.scaled(n, rng)]
    assert all(d == den for _, d in pairs)
    assert tuple(F(r, d) for r, d in pairs) == expected
    rng = SplitMix64(seed)
    assert tuple(v for n in chunks for v in process.realize(n, rng)) == expected


def test_encode_refuses_processes_in_the_wrong_role():
    # swapped roles raised an AttributeError on beta_range before roles were checked
    with pytest.raises(ConfigurationError, match="^expected a gain process, got ConstantThreshold$"):
        encode(F(1, 3), ConstantThreshold(1), FixedBeta(F(3, 2)), 4)
    with pytest.raises(ConfigurationError, match="^expected a threshold process, got FixedBeta$"):
        encode(F(1, 3), FixedBeta(F(3, 2)), FixedBeta(F(3, 2)), 4)
