import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from betaenc import extract
from betaenc.bitio import word_to_bits
from betaenc.encoder import encode_bits
from betaenc.entropy import WordDistribution
from betaenc.errors import ConfigurationError, DomainError, ResourceBudgetError
from betaenc.extract import (
    TWO_SOURCE_WARNING,
    PipelineConfig,
    SeededExtractor,
    adversarial_source,
    entropy_budget_ok,
    flat_avg_seed_tv,
    flat_source_family,
    leftover_hash_bound_ok,
    max_extractable_bits,
    pipeline_extract,
    required_block_length,
    subcube_supports,
    two_source_bound_ok,
    two_source_tv,
)
from betaenc.prng import SplitMix64

F = Fraction


def test_distribution_constructors():
    u = WordDistribution.uniform(2)
    assert u.prob(3) == F(1, 4)
    point = oracles.point_mass(5, 3)
    assert point.prob(5) == 1 and point.prob(0) == 0
    flat = WordDistribution.flat([3, 1], 2)
    assert flat.entries == {1: F(1, 2), 3: F(1, 2)}
    with pytest.raises(ConfigurationError):
        WordDistribution.flat([], 2)
    # the flat-support rule of flat_avg_seed_tv and two_source_tv; [3, 1, 3]
    # dropped the repeat and [1.7] became the point mass on 1
    for support, m in (([3, 1, 3], 2), ([1.7], 2), (["3"], 2), ([True], 1), ([4], 2)):
        with pytest.raises(DomainError):
            WordDistribution.flat(support, m)
    with pytest.raises(ConfigurationError, match="^a word law needs at least one word$"):
        WordDistribution(2, {})
    with pytest.raises(ConfigurationError, match="^word 2 does not fit in 1 bits$"):
        WordDistribution(1, {2: 1})


def test_min_entropy_predicate():
    assert WordDistribution.uniform(3).min_entropy_at_least(3)
    assert not WordDistribution.uniform(3).min_entropy_at_least(F(31, 10))
    assert WordDistribution.flat(range(4), 4).min_entropy_at_least(2)


def test_tv_basics():
    u = WordDistribution.uniform(2)
    point = oracles.point_mass(0, 2)
    assert oracles.tv_from_uniform(point) == F(3, 4)
    assert oracles.tv_from_uniform(u) == 0


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=40)
def test_tv_matches_direct_oracle(n, data):
    words = 1 << n
    weights = data.draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=words, max_size=words)
    )
    dist = WordDistribution(n, {w: c for w, c in enumerate(weights) if c} or {0: 1})
    full = {w: dist.prob(w) for w in range(words)}
    uniform = {w: F(1, words) for w in range(words)}
    assert oracles.tv_from_uniform(dist) == oracles.tv_direct(full, uniform)


def test_adversarial_source_parity():
    def parity(bits):
        return sum(bits) & 1

    src = adversarial_source(parity, 2)
    # even-parity class: {00, 11}
    assert src.entries == {0: F(1, 2), 3: F(1, 2)}
    assert src.min_entropy_at_least(1)
    # the extractor is constant on the support, so its output is a point mass
    out = {parity(word_to_bits(w, 2)) for w in src.entries}
    assert len(out) == 1
    assert oracles.tv_from_uniform(oracles.point_mass(out.pop(), 1)) == F(1, 2)


def test_adversarial_source_first_bit():
    src = adversarial_source(lambda bits: bits[0], 2)
    assert src.entries == {0: F(1, 2), 1: F(1, 2)}


def test_adversarial_source_validation():
    with pytest.raises(ResourceBudgetError):
        adversarial_source(lambda bits: 0, 25)
    with pytest.raises(DomainError):
        adversarial_source(lambda bits: 2, 3)


def test_extractor_shape_and_validation():
    ext = SeededExtractor(4, 2)
    assert ext.d == 5
    assert ext.to_json() == {"kind": "toeplitz", "m": 4, "n": 2, "d": 5}
    with pytest.raises(ConfigurationError):
        SeededExtractor(4, 5)
    with pytest.raises(ConfigurationError):
        SeededExtractor(4, 0)
    with pytest.raises(DomainError):
        ext.apply(16, 0)
    with pytest.raises(DomainError):
        ext.apply(0, 32)


def test_extractor_refuses_a_float_width():
    # accepted before with d == 5.0; apply then raised TypeError on 1 << 4.0
    with pytest.raises(ConfigurationError, match="^m must be a positive integer, got 4.0$"):
        SeededExtractor(4.0, 2)


def test_extractor_refuses_bool_widths():
    # accepted before and recorded as {"m": true, "n": true, "d": 1}
    with pytest.raises(ConfigurationError, match="^m must be a positive integer, got True$"):
        SeededExtractor(True, True)


def test_two_by_one_hash_is_the_inner_product():
    # m=2, n=1: y = z1*x1 xor z2*x2 with everything written MSB-first
    ext = SeededExtractor(2, 1)
    for x in range(4):
        x1, x2 = (x >> 1) & 1, x & 1
        for z in range(4):
            z1, z2 = (z >> 1) & 1, z & 1
            assert ext.apply(x, z) == ((z1 & x1) ^ (z2 & x2))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=60)
def test_hash_matches_matrix_oracle(m, n, data):
    if n > m:
        m, n = n, m
    d = m + n - 1
    x = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    z = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    ext = SeededExtractor(m, n)
    x_bits = word_to_bits(x, m)
    z_bits = word_to_bits(z, d)
    assert word_to_bits(ext.apply(x, z), n) == oracles.toeplitz_apply(x_bits, z_bits, n)


@given(st.data())
@settings(max_examples=40)
def test_hash_is_linear_in_the_input(data):
    m, n = 6, 3
    ext = SeededExtractor(m, n)
    x = data.draw(st.integers(min_value=0, max_value=63))
    x2 = data.draw(st.integers(min_value=0, max_value=63))
    z = data.draw(st.integers(min_value=0, max_value=(1 << ext.d) - 1))
    assert ext.apply(x ^ x2, z) == ext.apply(x, z) ^ ext.apply(x2, z)
    assert ext.apply(0, z) == 0


def test_average_tv_frozen_prefix_case():
    source = WordDistribution.flat(range(4), 4)
    slow = oracles.avg_seed_tv_per_seed(source, 2)
    assert slow == F(9, 32)
    fast = flat_avg_seed_tv(4, 2, [tuple(range(4))])
    assert fast == [F(9, 32)]


def test_fast_harness_agrees_with_slow_path():
    supports = [(0, 1, 2, 3), (0, 3, 5, 6), (1, 2, 4, 8), (0, 5, 10, 15)]
    for n in (1, 2):
        fast = flat_avg_seed_tv(4, n, supports)
        for sup, tv in zip(supports, fast):
            assert tv == oracles.avg_seed_tv_per_seed(WordDistribution.flat(sup, 4), n)


def test_every_tiny_flat_source_obeys_the_hash_bound():
    # all C(16,4) = 1820 flat (4,2)-sources, both output widths, exactly
    supports = list(oracles.all_flat_sources(4, 2))
    assert len(supports) == 1820
    for n in (1, 2):
        for tv in flat_avg_seed_tv(4, n, supports):
            assert leftover_hash_bound_ok(tv, n, 2)


def test_every_tiny_flat_source_matches_the_table_oracle():
    supports = list(oracles.all_flat_sources(4, 2))
    for n in (1, 2, 3, 4):
        assert flat_avg_seed_tv(4, n, supports) == oracles.flat_avg_seed_tv_table(4, n, supports)


@st.composite
def flat_cases(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=m))
    support = st.sets(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1)
    return m, n, draw(st.lists(support, min_size=1, max_size=5))


@given(flat_cases())
@settings(max_examples=80, deadline=None)
def test_walsh_path_matches_the_oracles(case):
    m, n, supports = case
    fast = flat_avg_seed_tv(m, n, supports)
    assert fast == oracles.flat_avg_seed_tv_table(m, n, supports)
    if m + n - 1 <= 7:
        for support, tv in zip(supports, fast):
            assert tv == oracles.avg_seed_tv_per_seed(WordDistribution.flat(support, m), n)


def test_walsh_path_on_uneven_support_sizes():
    m = 6
    rng = np.random.default_rng(6)
    supports = [(37,), (0, 63), tuple(range(3)), tuple(range(64)), tuple(range(1, 64)),
                tuple(sorted(rng.choice(64, 37, replace=False).tolist()))]
    for n in range(1, m + 1):
        fast = flat_avg_seed_tv(m, n, supports)
        assert fast == oracles.flat_avg_seed_tv_table(m, n, supports)
        # a point mass sits at 1 - 2**-n from uniform whatever the seed
        assert fast[0] == 1 - F(1, 1 << n)
        if n <= 2:
            for support, tv in zip(supports, fast):
                assert tv == oracles.avg_seed_tv_per_seed(WordDistribution.flat(support, m), n)


def test_walsh_path_batch_boundaries_and_generators():
    # the batch sizes are read from the code, so the family crosses one
    # transform batch and many gather sub-batches whatever they are
    m, n = 8, 3
    per_batch, per_gather = extract._batch_sizes(m, n)
    assert per_batch > per_gather > 1 and per_batch % per_gather == 0
    rng = np.random.default_rng(8)
    supports = [tuple(rng.choice(256, int(size), replace=False).tolist())
                for size in rng.integers(1, 257, size=per_batch + per_gather // 2)]
    expected = oracles.flat_avg_seed_tv_table(m, n, supports)
    assert flat_avg_seed_tv(m, n, []) == []
    assert flat_avg_seed_tv(m, n, supports[:1]) == expected[:1]
    assert flat_avg_seed_tv(m, n, supports[:per_gather + 1]) == expected[:per_gather + 1]
    assert flat_avg_seed_tv(m, n, supports) == expected
    assert flat_avg_seed_tv(m, n, (s for s in supports)) == expected
    tiny = list(oracles.all_flat_sources(4, 2))
    assert flat_avg_seed_tv(4, 2, oracles.all_flat_sources(4, 2)) == flat_avg_seed_tv(4, 2, tiny)


def test_walsh_path_matches_the_batched_oracle_on_the_criterion_family():
    supports = flat_source_family(10, 6, 0)
    for n in (1, 2):
        assert flat_avg_seed_tv(10, n, supports) == oracles.flat_avg_seed_tv_batched(10, n, supports)
    # n = 3 and 4 on every 7th support: runs of subcubes and the random ones
    sample = supports[::7] + supports[-16:]
    for n in (3, 4):
        expected = oracles.flat_avg_seed_tv_batched(10, n, sample)
        assert flat_avg_seed_tv(10, n, sample) == expected
        assert oracles.flat_avg_seed_tv_gather(10, n, sample[::9]) == expected[::9]


@st.composite
def random_families(draw):
    m = draw(st.integers(min_value=1, max_value=14))
    n = draw(st.integers(min_value=1, max_value=min(4, m, 17 - m)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    count = draw(st.integers(min_value=1, max_value=12))
    return m, n, seed, count


@given(random_families())
@settings(max_examples=40, deadline=None)
def test_walsh_path_matches_the_batched_oracle_on_random_families(case):
    m, n, seed, count = case
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, (1 << m) + 1, size=count)
    supports = [tuple(rng.choice(1 << m, int(size), replace=False).tolist()) for size in sizes]
    assert flat_avg_seed_tv(m, n, supports) == oracles.flat_avg_seed_tv_batched(m, n, supports)


def test_walsh_path_on_each_side_of_the_int8_bound():
    # |S| <= 127 transforms in int8, 128 in int16; the full supports reach
    # S^(0) = |S|, and a random one of each size mixes signs
    rng = np.random.default_rng(127)
    cases = [tuple(range(size)) for size in (127, 128)]
    cases += [tuple(sorted(rng.choice(256, size, replace=False).tolist())) for size in (127, 128)]
    for n in (1, 2):
        for support in cases:
            assert flat_avg_seed_tv(8, n, [support]) == oracles.flat_avg_seed_tv_gather(8, n, [support])
        # one 128-word support puts a batch of small ones into int16
        mixed = [(3,), cases[2], (0, 255), cases[1], tuple(range(0, 256, 9))]
        expected = oracles.flat_avg_seed_tv_gather(8, n, mixed)
        assert flat_avg_seed_tv(8, n, mixed) == expected
        # uint8 words once wrapped the duplicate keys: 255 + 1 == 0 refused this family
        assert flat_avg_seed_tv(8, n, [np.array(s, dtype=np.uint8) for s in mixed]) == expected


def test_walsh_path_reuses_its_buffers_and_converts_per_batch():
    # the parent's peaks on this family were 1 062 KiB at n = 1 and
    # 1 926 KiB at n = 2; converting the whole family at once (216 064
    # words, 1.7 MB as int64 alone) or a fresh block per sub-batch
    # passes them
    family = flat_source_family(10, 6, 0)
    flat_avg_seed_tv(10, 2, family[:1])
    for n, limit in ((1, 1062 << 10), (2, 1926 << 10)):
        tracemalloc.start()
        try:
            flat_avg_seed_tv(10, n, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (n, peak)


def test_gather_oracle_agrees_with_the_table_oracle():
    supports = [(3,), (0, 5, 9), tuple(range(0, 64, 3)), tuple(range(64))]
    for n in range(1, 7):
        expected = oracles.flat_avg_seed_tv_table(6, n, supports)
        assert oracles.flat_avg_seed_tv_gather(6, n, supports) == expected


@pytest.mark.parametrize("m", [12, 14])
def test_walsh_path_matches_the_gather_oracle_past_the_table(m):
    rng = np.random.default_rng(m)
    supports = [(0,), tuple(range(1 << (m - 1))), tuple(range(0, 1 << m, 5))]
    supports += [tuple(sorted(rng.choice(1 << m, int(size), replace=False).tolist()))
                 for size in (2, 37, 1000)]
    for n in (1, 2, 3):
        assert flat_avg_seed_tv(m, n, supports) == oracles.flat_avg_seed_tv_gather(m, n, supports)


def test_walsh_path_on_each_side_of_the_int16_bound():
    # 2**(n-1) * max |S| below 2**15 runs in int16, at 2**15 in int32; the
    # full supports reach the bound at seed z = 0, where every w[c, 0] is 0
    cases = [(8, n, tuple(range(size))) for n in (7, 8) for size in (255, 256)]
    cases += [(14, 3, tuple(range(size))) for size in ((1 << 13) - 1, 1 << 13)]
    for m, n, support in cases:
        assert flat_avg_seed_tv(m, n, [support]) == oracles.flat_avg_seed_tv_gather(m, n, [support])
    # at m = 14, n = 2 a batch holds two supports: one of 2**14 words puts
    # a small one beside it into int32
    supports = [tuple(range(1 << 14)), (7, 99), (1, 2, 3), tuple(range(0, 1 << 14, 2))]
    assert extract._GATHER_ENTRIES >> (14 + 1 + 2) == 2
    assert flat_avg_seed_tv(14, 2, supports) == oracles.flat_avg_seed_tv_gather(14, 2, supports)


def test_flat_supports_are_strict():
    with pytest.raises(DomainError):
        flat_avg_seed_tv(4, 1, [(-1, 0)])  # was read as word 15
    with pytest.raises(DomainError):
        flat_avg_seed_tv(4, 1, [(16, 0)])  # was a bare IndexError
    with pytest.raises(DomainError):
        flat_avg_seed_tv(4, 1, [(0, 0, 1)])  # was scored as a multiset
    with pytest.raises(DomainError):
        flat_avg_seed_tv(4, 1, [(0, 1), (2**70,)])
    with pytest.raises(DomainError):
        flat_avg_seed_tv(4, 1, [(0.5, 1)])
    # floats equal to an int too: an int64 conversion would truncate them
    for bad in ([(1.0, 2)], [(np.float64(3),)], [(0, 1), (2, np.float64(3))]):
        with pytest.raises(DomainError):
            flat_avg_seed_tv(4, 1, bad)
        with pytest.raises(DomainError):
            flat_avg_seed_tv(4, 2, bad)
        with pytest.raises(DomainError):
            WordDistribution.flat(bad[-1], 4)
        with pytest.raises(DomainError):
            two_source_tv(bad[-1], [1])
        with pytest.raises(DomainError):
            two_source_tv([1], bad[-1])
    # the same refusals through the other two callers
    for support in ((-1, 0), (16, 0), (0, 0, 1), (2**70,), (0.5, 1)):
        with pytest.raises(DomainError):
            WordDistribution.flat(support, 4)
    for support in ((-1,), (1 << 16,), (0, 0, 1), (2**70,), (0.5, 1)):
        with pytest.raises(DomainError):
            two_source_tv(support, [1])


def test_output_table_budget():
    with pytest.raises(ResourceBudgetError):
        flat_avg_seed_tv(15, 2, [(0, 1)])
    with pytest.raises(ResourceBudgetError):
        flat_avg_seed_tv(14, 4, [(0, 1)])
    # m = 14 with d = 16 is the largest table; a point mass gives 1 - 2**-n
    assert flat_avg_seed_tv(14, 3, [(12345,)]) == [F(7, 8)]
    with pytest.raises(ConfigurationError):
        flat_avg_seed_tv(4, 2, [()])


def test_subcube_supports_shape():
    cubes = subcube_supports(4, 2)
    assert len(cubes) == 24  # C(4,2) position choices * 2**2 assignments
    assert len(set(cubes)) == 24
    assert all(len(c) == 4 for c in cubes)
    assert (0, 1, 2, 3) in cubes  # free low bits, high bits fixed to 0


def test_flat_source_family_contents():
    family = flat_source_family(6, 3, seed=0)
    assert all(len(s) == 8 for s in family)
    assert family == sorted(family)
    assert tuple(range(8)) in family
    assert tuple(range(56, 64)) in family
    assert tuple(range(0, 64, 8)) in family
    # deterministic under the same seed
    assert family == flat_source_family(6, 3, seed=0)
    with pytest.raises(ConfigurationError):
        flat_source_family(2, 3)


@pytest.mark.parametrize("m, k, seed", [(m, k, seed) for m in range(1, 9) for k in range(m + 1)
                                         for seed in (0, 1, 5)] + [(10, 6, 0)])
def test_subcubes_and_family_match_the_per_bit_oracles(m, k, seed):
    assert subcube_supports(m, k) == oracles.subcube_supports(m, k)
    rng = SplitMix64(seed).derive("flat-family", m, k)
    assert flat_source_family(m, k, seed) == oracles.flat_source_family(m, k, rng)


@pytest.mark.parametrize("m, k", [(24, 12), (14, 7), (30, 0)])
def test_subcube_enumeration_past_the_budget_is_refused(m, k):
    # C(24, 12) * 2**24 is about 4e13 words and C(14, 7) * 2**14 about 5.6e7;
    # both were enumerated before, with no budget
    with pytest.raises(ResourceBudgetError, match=rf"^C\({m}, {k}\) \* 2\*\*{m} subcube words "
                       r"exceed the budget of 2\*\*24$"):
        subcube_supports(m, k)
    with pytest.raises(ResourceBudgetError):
        flat_source_family(m, k)


# each case raised a bare TypeError or ValueError, or was accepted, before
@pytest.mark.parametrize("call, message", [
    (lambda: adversarial_source(lambda bits: 0, 2.5), "m must be a positive integer, got 2.5"),
    (lambda: flat_source_family(4.0, 2), "m must be a positive integer, got 4.0"),
    (lambda: subcube_supports(3, 5), "need 0 <= k <= m, got k=5, m=3"),
    (lambda: subcube_supports(3, -1), "k must be a nonnegative integer, got -1"),
], ids=["adversarial-float-m", "family-float-m", "subcube-k-above-m", "subcube-negative-k"])
def test_source_counts_are_strict(call, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        call()


def test_inner_product_matches_oracle():
    for x in range(8):
        for y in range(8):
            expected = oracles.inner_product(word_to_bits(x, 3), word_to_bits(y, 3))
            assert oracles.inner_product_bit(x, y) == expected


def test_two_source_tv_full_entropy():
    # uniform x uniform on m bits: P(odd) = 1/2 - 2**(-m-1), so TV = 2**(-m-1)
    full = list(range(8))
    assert two_source_tv(full, full) == F(1, 16)
    assert two_source_bound_ok(F(1, 16), 3, 3, 3)


def test_two_source_tv_worst_pair():
    # identical singleton supports: the output is constant
    assert two_source_tv([5], [5]) == F(1, 2)
    with pytest.raises(ConfigurationError):
        two_source_tv([], [1])


def test_two_source_subcube_pairs_meet_bound():
    m, k = 4, 3
    cubes = subcube_supports(m, k)
    for sx in cubes[:6]:
        for sy in cubes[:6]:
            tv = two_source_tv(sx, sy)
            assert two_source_bound_ok(tv, m, k, k)


def test_entropy_budget():
    # a 10-bit block at beta=3/2 holds 10*log2(1.5) - 1 = 4.84 bits
    assert entropy_budget_ok(10, 4, F(3, 2), F(3, 2))
    assert not entropy_budget_ok(10, 5, F(3, 2), F(3, 2))
    assert max_extractable_bits(10, F(3, 2), F(3, 2)) == 4
    assert max_extractable_bits(1, F(3, 2), F(3, 2)) == 0


@st.composite
def budget_cases(draw):
    """(m, beta_min, beta_max) with m in 1..400 and gains down to 1 + 2**-20.

    In the "pow2" kind beta_max - 1 = 2**n / beta_min**m, so that
    beta_min**m / kappa is exactly 2**n.
    """
    m = draw(st.integers(1, 400))
    beta_min = draw(st.one_of(
        st.integers(1, 20).map(lambda e: 1 + F(1, 1 << e)),
        st.integers(2, 1 << 20).map(lambda d: 1 + F(1, d)),
        st.fractions(F(1), F(2), max_denominator=1000).filter(lambda b: 1 < b < 2),
    ))
    kind = draw(st.sampled_from(["pow2", "same", "any"]))
    if kind == "pow2":
        p, q = beta_min.numerator ** m, beta_min.denominator ** m
        n = p.bit_length() - q.bit_length() - 1 - draw(st.integers(0, 3))
        return m, beta_min, 1 + F(2) ** n / F(p, q)
    if kind == "same":
        return m, beta_min, beta_min
    t = draw(st.fractions(0, 1, max_denominator=1000).filter(lambda t: t < 1))
    return m, beta_min, beta_min + (2 - beta_min) * t


@given(budget_cases())
@settings(max_examples=400, deadline=None)
def test_budget_closed_form_matches_the_doubling_loop(case):
    m, beta_min, beta_max = case
    most = max_extractable_bits(m, beta_min, beta_max)
    assert most == oracles.max_extractable_bits_doubling(m, beta_min, beta_max)
    kappa = 1 / (beta_max - 1)
    for out_bits in {0, most, most + 1, max(most - 1, 0)}:
        fits = (1 << out_bits) * kappa <= beta_min**m
        assert entropy_budget_ok(m, out_bits, beta_min, beta_max) == fits


def test_budget_at_an_exact_power_of_two():
    # (3/2)**2 / kappa = 9/4 * (beta_max - 1) = 2 exactly when beta_max = 17/9
    assert max_extractable_bits(2, F(3, 2), F(17, 9)) == 1
    assert entropy_budget_ok(2, 1, F(3, 2), F(17, 9))
    assert not entropy_budget_ok(2, 2, F(3, 2), F(17, 9))


def test_required_block_length():
    assert required_block_length(8, F(1, 2), F(9, 5)) == 19
    for n in (0, True):
        with pytest.raises(DomainError, match="n must be"):
            required_block_length(n, F(1, 2), F(9, 5))
    with pytest.raises(DomainError):
        required_block_length(8, 1, F(9, 5))


@given(
    st.integers(min_value=1, max_value=32),
    st.fractions(min_value=0, max_value=F(9, 10), max_denominator=16),
    st.fractions(min_value=F(9, 8), max_value=F(15, 8), max_denominator=16),
)
@settings(max_examples=40)
def test_required_block_length_is_least(n, alpha, beta):
    # m*(1-alpha)*log2(beta) >= n holds, and fails for m-1
    m = required_block_length(n, alpha, beta)
    a, b = alpha.numerator, alpha.denominator
    assert beta ** (m * (b - a)) >= 2 ** (n * b)
    if m > 1:
        assert beta ** ((m - 1) * (b - a)) < 2 ** (n * b)


def test_pipeline_config_validation():
    good = dict(mode="seeded", block_bits=12, beta_min=F(3, 2), beta_max=F(3, 2))
    PipelineConfig(seed=1, **good)
    with pytest.raises(ConfigurationError):
        PipelineConfig(**good)  # explicit mode without a seed
    with pytest.raises(ConfigurationError):
        PipelineConfig(mode="xor", block_bits=12, beta_min=F(3, 2), beta_max=F(3, 2))
    with pytest.raises(ConfigurationError):
        PipelineConfig(
            mode="two-source", block_bits=12, beta_min=F(3, 2), beta_max=F(3, 2), out_bits=2
        )
    with pytest.raises(ConfigurationError):
        PipelineConfig(mode="seeded", block_bits=4, out_bits=5, beta_min=F(3, 2), beta_max=F(3, 2), seed=1)
    with pytest.raises(ConfigurationError):
        PipelineConfig(mode="seeded", block_bits=4, beta_min=F(9, 5), beta_max=F(3, 2), seed=1)
    with pytest.raises(ConfigurationError, match="^seed_mode must be explicit or stream$"):
        PipelineConfig(seed=1, seed_mode="bogus", **good)
    # two-source mode draws no seed, yet a bogus seed mode was accepted there
    with pytest.raises(ConfigurationError, match="^seed_mode must be explicit or stream$"):
        PipelineConfig(**{**good, "mode": "two-source", "seed_mode": "bogus"})
    # these raised AttributeError or TypeError, or were reported as "out_bits": true
    for counts in ({"block_bits": 48.0}, {"block_bits": 0}, {"out_bits": True},
                   {"out_bits": 0}, {"gap_bits": 0.5}, {"gap_bits": -1}, {"gap_bits": False}):
        with pytest.raises(ConfigurationError, match="must be a (positive|nonnegative) integer"):
            PipelineConfig(**{**good, "seed": 1, **counts})


def test_pipeline_seeded_run():
    raw = encode_bits(F(5, 17), F(3, 2), F(1), 400)
    config = PipelineConfig(
        mode="seeded", block_bits=20, out_bits=2, beta_min=F(3, 2), beta_max=F(3, 2), seed=9
    )
    out, report = pipeline_extract(raw, config)
    assert report["blocks"] == 20
    assert report["bits_out"] == 40 == out.size
    assert report["seed"]["mode"] == "explicit"
    assert report["warnings"] == []
    assert report["max_whole_out_bits"] == 10
    # deterministic
    again, _ = pipeline_extract(raw, config)
    assert np.array_equal(out, again)
    # hand-check the first block against the extractor primitive
    ext = SeededExtractor(20, 2)
    from betaenc.prng import SplitMix64

    seed_word = SplitMix64(9).derive("toeplitz").bits(ext.d)
    first = 0
    for b in raw[:20]:
        first = (first << 1) | int(b)
    assert tuple(int(b) for b in out[:2]) == word_to_bits(ext.apply(first, seed_word), 2)


def test_pipeline_budget_enforced():
    raw = encode_bits(F(5, 17), F(3, 2), F(1), 100)
    config = PipelineConfig(
        mode="seeded", block_bits=10, out_bits=5, beta_min=F(3, 2), beta_max=F(3, 2), seed=1
    )
    with pytest.raises(ConfigurationError):
        pipeline_extract(raw, config)


def test_pipeline_stream_seed_mode():
    raw = encode_bits(F(5, 17), F(3, 2), F(1), 200)
    config = PipelineConfig(
        mode="seeded",
        block_bits=20,
        out_bits=2,
        beta_min=F(3, 2),
        beta_max=F(3, 2),
        seed_mode="stream",
        gap_bits=3,
    )
    out, report = pipeline_extract(raw, config)
    assert report["seed"]["mode"] == "stream"
    assert "no uniformity claim" in report["seed"]["note"]
    # d = 21 seed bits, then a gap, then 20+3 strides
    assert report["blocks"] == (200 - 21 - 3) // 23 + (1 if (200 - 24) % 23 >= 20 else 0)
    with pytest.raises(ConfigurationError):
        pipeline_extract(raw[:10], config)


def test_pipeline_two_source_warning_depends_on_beta():
    config = PipelineConfig(mode="two-source", block_bits=16, beta_min=F(7, 5), beta_max=F(7, 5))
    raw = encode_bits(F(5, 17), F(7, 5), F(1), 200)
    out, report = pipeline_extract(raw, config)
    assert TWO_SOURCE_WARNING in report["warnings"]
    assert report["pairs"] == 6
    assert out.size == 6
    quiet = PipelineConfig(mode="two-source", block_bits=16, beta_min=F(3, 2), beta_max=F(3, 2))
    raw = encode_bits(F(5, 17), F(3, 2), F(1), 200)
    _, report = pipeline_extract(raw, quiet)
    assert report["warnings"] == []


def test_pipeline_rejects_non_bits():
    config = PipelineConfig(mode="seeded", block_bits=4, beta_min=F(3, 2), beta_max=F(3, 2), seed=1)
    with pytest.raises(DomainError):
        pipeline_extract([0, 1, 2, 0], config)


def test_two_source_tv_refuses_a_repeated_word():
    # scored as a multiset this gave 1/6; the flat source on {0, 1} gives 0
    with pytest.raises(DomainError):
        two_source_tv([0, 0, 1], [1])


def test_two_source_tv_refuses_words_outside_sixteen_bits():
    for bad in ([-1], [70000], [1 << 16]):
        with pytest.raises(DomainError):
            two_source_tv(bad, [1])
        with pytest.raises(DomainError):
            two_source_tv([1], bad)
    assert two_source_tv([(1 << 16) - 1], [(1 << 16) - 1]) == F(1, 2)


def test_two_source_tv_refuses_non_integer_words():
    for bad in ([1.5], [0.0, 1.0], ["1"], [1 << 80]):
        with pytest.raises(DomainError):
            two_source_tv(bad, [1])


# -- the stream pipeline against the per-block oracle --------------------------

PIPE_BETA = F(19, 10)


def _pipeline_case(bits, mode, m, g, n=1, seed=None, seed_mode="explicit"):
    """Run the pipeline, the per-block oracle and the uint8 product on the same stream."""
    config = PipelineConfig(mode=mode, block_bits=m, gap_bits=g, out_bits=n,
                            beta_min=PIPE_BETA, beta_max=PIPE_BETA,
                            seed=seed, seed_mode=seed_mode)
    seed_word = None
    if mode == "seeded" and seed_mode == "explicit":
        seed_word = SplitMix64(seed).derive("toeplitz").bits(m + n - 1)
    out, report = pipeline_extract(bits, config)
    want, counts = oracles.pipeline_extract_blocks(bits, mode, m, n, g, seed_word)
    assert out.dtype == np.uint8 and out.ndim == 1
    assert np.array_equal(out, want)
    assert np.array_equal(oracles.pipeline_extract_product(bits, mode, m, n, g, seed_word), want)
    assert {key: report[key] for key in counts} == counts
    return report


@given(
    st.integers(min_value=1, max_value=130),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([("seeded", "explicit"), ("seeded", "stream"), ("two-source", None)]),
    st.sampled_from(["array", "list", "strided"]),
    st.data(),
)
@settings(max_examples=150)
def test_pipeline_matches_the_per_block_oracle(m, g, kind, form, data):
    mode, seed_mode = kind
    length = data.draw(st.integers(min_value=0, max_value=8 * (m + g) + 40))
    raw = np.frombuffer(data.draw(st.binary(min_size=length, max_size=length)),
                        dtype=np.uint8) & 1
    if form == "list":
        bits = raw.tolist()
    elif form == "strided":
        wide = np.empty(2 * length, dtype=np.uint8)
        wide[0::2], wide[1::2] = raw, 1 - raw
        bits = wide[0::2]
        assert not bits.flags.c_contiguous or length < 2
    else:
        bits = raw
    most = max_extractable_bits(m, PIPE_BETA, PIPE_BETA)
    if most < 1:
        # one bit of a 1-bit block is past the entropy budget in either mode
        config = PipelineConfig(mode=mode, block_bits=m, beta_min=PIPE_BETA,
                                beta_max=PIPE_BETA, seed=0)
        with pytest.raises(ConfigurationError):
            pipeline_extract(bits, config)
        return
    if mode == "two-source":
        _pipeline_case(bits, mode, m, g)
        return
    n = data.draw(st.integers(min_value=1, max_value=most))
    seed = data.draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
    if seed_mode == "stream" and length < m + n - 1:
        with pytest.raises(ConfigurationError):
            _pipeline_case(bits, mode, m, g, n, seed, seed_mode)
        return
    _pipeline_case(bits, mode, m, g, n, seed, seed_mode)


def test_pipeline_block_count_edges():
    bits = encode_bits(F(5, 17), F(3, 2), F(1), 700)
    # odd block count: the last block has no partner in two-source mode
    report = _pipeline_case(bits[: 5 * 23 + 20], "two-source", 20, 3)
    assert (report["blocks"], report["pairs"], report["bits_out"]) == (6, 3, 3)
    report = _pipeline_case(bits[: 4 * 23 + 20], "two-source", 20, 3)
    assert (report["blocks"], report["pairs"]) == (5, 2)
    # shorter than one block, exactly one block, empty
    for length, blocks in ((19, 0), (20, 1), (0, 0)):
        for mode in ("seeded", "two-source"):
            report = _pipeline_case(bits[:length], mode, 20, 3, seed=5)
            assert report["blocks"] == blocks
    # a stream seed that leaves less than one block, and blocks wider than 64 bits
    report = _pipeline_case(bits[:21 + 3 + 19], "seeded", 20, 3, 2, seed_mode="stream")
    assert report["blocks"] == 0
    for m in (63, 64, 65, 127, 128, 129, 130):
        _pipeline_case(bits, "seeded", m, 1, 9, seed=m)
        _pipeline_case(bits, "seeded", m, 2, 4, seed_mode="stream")
        _pipeline_case(bits, "two-source", m, 0)
    # three to five packed words per block, gaps that move block starts off byte
    # boundaries, and out_bits at the entropy budget
    bits = encode_bits(F(5, 17), F(3, 2), F(1), 2500)
    for m, gaps in ((191, (1, 2)), (192, (3, 4)), (193, (5, 6)), (256, (7, 1)), (257, (2, 3))):
        n = max_extractable_bits(m, PIPE_BETA, PIPE_BETA)
        for g in gaps:
            _pipeline_case(bits, "seeded", m, g, n, seed=m + g)
            report = _pipeline_case(bits, "seeded", m, g, n, seed_mode="stream")
            assert report["blocks"] >= 5 and report["bits_out"] == n * report["blocks"]
            _pipeline_case(bits, "two-source", m, g)


def test_pipeline_reads_strided_and_list_input_like_arrays():
    raw = encode_bits(F(5, 17), F(3, 2), F(1), 2000)
    config = PipelineConfig(mode="seeded", block_bits=48, out_bits=8,
                            beta_min=F(3, 2), beta_max=F(3, 2), seed=3)
    want, report = pipeline_extract(raw[::2].copy(), config)
    for bits in (raw[::2], raw[::2].tolist()):
        out, again = pipeline_extract(bits, config)
        assert np.array_equal(out, want) and again == report


def test_pipeline_rejects_a_two_dimensional_stream():
    config = PipelineConfig(mode="two-source", block_bits=4, beta_min=F(3, 2), beta_max=F(3, 2))
    with pytest.raises(DomainError):
        pipeline_extract(np.zeros((4, 8), dtype=np.uint8), config)
