from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from betaenc import prng
from betaenc.prng import PRNG_ID, SplitMix64

# reference outputs of the standard splitmix64 stream (state += gamma,
# then finalize), computed from the published constants
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_matches_reference_stream():
    g = SplitMix64(0)
    assert tuple(g.next64() for _ in range(4)) == SEED0_STREAM


def test_vectorized_stream_equals_scalar():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    scalar = [a.next64() for _ in range(100)]
    vec = b.next64_array(100)
    assert scalar == [int(v) for v in vec]
    # continuation after mixed scalar/vector use
    assert a.next64() == int(b.next64_array(1)[0])


def test_derive_is_pure_and_order_free():
    g = SplitMix64(7)
    before = g.derive("x", 3).next64()
    g.next64()  # consuming output must not shift children
    after = SplitMix64(7).derive("x", 3).next64()
    assert before == after


def test_derive_distinct_labels_distinct_streams():
    g = SplitMix64(7)
    seen = {g.derive(label).next64() for label in ("a", "b", "ab", "x")}
    seen.add(g.derive("a", 1).next64())
    seen.add(g.derive("a", 2).next64())
    assert len(seen) == 6


def test_label_path_no_concatenation_collision():
    g = SplitMix64(0)
    assert g.derive("ab").next64() != g.derive("a", "b").next64()
    assert g.derive(1, 2).next64() != g.derive(12).next64()


def test_label_validation():
    g = SplitMix64(0)
    with pytest.raises(ValueError):
        g.derive(-1)
    g.derive(1, 0)  # cached int labels must not admit their bools
    with pytest.raises(TypeError):
        g.derive(True)
    with pytest.raises(TypeError):
        g.derive(False)
    with pytest.raises(TypeError):
        g.derive(1.5)


LABEL_PATHS = [
    ("lochs",), ("sample", 12), ("x",), ("thresholds",), ("", 0), ("a" * 9, "é" * 5),
    (3, 2**64, 2**130 + 7), ("lochs", "sample", 0, "x"), (17, "toeplitz", 2**64 - 1),
]


@pytest.mark.parametrize("labels", LABEL_PATHS)
def test_derive_keys_match_the_definition_cached_or_not(labels):
    want = oracles.derived_first_word(11, labels)
    prng._premixed.cache_clear()
    assert SplitMix64(11).derive(*labels).next64() == want  # cold cache
    assert SplitMix64(11).derive(*labels).next64() == want  # warm cache
    # one label at a time, through the cache, reaches the same key
    g = SplitMix64(11)
    for label in labels:
        g = g.derive(label)
    assert g.next64() == want


def test_describe_reports_path():
    d = SplitMix64(5).derive("lochs", "sample", 12).describe()
    assert d == {"prng": PRNG_ID, "seed": 5, "path": ["lochs", "sample", 12]}


def test_bits_width():
    g = SplitMix64(3)
    for k in (1, 7, 64, 65, 200):
        v = SplitMix64(3).derive("w", k).bits(k)
        assert 0 <= v < (1 << k)
    with pytest.raises(ValueError):
        g.bits(0)


def test_bit_array_is_bits():
    arr = SplitMix64(9).bit_array(1000)
    assert arr.dtype == np.uint8
    assert arr.size == 1000
    assert set(np.unique(arr)) <= {0, 1}
    # deterministic
    assert np.array_equal(arr, SplitMix64(9).bit_array(1000))


def test_odd_dyadic_properties():
    g = SplitMix64(4)
    for _ in range(50):
        v = g.odd_dyadic(32)
        assert 0 < v < 1
        assert v.denominator == 1 << 32
        assert v.numerator % 2 == 1


def test_uniform_fraction_range():
    g = SplitMix64(4)
    vals = [g.uniform_fraction(16) for _ in range(100)]
    assert all(0 <= v < 1 for v in vals)
    assert all(v.denominator <= 1 << 16 for v in vals)


def test_randbelow_and_sample_distinct():
    g = SplitMix64(11)
    vals = [g.randbelow(10) for _ in range(200)]
    assert set(vals) == set(range(10))
    with pytest.raises(ValueError, match="^n must be positive$"):
        g.randbelow(0)
    # one choice needs no draw: the stream stays where it was
    h = SplitMix64(11)
    assert h.randbelow(1) == 0 and h.next64() == SplitMix64(11).next64()
    sample = g.sample_distinct(50, 20)
    assert len(sample) == len(set(sample)) == 20
    assert all(0 <= v < 50 for v in sample)
    with pytest.raises(ValueError):
        g.sample_distinct(5, 6)


def test_choose_weighted_respects_zero_weight():
    g = SplitMix64(13)
    weights = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    draws = {g.choose_weighted(weights) for _ in range(200)}
    assert 1 not in draws
    assert draws <= {0, 2}
    # weights summing below 1 leave the rest of [0, 1) to the last index
    assert {g.choose_weighted((Fraction(0), Fraction(0))) for _ in range(20)} == {1}


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_stream_values_are_64_bit(seed):
    g = SplitMix64(seed)
    assert 0 <= g.next64() < (1 << 64)


@pytest.mark.parametrize("precision_bits", [2, 17, 63, 64, 65, 128, 129, 130, 438])
@pytest.mark.parametrize("count", [0, 1, 33])
def test_odd_numerators_continue_the_odd_dyadic_stream(precision_bits, count):
    batched, scalar = SplitMix64(21), SplitMix64(21)
    nums = batched.odd_numerators(precision_bits, count)
    expected = oracles.uniform_draws(0, 1, precision_bits, scalar, count)
    assert tuple(Fraction(n, 1 << precision_bits) for n in nums) == expected
    assert all(type(n) is int and n % 2 for n in nums)
    # a single draw after the batch continues the same stream
    assert batched.odd_dyadic(precision_bits) == oracles.uniform_draws(
        0, 1, precision_bits, scalar, 1)[0]
    # both streams sit at the same counter afterwards
    assert batched.next64() == scalar.next64()
    assert SplitMix64(21).odd_dyadic(precision_bits) == oracles.uniform_draws(
        0, 1, precision_bits, SplitMix64(21), 1)[0]
    with pytest.raises(ValueError):
        batched.odd_numerators(1, count)
    with pytest.raises(ValueError):
        batched.odd_dyadic(1)


TAGS = st.lists(st.one_of(st.integers(0, 1000), st.integers(0, (1 << 64) - 1)),
                min_size=0, max_size=6)


@given(seed=st.integers(0, (1 << 64) - 1), tags=TAGS,
       precision_bits=st.sampled_from([2, 63, 64, 65, 130, 438]),
       count=st.integers(0, 5), start=st.integers(0, 9))
def test_batched_keys_and_draws_match_the_scalar_streams(seed, tags, precision_bits, count,
                                                          start):
    base = SplitMix64(seed).derive("lochs")
    keys = base.derive_array("sample", tags)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [base.derive("sample", t)._key for t in tags]
    children = prng.derive_keys(keys, "x", 3)
    rows = list(prng.odd_numerator_rows(children, precision_bits, count, start))
    assert len(rows) == len(tags)
    for tag, row in zip(tags, rows):
        scalar = base.derive("sample", tag).derive("x", 3)
        for _ in range(start):
            scalar.next64()
        odds = [d * (1 << precision_bits) for d in
                oracles.uniform_draws(0, 1, precision_bits, scalar, count)]
        assert row == odds and all(type(n) is int for n in row)


@pytest.mark.parametrize("precision_bits", [17, 65, 438])
def test_draw_rows_come_in_blocks_of_whole_rows(precision_bits, monkeypatch):
    keys = SplitMix64(2).derive_array("sample", range(11))
    whole = list(prng.odd_numerator_rows(keys, precision_bits, 5))
    monkeypatch.setattr(prng, "_ROW_BLOCK_WORDS", 12)
    assert list(prng.odd_numerator_rows(keys, precision_bits, 5)) == whole
    monkeypatch.setattr(prng, "_ROW_BLOCK_WORDS", 1)
    assert list(prng.odd_numerator_rows(keys, precision_bits, 5)) == whole


def test_batched_derive_refuses_tags_the_scalar_path_splits():
    g = SplitMix64(0)
    g.derive_array("sample", [(1 << 64) - 1])
    for tag in (1 << 64, 1 << 130, -1):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            g.derive_array("sample", [0, tag])
    for tag in (True, 1.0):
        with pytest.raises(TypeError):
            g.derive_array("sample", [tag])
    with pytest.raises(ValueError):
        list(prng.odd_numerator_rows(g.derive_array("sample", [1]), 1, 3))
