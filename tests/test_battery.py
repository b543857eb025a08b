import math

import numpy as np
import pytest

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from betaenc.battery import (
    MINIMUM_BITS,
    approximate_entropy_test,
    battery_report,
    calibration_tolerance,
    monobit_test,
    pattern_counts,
    rejection_rates,
    run_battery,
    runs_test,
    serial_test,
)
from betaenc import battery
from betaenc.encoder import encode_bits
from betaenc.errors import DomainError, InsufficientLengthError
from betaenc.prng import SplitMix64

from fractions import Fraction

F = Fraction

ALL_TESTS = (monobit_test, runs_test, serial_test, approximate_entropy_test)


def prng_bits(n, seed=0):
    return SplitMix64(seed).derive("battery-unit").bit_array(n)


def test_minimums_table():
    assert MINIMUM_BITS == {
        "monobit": 100,
        "runs": 100,
        "serial": 64,
        "approximate-entropy": 256,
    }


def test_alternating_stream():
    bits = np.tile(np.array([1, 0], dtype=np.uint8), 500)
    assert monobit_test(bits).passed  # perfectly balanced
    res = runs_test(bits)
    assert not res.passed  # way too many runs
    assert res.p_value < 1e-100


def test_all_zero_stream_fails_monobit():
    bits = np.zeros(1000, dtype=np.uint8)
    res = monobit_test(bits)
    assert not res.passed
    assert res.p_value < 1e-100
    # runs prerequisite |pi - 1/2| >= 2/sqrt(n) trips, p reported as 0
    runs = runs_test(bits)
    assert not runs.passed
    assert runs.p_value == 0.0
    assert runs.extras["prerequisite"] == "failed"
    assert math.isnan(runs.statistic)


def test_ideal_bits_pass_everything():
    bits = prng_bits(1 << 14)
    results = run_battery(bits)
    assert [r.name for r in results] == [
        "monobit",
        "runs",
        "serial",
        "approximate-entropy",
    ]
    assert all(r.passed for r in results)
    report = battery_report(results, bits.size)
    assert report["all_pass"] is True
    assert report["alpha"] == 0.01
    assert len(report["tests"]) == 4


def test_raw_encoder_bits_fail_serial():
    # beta = 3/2, u = 1: "11" cannot occur, so the 2-bit pattern law is
    # wildly off and the serial statistic explodes
    bits = encode_bits(F(5, 17), F(3, 2), F(1), 4096)
    res = serial_test(bits)
    assert not res.passed
    assert res.p_value < 1e-9


def test_p_values_in_range_and_match_oracles():
    rng = SplitMix64(3).derive("battery-oracle")
    for i in range(6):
        bits = rng.derive("case", i).bit_array(2048)
        listed = [int(b) for b in bits]
        checks = [
            (monobit_test(bits), oracles.monobit_p(listed)),
            (runs_test(bits), oracles.runs_p(listed)),
            (serial_test(bits), oracles.serial_p(listed)),
            (approximate_entropy_test(bits), oracles.approximate_entropy_p(listed)),
        ]
        for result, expected in checks:
            assert 0.0 <= result.p_value <= 1.0
            assert result.p_value == pytest.approx(expected, abs=1e-9)


def test_biased_bits_fail_monobit_but_oracle_agrees():
    rng = SplitMix64(8).derive("biased")
    draws = rng.bit_array(4096).astype(np.int64)
    mask = rng.derive("mask").bit_array(4096).astype(np.int64)
    bits = (draws | mask).astype(np.uint8)  # p(1) = 3/4
    res = monobit_test(bits)
    assert not res.passed
    assert res.p_value == pytest.approx(oracles.monobit_p([int(b) for b in bits]), abs=1e-12)


def test_short_stream_rejected_with_full_table():
    with pytest.raises(InsufficientLengthError) as err:
        run_battery(np.ones(200, dtype=np.uint8))
    message = str(err.value)
    for name in MINIMUM_BITS:
        assert name in message
    with pytest.raises(InsufficientLengthError):
        run_battery(prng_bits(255))
    assert len(run_battery(prng_bits(256))) == 4


def test_input_validation():
    with pytest.raises(DomainError):
        run_battery(np.array([0, 1, 2] * 200, dtype=np.uint8))
    with pytest.raises(DomainError):
        run_battery(prng_bits(512), significance=0.0)
    # n_runs=0 divided by zero in calibration_tolerance
    for counts in ({"n_runs": 0}, {"n_runs": 2.5}, {"n_bits": 0}, {"n_bits": True}):
        with pytest.raises(DomainError, match="must be a positive integer"):
            rejection_rates(**counts)
    # 2**64 + 5 drew seed 5's runs but was reported as given
    for seed in (-1, 1 << 64, (1 << 64) + 5, True, 1.0):
        with pytest.raises(DomainError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            rejection_rates(n_runs=3, n_bits=256, seed=seed)


def test_result_json_round_trip():
    res = monobit_test(prng_bits(512))
    doc = res.to_json()
    assert set(doc) == {"name", "statistic", "p_value", "pass", "alpha", "extras"}
    assert doc["pass"] is True
    # statistics and p-values are serialized as 12-place decimal strings
    assert float(doc["statistic"]) == pytest.approx(res.statistic, abs=1e-12)
    assert 0.0 <= float(doc["p_value"]) <= 1.0
    nan_doc = runs_test(np.zeros(512, dtype=np.uint8)).to_json()
    assert nan_doc["statistic"] == "nan"


def test_calibration_tolerance_formula():
    tol = calibration_tolerance(0.01, 1000)
    assert tol == pytest.approx(3 * math.sqrt(0.01 * 0.99 / 1000))


def test_rejection_rates_smoke():
    # tiny calibration run; the real one is an acceptance criterion
    doc = rejection_rates(n_runs=40, n_bits=4096, seed=0)
    assert set(doc["rates"]) == set(MINIMUM_BITS)
    for rate in doc["rates"].values():
        assert 0 <= rate <= F(1, 4)
    assert doc["tolerance"] == pytest.approx(calibration_tolerance(0.01, 40))
    # deterministic
    again = rejection_rates(n_runs=40, n_bits=4096, seed=0)
    assert doc == again


def test_rejection_rates_frozen():
    # recorded with the four-histogram battery, before the one-count battery
    doc = rejection_rates(n_runs=40, n_bits=4096, seed=0)
    assert doc["rates"] == {name: F(0) for name in MINIMUM_BITS}
    loose = rejection_rates(n_runs=40, n_bits=4096, significance=0.25, seed=0)
    assert loose["rates"] == {
        "monobit": F(7, 40),
        "runs": F(9, 40),
        "serial": F(3, 20),
        "approximate-entropy": F(7, 40),
    }


def _same_as_four_histograms(bits, alpha=0.01):
    """run_battery equals the per-test histogram oracle, floats and JSON."""
    got = run_battery(bits, significance=alpha)
    want = [battery.TestResult(*row) for row in oracles.battery_four_histograms(bits, alpha)]
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    for a, b in zip(got, want):
        assert (a.name, a.passed, a.extras) == (b.name, b.passed, b.extras)
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic or (math.isnan(a.statistic) and math.isnan(b.statistic))
    return got


def _same_as_textbook(bits, results):
    listed = [int(b) for b in bits]
    expected = (oracles.monobit_p(listed), oracles.runs_p(listed),
                oracles.serial_p(listed), oracles.approximate_entropy_p(listed))
    for result, p in zip(results, expected):
        assert result.p_value == pytest.approx(p, abs=1e-9)


@given(st.integers(min_value=256, max_value=5000), st.integers(min_value=0, max_value=2**64 - 1),
       st.sampled_from([1, 2, 4]))
@settings(max_examples=60)
def test_battery_matches_the_four_histogram_oracle(n, seed, bias):
    rng = SplitMix64(seed).derive("battery-oracle-fuzz")
    bits = rng.bit_array(n)
    for i in range(1, bias):
        bits &= rng.derive("bias", i).bit_array(n)  # p(1) = 1/2, 1/4 or 1/8
    _same_as_textbook(bits, _same_as_four_histograms(bits))


@pytest.mark.parametrize("pattern", [[0], [1], [1, 0], [0, 1], [1, 1, 0], [1, 0, 0]])
@pytest.mark.parametrize("n", [256, 257, 1000, 4096, 5000])
def test_battery_matches_the_oracles_on_periodic_streams(pattern, n):
    bits = np.resize(np.array(pattern, dtype=np.uint8), n)
    _same_as_textbook(bits, _same_as_four_histograms(bits))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64])
def test_pattern_counts_match_the_histograms(n):
    for seed in range(8):
        bits = SplitMix64(seed).derive("tiny").bit_array(n)
        counts = pattern_counts(bits)
        assert counts.n == n and counts.order(1)[1] == int(bits.sum())
        for order in (1, 2, 3):
            if n == 1 and order == 3:
                # the histogram's wraparound is one bit short here and counts no window
                window = 7 if bits[0] else 0
                assert counts.order(3) == tuple(int(i == window) for i in range(8))
                continue
            assert list(counts.order(order)) == oracles.pattern_histogram(bits, order).tolist()
        assert counts.wraps == int(bits[-1] != bits[0])


def test_tests_accept_prebuilt_counts():
    bits = prng_bits(3000)
    counts = pattern_counts(bits)
    assert pattern_counts(counts) is counts
    assert len(counts) == bits.size  # the tracer counts tested bits this way
    assert run_battery(counts) == run_battery(bits)
    for test in ALL_TESTS:
        assert test(counts, 0.05) == test(bits, 0.05) == test(bits.tolist(), 0.05)
    with pytest.raises(DomainError):
        monobit_test([0, 1, 2])
    with pytest.raises(DomainError):
        serial_test(np.zeros((2, 300), dtype=np.uint8))


def _same_as_byte_counts(bits):
    counts = pattern_counts(bits)
    assert (counts.n, counts.order3, counts.wraps) == oracles.pattern_counts_bytes(bits), bits.size
    return counts


@pytest.mark.parametrize("sizes", [range(1, 201), range(255, 258), range(4095, 4098), [600_000]])
def test_packed_counts_match_the_byte_counts(sizes):
    for n in sizes:
        rng = SplitMix64(n).derive("packed-counts")
        _same_as_byte_counts(rng.bit_array(n))
        _same_as_byte_counts(rng.bit_array(n) & rng.bit_array(n))
        for pattern in ([0], [1], [1, 0], [1, 1, 0]):
            _same_as_byte_counts(np.resize(np.array(pattern, dtype=np.uint8), n))


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=2**64 - 1),
       st.sampled_from(["random", "biased", "periodic"]))
@settings(max_examples=150)
def test_packed_counts_match_the_byte_counts_fuzzed(n, seed, kind):
    rng = SplitMix64(seed).derive("packed-counts-fuzz")
    if kind == "periodic":
        period = rng.bit_array(1 + rng.randbelow(9))
        bits = np.resize(period, n)
    else:
        bits = rng.bit_array(n)
        for i in range(1, 1 + (kind == "biased") * (1 + rng.randbelow(3))):
            bits &= rng.derive("bias", i).bit_array(n)
    _same_as_byte_counts(bits)


@pytest.mark.parametrize("significance", [0.01, 0.25])
@pytest.mark.parametrize("n_bits", [256, 1000, 4097, 1 << 15])
@pytest.mark.parametrize("n_runs", [1, 31, 32, 33, 100])
def test_rejection_rates_match_the_per_run_loop(n_runs, n_bits, significance):
    doc = rejection_rates(n_runs=n_runs, n_bits=n_bits, significance=significance, seed=3)
    want = oracles.rejection_rates_per_run(n_runs, n_bits, significance, seed=3)
    assert doc["rates"] == want
    assert list(doc["rates"]) == list(want)


def test_rejection_rates_refusals():
    # the same types and messages as run_battery's, whichever call makes them
    for n_bits in (1, 255):
        with pytest.raises(InsufficientLengthError) as err:
            rejection_rates(n_runs=3, n_bits=n_bits)
        assert str(err.value) == (
            f"stream of {n_bits} bits is below the battery minimums "
            "(monobit 100, runs 100, serial 64, approximate-entropy 256)"
        )
    for significance in (0, 1, -0.5, float("nan")):
        with pytest.raises(DomainError,
                           match=fr"^significance must lie in \(0,1\), got {significance}$"):
            rejection_rates(n_runs=3, n_bits=256, significance=significance)
