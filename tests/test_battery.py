import json
import math
import re
import tracemalloc
from decimal import Decimal

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
from betaenc.prng import SplitMix64, _counter_words

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


@pytest.mark.parametrize("n", range(1, 16))
@pytest.mark.parametrize("bit", [0, 1])
def test_runs_prerequisite_fails_a_short_constant_stream(n, bit):
    # below 16 bits 2/sqrt(n) exceeds 1/2: a constant stream passed the
    # bound and divided by pi * (1 - pi) = 0
    runs = runs_test(np.full(n, bit, dtype=np.uint8))
    assert runs.p_value == 0.0 and not runs.passed
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


@pytest.mark.parametrize(
    "significance, written",
    [(0.01, 0.01), (Decimal("0.010"), "0.010"), (F(1, 100), "1/100")],
)
def test_reports_are_json_for_every_significance(significance, written):
    # a float stays a JSON number; a Decimal or Fraction is written exactly
    results = run_battery(prng_bits(512), significance)
    report = battery_report(results, 512)
    for doc in [r.to_json() for r in results] + [report]:
        assert doc["alpha"] == written and type(doc["alpha"]) is type(written)
    assert json.loads(json.dumps(report))["tests"] == [r.to_json() for r in results]


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


@pytest.mark.parametrize(
    "n_runs, n_bits, significance",
    [(n_runs, n_bits, significance)
     for n_runs in (1, 31, 32, 33, 100)
     for n_bits in (256, 1000, 4097, 1 << 15)
     for significance in (0.01, 0.25)]
    # one run short of, at and past a decision chunk
    + [(battery._DECISION_CHUNK + d, 256, significance)
       for d in (-1, 0, 1) for significance in (0.01, 0.25)],
)
def test_rejection_rates_match_the_per_run_loop(n_runs, n_bits, significance):
    doc = rejection_rates(n_runs=n_runs, n_bits=n_bits, significance=significance, seed=3)
    want = oracles.rejection_rates_per_run(n_runs, n_bits, significance, seed=3)
    assert doc["rates"] == want
    assert list(doc["rates"]) == list(want)


@pytest.mark.parametrize("significance", [Decimal("0.25"), F(1, 3), 1 / 3, 0.1])
def test_rejection_rates_compare_the_significance_exactly(significance):
    doc = rejection_rates(n_runs=50, n_bits=256, significance=significance, seed=1)
    assert doc["rates"] == oracles.rejection_rates_per_run(50, 256, significance, seed=1)
    assert doc["alpha"] is significance


@pytest.mark.parametrize("n_bits", [256, 4097])
def test_runs_at_their_own_p_values_decide_as_the_scalar_tests(n_bits):
    # significance p passes the run (equality), while one float above p and
    # a Fraction that rounds to p both reject it
    n_runs = 48
    rng = SplitMix64(0).derive("battery-calibration")
    p_values = [
        [test(n_bits, c.order3, c.wraps)[1] for test in battery._STATISTICS.values()]
        for c in (pattern_counts(rng.derive("run", i).bit_array(n_bits)) for i in range(n_runs))
    ]
    for i in range(0, n_runs, 3):
        for col, name in enumerate(battery._STATISTICS):
            p = p_values[i][col]
            if not 0 < p < 1:
                continue
            for significance in (p, math.nextafter(p, 1), F(p) * (1 + F(1, 1 << 60))):
                want = sum(not (row[col] >= significance) for row in p_values)
                doc = rejection_rates(n_runs=n_runs, n_bits=n_bits, significance=significance)
                assert doc["rates"][name] == F(want, n_runs), (i, name, significance)


def _streams(n):
    rng = SplitMix64(n).derive("array-decisions")
    yield np.zeros(n, dtype=np.uint8)
    yield np.ones(n, dtype=np.uint8)
    for pattern in ([1, 0], [1, 1, 0], [1, 0, 0, 1, 1]):
        yield np.resize(np.array(pattern, dtype=np.uint8), n)
    for i in range(4):
        bits = rng.derive("random", i).bit_array(n)
        yield bits
        yield bits & rng.derive("bias", i).bit_array(n)  # p(1) = 1/4


def _column_p_values(n, order3, wraps):
    """The four tests on count columns, stacked as ``battery._rejections`` stacks them."""
    with np.errstate(divide="ignore", invalid="ignore"):
        columns = tuple(order3.T)
        return np.stack([test(n, columns, wraps)[1] for test in battery._STATISTICS.values()],
                        axis=1)


def _calibration_counts(n_runs, n_bits):
    keys = SplitMix64(0).derive("battery-calibration").derive_array("run", range(n_runs))
    return battery._packed_counts(_counter_words(keys, 0, -(-n_bits // 64)), n_bits)


@pytest.mark.parametrize("n, rows", [pytest.param(n, "streams", id=str(n))
                                     for n in (256, 257, 4097, 600_000)]
                         + [pytest.param(1 << 15, "calibration", id="calibration")])
def test_array_decisions_match_the_scalar_tests(n, rows):
    # each test is one function of numbers or columns: its columns equal the
    # per-column copy it replaced bit for bit, and decide as its numbers do
    if rows == "streams":
        counts = [pattern_counts(bits) for bits in _streams(n)]
        assert all(type(c) is int for c in counts[0].order3 + (counts[0].wraps,))
        order3 = np.array([c.order3 for c in counts], dtype=np.int64)
        wraps = np.array([c.wraps for c in counts], dtype=np.int64)
    else:
        order3, wraps = _calibration_counts(1000, n)
    p = _column_p_values(n, order3, wraps)
    assert np.array_equal(p, oracles.battery_p_values_columns(n, order3, wraps), equal_nan=True)
    scalar = np.array([[test(n, tuple(c), w)[1] for test in battery._STATISTICS.values()]
                       for c, w in zip(order3.tolist(), wraps.tolist())])
    for significance in (0.01, 0.25, 0.5):
        rejected = battery._rejections(n, order3, wraps, significance)
        assert np.array_equal(rejected, ~(scalar >= significance))
    # the error bound stated by _rejections
    assert np.all(np.abs(p - scalar) <= scalar * (n + 1) * 2.0**-45)


def test_calibration_rarely_asks_the_scalar_tests(monkeypatch):
    calls = []
    for name, test in battery._STATISTICS.items():
        def counted(*args, _test=test):
            if not isinstance(args[2], np.ndarray):  # a call on plain numbers, not on columns
                calls.append(args)
            return _test(*args)
        monkeypatch.setitem(battery._STATISTICS, name, counted)
    doc = rejection_rates(n_runs=1000, n_bits=1 << 15, seed=0)
    assert len(calls) <= 10  # of 4 000 (run, test) pairs
    monkeypatch.undo()
    assert doc == rejection_rates(n_runs=1000, n_bits=1 << 15, seed=0)


def test_calibration_memory_does_not_grow_with_the_runs():
    tracemalloc.start()
    try:
        rejection_rates(n_runs=20_000, n_bits=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_rejection_rates_refusals():
    # the same types and messages as run_battery's, whichever call makes them
    for n_bits in (1, 255):
        with pytest.raises(InsufficientLengthError) as err:
            rejection_rates(n_runs=3, n_bits=n_bits)
        assert str(err.value) == (
            f"stream of {n_bits} bits is below the battery minimums "
            "(monobit 100, runs 100, serial 64, approximate-entropy 256)"
        )
    # a str or None raised TypeError from the comparison, a Decimal NaN InvalidOperation
    for significance in (0, 1, -0.5, float("nan"), Decimal(1), Decimal("NaN"), "0.5", None):
        message = fr"^significance must lie in \(0,1\), got {re.escape(repr(significance))}$"
        with pytest.raises(DomainError, match=message):
            rejection_rates(n_runs=3, n_bits=256, significance=significance)
        with pytest.raises(DomainError, match=message):
            run_battery(prng_bits(512), significance)
