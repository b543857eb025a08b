"""Four-test statistical battery with closed-form p-values.

Monobit, runs, serial (order 2), and approximate entropy (order 2):
chosen so every p-value is an erfc / exponential expression and no
incomplete-gamma tables are needed.  Each test is one float function of
the stream's cyclic order-3 pattern count (n, order3, wraps), which exact
popcounts of the stream packed into 64-bit words give.  The calibration
draws its PRNG runs 32 at a time as packed SplitMix64 words, counts them
and reads those functions' p-values directly, building no TestResult.  This is
supporting evidence for the extraction pipeline, not a conformance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .bitio import as_bit_array
from .errors import DomainError, InsufficientLengthError
from .numerics import check_positive_int, check_seed, decimal_str
from .prng import PRNG_ID, SplitMix64, _counter_words

# calibration runs drawn and counted per word block; at 2**15 bits a block is 128 KiB
_CALIBRATION_BLOCK = 32

MINIMUM_BITS = {
    "monobit": 100,
    "runs": 100,
    "serial": 64,
    "approximate-entropy": 256,
}


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    passed: bool
    alpha: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        stat = self.statistic
        return {
            "name": self.name,
            "statistic": "nan" if math.isnan(stat) else decimal_str(Decimal(repr(float(stat))), 12),
            "p_value": decimal_str(Decimal(repr(float(self.p_value))), 12),
            "pass": self.passed,
            "alpha": self.alpha,
            "extras": {k: repr(v) if isinstance(v, float) else v for k, v in self.extras.items()},
        }


@dataclass(frozen=True)
class PatternCounts:
    """Cyclic order-3 pattern counts of one stream; lower orders are marginals.

    ``order3[4a + 2b + c]`` counts the windows (b_i, b_i+1, b_i+2) reading
    abc, indices mod n.  ``wraps`` is 1 when b_n != b_1: the one cyclic
    transition the runs test leaves out.
    """

    n: int
    order3: tuple
    wraps: int

    def __len__(self) -> int:
        return self.n

    def order(self, k: int) -> tuple:
        return (*_marginals(self.order3), self.order3)[k - 1]


def _packed_counts(words: np.ndarray, n: int) -> list:
    """(order3, wraps) of each row of a (rows, words) uint64 array of n-bit streams.

    Bits are MSB-first and bits past n are zero; a row has at least one
    word.  With p, q, r the stream and its cyclic shifts by 1 and 2, each
    order-3 count is an inclusion-exclusion of n, #p, #(p&q) = #(q&r),
    #(p&r) and #(p&q&r).  The shifted words ``w<<1 | next>>63`` and
    ``w<<2 | next>>62`` read zeros past n, so the popcounts miss only the
    windows starting at n-2 and n-1, added from bits 0, 1, n-2 and n-1
    (indices mod n, so n = 1 and n = 2 count each window once).
    """
    nxt = np.zeros_like(words)
    nxt[:, :-1] = words[:, 1:]
    q = words << 1 | nxt >> 63
    r = words << 2 | nxt >> 62
    pq = words & q

    def popcount(a):
        return np.bitwise_count(a).sum(axis=1, dtype=np.int64)

    def bit(j):
        j %= max(n, 1)
        return (words[:, j // 64] >> (63 - j % 64) & 1).astype(np.int64)

    first, second, penult, last = (bit(j) for j in (0, 1, n - 2, n - 1))
    two = int(n >= 2)  # a window starts at n-2 only if n >= 2
    moments = zip(popcount(words).tolist(),
                  (popcount(pq) + (last & first)).tolist(),
                  (popcount(words & r) + two * (penult & first) + (last & second)).tolist(),
                  (popcount(pq & r) + two * (penult & last & first)
                   + (last & first & second)).tolist(),
                  (last ^ first).tolist())
    out = []
    for s1, s_pq, s_pr, s_pqr, wraps in moments:
        x, y, z = s_pq - s_pqr, s_pr - s_pqr, s_pqr  # #011 = #110, #101, #111
        e = s1 - x - y - z  # #100 = #001
        order3 = (n - 2 * e - s1 - y, e, s1 - 2 * x - z, x, e, y, x, z)
        out.append((order3, wraps))
    return out


def pattern_counts(bits) -> PatternCounts:
    """Validate a bit stream once and count its order-3 patterns on packed words."""
    if isinstance(bits, PatternCounts):
        return bits
    arr = as_bit_array(bits)
    n = arr.size
    packed = np.zeros(8 * max(1, -(-n // 64)), dtype=np.uint8)
    packed[: -(-n // 8)] = np.packbits(arr)
    return PatternCounts(n, *_packed_counts(packed.view(">u8").astype(np.uint64)[None, :], n)[0])


def _marginals(c: tuple) -> tuple:
    """The order-1 and order-2 counts of an order-3 pattern count."""
    pairs = (c[0] + c[1], c[2] + c[3], c[4] + c[5], c[6] + c[7])
    return (pairs[0] + pairs[1], pairs[2] + pairs[3]), pairs


def _monobit(n: int, order3: tuple, wraps: int) -> tuple:
    total = 2 * _marginals(order3)[0][1] - n
    s_obs = abs(total) / math.sqrt(n)
    return s_obs, math.erfc(s_obs / math.sqrt(2)), {"bit_sum": total}


def _runs(n: int, order3: tuple, wraps: int) -> tuple:
    ones, pairs = _marginals(order3)
    pi = ones[1] / n
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        # monobit prerequisite failed; the runs statistic is meaningless here
        return float("nan"), 0.0, {"ones_fraction": pi, "prerequisite": "failed"}
    v = 1 + pairs[0b01] + pairs[0b10] - wraps
    num = abs(v - 2 * n * pi * (1 - pi))
    den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
    return float(v), math.erfc(num / den), {"ones_fraction": pi}


def _serial(n: int, order3: tuple, wraps: int) -> tuple:
    """Order-2 overlapping serial test; p = exp(-delta_psi2 / 2)."""
    ones, pairs = _marginals(order3)
    delta = (4 / n * sum(c * c for c in pairs) - n) - (2 / n * sum(c * c for c in ones) - n)
    # delta >= 0 up to rounding; clamp so p stays a probability
    return delta, min(1.0, math.exp(-delta / 2)), {}


def _approximate_entropy(n: int, order3: tuple, wraps: int) -> tuple:
    """Order-2 approximate entropy; p = exp(-x/2) * (1 + x/2) for x = chi2."""

    def phi(counts: tuple) -> float:
        acc = 0.0
        for c in counts:
            if c:
                acc += (c / n) * math.log(c / n)
        return acc

    ap_en = phi(_marginals(order3)[1]) - phi(order3)
    chi2 = 2 * n * (math.log(2) - ap_en)
    x = chi2 / 2
    return chi2, min(1.0, math.exp(-x) * (1 + x)), {"ap_en": ap_en}


# (statistic, p_value, extras) of each test from (n, order3, wraps), by test name
_STATISTICS = dict(zip(MINIMUM_BITS, (_monobit, _runs, _serial, _approximate_entropy)))


def _result(name: str, bits, alpha: float) -> TestResult:
    counts = pattern_counts(bits)
    stat, p, extras = _STATISTICS[name](counts.n, counts.order3, counts.wraps)
    return TestResult(name, stat, p, p >= alpha, alpha, extras)


def monobit_test(bits, alpha: float = 0.01) -> TestResult:
    return _result("monobit", bits, alpha)


def runs_test(bits, alpha: float = 0.01) -> TestResult:
    return _result("runs", bits, alpha)


def serial_test(bits, alpha: float = 0.01) -> TestResult:
    return _result("serial", bits, alpha)


def approximate_entropy_test(bits, alpha: float = 0.01) -> TestResult:
    return _result("approximate-entropy", bits, alpha)


_TESTS = (monobit_test, runs_test, serial_test, approximate_entropy_test)


def _check_battery(n: int, significance: float) -> None:
    """The refusals of every battery run: a significance outside (0, 1), then a short stream."""
    if not (0 < significance < 1):
        raise DomainError(f"significance must lie in (0,1), got {significance}")
    if n < max(MINIMUM_BITS.values()):
        mins = ", ".join(f"{name} {m}" for name, m in MINIMUM_BITS.items())
        raise InsufficientLengthError(f"stream of {n} bits is below the battery minimums ({mins})")


def run_battery(bits, significance: float = 0.01) -> list:
    """All four tests on one stream; deterministic; pass iff p >= significance."""
    counts = pattern_counts(bits)
    _check_battery(counts.n, significance)
    return [test(counts, significance) for test in _TESTS]


def battery_report(results, n_bits: int) -> dict:
    return {
        "n_bits": n_bits,
        "alpha": results[0].alpha if results else None,
        "all_pass": all(r.passed for r in results),
        "tests": [r.to_json() for r in results],
    }


def calibration_tolerance(significance: float, n_runs: int) -> float:
    """3 sigma of a binomial rate estimate at the configured significance."""
    return 3 * math.sqrt(significance * (1 - significance) / n_runs)


def rejection_rates(n_runs: int = 1000, n_bits: int = 1 << 15,
                    significance: float = 0.01, seed: int = 0) -> dict:
    """Per-test rejection rates on ideal PRNG bits (the self-calibration run).

    Under the null each p-value is uniform enough that every rate should
    sit within calibration_tolerance of the significance level.
    """
    check_positive_int(n_runs, "n_runs", DomainError)
    check_positive_int(n_bits, "n_bits", DomainError)
    check_seed(seed, "seed", DomainError)
    _check_battery(n_bits, significance)
    rng = SplitMix64(seed).derive("battery-calibration")
    n_words = -(-n_bits // 64)
    # the bits of the last word that lie before n_bits
    tail = np.uint64((1 << 64) - (1 << (64 * n_words - n_bits)))
    rejected = dict.fromkeys(_STATISTICS, 0)
    for lo in range(0, n_runs, _CALIBRATION_BLOCK):
        # row i - lo is rng.derive("run", i).bit_array(n_bits), still packed
        keys = rng.derive_array("run", range(lo, min(lo + _CALIBRATION_BLOCK, n_runs)))
        words = _counter_words(keys, 0, n_words)
        words[:, -1] &= tail
        for order3, wraps in _packed_counts(words, n_bits):
            for name, test in _STATISTICS.items():
                # as TestResult.passed reads it, so a NaN p-value rejects
                rejected[name] += not (test(n_bits, order3, wraps)[1] >= significance)
    return {
        "prng": PRNG_ID,
        "seed": seed,
        "n_runs": n_runs,
        "n_bits": n_bits,
        "alpha": significance,
        "tolerance": calibration_tolerance(significance, n_runs),
        "rates": {name: Fraction(v, n_runs) for name, v in rejected.items()},
    }
