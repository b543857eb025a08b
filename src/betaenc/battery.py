"""Four-test statistical battery with closed-form p-values.

Monobit, runs, serial (order 2), and approximate entropy (order 2):
chosen so every p-value is an erfc / exponential expression and no
incomplete-gamma tables are needed.  Each test is one float function of
the stream's cyclic order-3 pattern count (n, order3, wraps), which exact
popcounts of the stream packed into 64-bit words give.  The calibration
draws its PRNG runs 32 at a time as packed SplitMix64 words and decides
1024 runs at a time: the same functions score the runs' count columns
(numpy's exp and log where a number takes math's), and a call on one run's
numbers decides only where a column p-value lies within its error band of
the significance; it builds no TestResult.  This is supporting evidence
for the extraction pipeline, not a conformance suite.
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
# calibration runs decided per array call, a multiple of _CALIBRATION_BLOCK: per
# 32-run block, numpy's per-call overhead would eat most of the array gain
_DECISION_CHUNK = 1024

MINIMUM_BITS = {
    "monobit": 100,
    "runs": 100,
    "serial": 64,
    "approximate-entropy": 256,
}


def _alpha_json(alpha):
    """A float significance as a JSON number; a Decimal or Fraction as its exact str."""
    return alpha if isinstance(alpha, float) else str(alpha)


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
            "statistic": "nan" if math.isnan(stat) else decimal_str(Decimal(repr(float(stat)))),
            "p_value": decimal_str(Decimal(repr(float(self.p_value)))),
            "pass": self.passed,
            "alpha": _alpha_json(self.alpha),
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


def _packed_counts(words: np.ndarray, n: int) -> tuple:
    """(order3, wraps) of a (rows, words) uint64 array of n-bit streams, as arrays.

    ``order3`` is (rows, 8) and ``wraps`` is (rows,), both int64.  Bits are
    MSB-first and bits past n are zero; a row has at least one word.  With
    p, q, r the stream and its cyclic shifts by 1 and 2, each order-3 count
    is an inclusion-exclusion of n, #p, #(p&q) = #(q&r), #(p&r) and
    #(p&q&r).  The shifted words ``w<<1 | next>>63`` and ``w<<2 | next>>62``
    read zeros past n, so the popcounts miss only the windows starting at
    n-2 and n-1, added from bits 0, 1, n-2 and n-1 (indices mod n, so n = 1
    and n = 2 count each window once).
    """
    def popcount(a):
        return np.bitwise_count(a).sum(axis=1, dtype=np.int64)

    def bit(j):
        j %= max(n, 1)
        return (words[:, j // 64] >> (63 - j % 64) & 1).astype(np.int64)

    first, second, penult, last = (bit(j) for j in (0, 1, n - 2, n - 1))
    two = int(n >= 2)  # a window starts at n-2 only if n >= 2
    # q and r are built and masked in place, with no zero-padded copy of the
    # words: a fresh array per step took ~40% of run_battery at 600k bits
    q = words << 1
    q[:, :-1] |= words[:, 1:] >> 63
    r = words << 2
    r[:, :-1] |= words[:, 1:] >> 62
    s1 = popcount(words)
    q &= words  # p&q
    s_pq = popcount(q) + (last & first)
    q &= r  # p&q&r
    s_pqr = popcount(q) + two * (penult & last & first) + (last & first & second)
    r &= words  # p&r
    s_pr = popcount(r) + two * (penult & first) + (last & second)
    x, y, z = s_pq - s_pqr, s_pr - s_pqr, s_pqr  # #011 = #110, #101, #111
    e = s1 - x - y - z  # #100 = #001
    order3 = np.stack((n - 2 * e - s1 - y, e, s1 - 2 * x - z, x, e, y, x, z), axis=1)
    return order3, last ^ first


def pattern_counts(bits) -> PatternCounts:
    """Validate a bit stream once and count its order-3 patterns on packed words."""
    if isinstance(bits, PatternCounts):
        return bits
    arr = as_bit_array(bits)
    n = arr.size
    packed = np.zeros(8 * max(1, -(-n // 64)), dtype=np.uint8)
    packed[: -(-n // 8)] = np.packbits(arr)
    order3, wraps = _packed_counts(packed.view(">u8").astype(np.uint64)[None, :], n)
    return PatternCounts(n, tuple(order3[0].tolist()), int(wraps[0]))


def _marginals(c: tuple) -> tuple:
    """The order-1 and order-2 counts of an order-3 pattern count (numbers or columns)."""
    pairs = (c[0] + c[1], c[2] + c[3], c[4] + c[5], c[6] + c[7])
    return (pairs[0] + pairs[1], pairs[2] + pairs[3]), pairs


# A test scores one stream from plain numbers, or a block of calibration runs
# from count columns; only these four helpers tell the two apart.
def _erfc(x):
    """math.erfc of a number, or of each entry of a column."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.erfc, x.tolist()), np.float64, x.size)
    return math.erfc(x)


def _exp(x):
    """math.exp of a number; np.exp of a column."""
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _plogp(x):
    """x log x, 0 at x = 0: math.log for a number; np.log for a column."""
    if isinstance(x, np.ndarray):
        return np.where(x != 0, x * np.log(x), 0.0)
    return x * math.log(x) if x else 0.0


def _where(keep, value, other):
    """``value if keep else other`` for a number; np.where for a column."""
    if isinstance(keep, np.ndarray):
        return np.where(keep, value, other)
    return value if keep else other


def _monobit(n: int, order3: tuple, wraps) -> tuple:
    total = 2 * _marginals(order3)[0][1] - n
    s_obs = abs(total) / math.sqrt(n)
    return s_obs, _erfc(s_obs / math.sqrt(2)), {"bit_sum": total}


def _runs(n: int, order3: tuple, wraps) -> tuple:
    ones, pairs = _marginals(order3)
    pi = ones[1] / n
    # monobit prerequisite; where it fails the runs statistic is meaningless and p = 0.0.
    # Below 16 bits 2/sqrt(n) exceeds 1/2, and the cap still fails a constant stream
    failed = abs(pi - 0.5) >= min(2 / math.sqrt(n), 0.5)
    if not isinstance(failed, np.ndarray) and failed:
        return float("nan"), 0.0, {"ones_fraction": pi, "prerequisite": "failed"}
    v = 1.0 + pairs[0b01] + pairs[0b10] - wraps  # an integer below 2**53, exact
    num = abs(v - 2 * n * pi * (1 - pi))
    den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
    return v, _where(failed, 0.0, _erfc(num / den)), {"ones_fraction": pi}


def _serial(n: int, order3: tuple, wraps) -> tuple:
    """Order-2 overlapping serial test; p = exp(-delta_psi2 / 2)."""
    ones, pairs = _marginals(order3)
    delta = (4 / n * sum(c * c for c in pairs) - n) - (2 / n * sum(c * c for c in ones) - n)
    # delta >= 0 up to rounding; clamp so p stays a probability
    p = _exp(-delta / 2)
    return delta, _where(p < 1.0, p, 1.0), {}


def _approximate_entropy(n: int, order3: tuple, wraps) -> tuple:
    """Order-2 approximate entropy; p = exp(-x/2) * (1 + x/2) for x = chi2."""

    def phi(counts: tuple):
        return sum(_plogp(c / n) for c in counts)

    ap_en = phi(_marginals(order3)[1]) - phi(order3)
    chi2 = 2 * n * (math.log(2) - ap_en)
    x = chi2 / 2
    p = _exp(-x) * (1 + x)
    return chi2, _where(p < 1.0, p, 1.0), {"ap_en": ap_en}


# (statistic, p_value, extras) of each test from (n, order3, wraps), by test name
_STATISTICS = dict(zip(MINIMUM_BITS, (_monobit, _runs, _serial, _approximate_entropy)))


def _rejections(n: int, order3: np.ndarray, wraps: np.ndarray, significance) -> np.ndarray:
    """(rows, 4) bool: not (p >= significance), the scalar tests' decision, per row and test.

    ``order3`` and ``wraps`` are rows of ``_packed_counts``; each
    ``_STATISTICS`` function scores all rows at once on their count
    columns.  Conversions, + - * / and sqrt round correctly in numpy as in
    Python, and erfc is ``math.erfc`` on each entry, so the monobit and
    runs columns equal the scalar p-values bit for bit.  Only ``np.exp`` and
    ``np.log`` may differ from ``math.exp`` and ``math.log``; taking numpy's
    within 4 ulp of the true value and libm's within 1, by at most 5 ulp:
    - serial: p = exp(-delta/2) with delta the scalar's, so |dp| <= 2**-49 p;
    - approximate entropy: 12 logs feed terms of size at most 1/e and 14
      sums of size at most log 8, so log 2 - ApEn moves by under 2**-46,
      which x = chi2/2 = n (log 2 - ApEn) multiplies by n.  As |dp/dx| =
      p x/(1+x) < p, |dp| <= p (n + 1) 2**-45.
    A column p-value within significance * (n + 1) * 2**-40 of the
    significance (32 times that bound, which also covers rounding the
    significance to a float) is decided by the scalar function against the
    caller's own significance, so a Decimal or Fraction compares exactly.
    A NaN p-value rejects.
    """
    tests = tuple(_STATISTICS.values())
    columns = tuple(order3.T)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked by the tests' own np.where
        p = np.stack([test(n, columns, wraps)[1] for test in tests], axis=1)
    alpha = float(significance)
    rejected = ~(p >= alpha)
    for row, col in zip(*np.nonzero(np.abs(p - alpha) <= alpha * (n + 1) * 2.0**-40)):
        p_scalar = tests[col](n, tuple(order3[row].tolist()), int(wraps[row]))[1]
        rejected[row, col] = not (p_scalar >= significance)
    return rejected


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
    try:
        inside = 0 < significance < 1
    except (TypeError, ArithmeticError):  # a str has no order; a Decimal NaN signals
        inside = False
    if not inside:
        raise DomainError(f"significance must lie in (0,1), got {significance!r}")
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
        "alpha": _alpha_json(results[0].alpha) if results else None,
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
    rejected = np.zeros(len(_STATISTICS), dtype=np.int64)
    for lo in range(0, n_runs, _DECISION_CHUNK):
        hi = min(lo + _DECISION_CHUNK, n_runs)
        blocks = []
        for start in range(lo, hi, _CALIBRATION_BLOCK):
            # row i - start is rng.derive("run", i).bit_array(n_bits), still packed
            keys = rng.derive_array("run", range(start, min(start + _CALIBRATION_BLOCK, hi)))
            words = _counter_words(keys, 0, n_words)
            words[:, -1] &= tail
            blocks.append(_packed_counts(words, n_bits))
        order3, wraps = (np.concatenate(part) for part in zip(*blocks))
        rejected += _rejections(n_bits, order3, wraps, significance).sum(axis=0)
    return {
        "prng": PRNG_ID,
        "seed": seed,
        "n_runs": n_runs,
        "n_bits": n_bits,
        "alpha": significance,
        "tolerance": calibration_tolerance(significance, n_runs),
        "rates": {name: Fraction(v, n_runs) for name, v in zip(_STATISTICS, rejected.tolist())},
    }
