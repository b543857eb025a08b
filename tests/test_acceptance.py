"""End-to-end checks, one test per advertised guarantee.

Each test prints a single `CRITERION nn: PASS/FAIL - detail` line and the
conftest summary hook repeats the collected lines at the end of the run.
Criterion 3 is expected red; its FAIL detail carries the floor argument
showing the asked tolerance cannot be met at m = 64.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from betaenc.battery import calibration_tolerance, rejection_rates, run_battery
from betaenc.converter import (default_k_cap, fresh_state, push_bit,
                               uncertainty_interval)
from betaenc.encoder import (ConstantThreshold, FixedBeta, IidSupportBetas,
                             UniformThresholds, encode_bits)
from betaenc.entropy import WordDistribution, min_entropy_bound_check, word_distribution
from betaenc.extract import (TWO_SOURCE_WARNING, PipelineConfig, adversarial_source,
                             flat_avg_seed_tv, flat_source_family,
                             leftover_hash_bound_ok, pipeline_extract,
                             subcube_supports,
                             two_source_bound_ok, two_source_tv, word_to_bits)
from betaenc.lochs import (LochsExperiment, pm_bound_holds, pm_measure_exact,
                           run_lochs)
from betaenc.numerics import format_rational, state_bound
from betaenc.prng import SplitMix64

RESULTS = []

THREE_HALVES = Fraction(3, 2)
NINE_FIFTHS = Fraction(9, 5)


def record(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return line


# ---------------------------------------------------------------------------
# shared experiment runs


@pytest.fixture(scope="module")
def lochs_reports():
    """Six cost experiments: two gains x three threshold processes, 10^4 each."""
    configs = []
    for beta in (THREE_HALVES, NINE_FIFTHS):
        kappa = state_bound(beta)
        configs.append((beta, "u=1", ConstantThreshold(1)))
        configs.append((beta, "u=kappa", ConstantThreshold(kappa)))
        configs.append((beta, "u~U[1,kappa]", UniformThresholds(1, kappa)))
    t0 = time.perf_counter()
    reports = {}
    for i, (beta, label, thr) in enumerate(configs):
        exp = LochsExperiment(beta=beta, thresholds=thr, n_samples=10_000,
                              rng_seed=101 + i)
        reports[(format_rational(beta), label)] = run_lochs(exp)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def word_tables():
    """Exact output-word distributions for m = 1..8 under four gain models."""
    models = {
        "3/2": FixedBeta(THREE_HALVES),
        "8/5": FixedBeta(Fraction(8, 5)),
        "9/5": FixedBeta(NINE_FIFTHS),
        "iid{3/2,8/5}": IidSupportBetas(
            (THREE_HALVES, Fraction(8, 5)), (Fraction(1, 2), Fraction(1, 2))
        ),
    }
    t0 = time.perf_counter()
    tables = {
        label: [word_distribution(gains, m=m) for m in range(1, 9)]
        for label, gains in models.items()
    }
    return models, tables, time.perf_counter() - t0


def _raw_stream(run_rng, n_bits: int, segment: int = 5000) -> np.ndarray:
    """Raw encoder bits in independent restarts so state sizes stay bounded."""
    parts = []
    for j in range(n_bits // segment):
        x0 = run_rng.derive("segment", j).odd_dyadic(64)
        parts.append(encode_bits(x0, THREE_HALVES, 1, segment))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_cost_never_below_the_floor(lochs_reports):
    reports, elapsed = lochs_reports
    violations = cap_hits = cells = 0
    for rep in reports.values():
        for row in rep.rows:
            violations += row["lower_bound_violations"]
            cap_hits += row["cap_hits"]
            cells += row["samples"]
    ok = violations == 0 and cap_hits == 0 and elapsed < 60
    line = record(
        1, ok,
        f"{cells} exact costs (6 configs x 4 m x 10^4 samples), "
        f"{violations} at or below m*log2/log(beta), {cap_hits} cap hits, "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert ok, line


def test_criterion_02_tail_fractions_stay_under_eps(lochs_reports):
    reports, _ = lochs_reports
    cells = 0
    hard_misses = []
    flags = []
    worst = {}
    for key, rep in reports.items():
        for row in rep.rows:
            for entry in row["exceed"]:
                cells += 1
                eps = entry["eps"]
                frac = Fraction(entry["fraction"])
                if eps not in worst or frac > worst[eps]:
                    worst[eps] = frac
                if entry["bound_ok"]:
                    continue
                cell = (key, row["m"], eps, entry["fraction"])
                if entry["within_2se"]:
                    flags.append(cell)
                else:
                    hard_misses.append(cell)
    ok = not hard_misses
    summary = ", ".join(
        f"eps={e}: worst {float(f):.4f}" for e, f in sorted(worst.items())
    )
    note = f", {len(flags)} flagged within 2 SE" if flags else ""
    line = record(2, ok, f"{cells} cells; {summary}{note}")
    assert ok, line + f"; hard misses: {hard_misses}"


def test_criterion_03_mean_cost_ratio_at_m64(lochs_reports):
    reports, _ = lochs_reports
    rels = {}
    for beta_label in ("3/2", "9/5"):
        row = next(
            r for r in reports[(beta_label, "u=1")].rows if r["m"] == 64
        )
        rels[beta_label] = float(row["rel_error"])
    ok = all(abs(r) <= 0.02 for r in rels.values())
    detail = (
        f"mean k/m at m=64, u=1: beta 3/2 {rels['3/2']:+.2%}, "
        f"beta 9/5 {rels['9/5']:+.2%} vs 2% tolerance"
    )
    if not ok:
        detail += (
            "; structurally out of reach at this m: a resolving cylinder at "
            "beta 3/2 has length 2*(2/3)^k and must fit a 2^-64 cell, so "
            "k >= 112 for every sample and mean k/m >= 1.75, already +2.37% "
            "over the 1.70951 limit; the 2% band opens only near m >= 160 "
            "(measured +1.70% there)"
        )
    line = record(3, ok, detail)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_04_straddle_measure_bound():
    u = Fraction(1)
    eps = Fraction(1, 2)
    frozen = {3: Fraction(3655, 6561), 4: Fraction(6697, 19683)}
    parts = []
    for m in (3, 4, 5):
        measure = pm_measure_exact(THREE_HALVES, u, m, eps)
        assert pm_bound_holds(measure, m, eps), (m, measure)
        if m in frozen:
            assert measure == frozen[m]
        parts.append(f"m={m}: {float(measure):.4f} <= {2 * 2 ** (-m / 2):.4f}")
    line = record(4, True, "exact straddle measure at beta 3/2, u=1: "
                  + "; ".join(parts))
    assert line


def test_criterion_05_word_peak_bound(word_tables):
    models, tables, elapsed = word_tables
    frozen_m8 = {
        "3/2": Fraction(256, 6561),
        "8/5": Fraction(390625, 16777216),
        "9/5": Fraction(390625, 43046721),
        "iid{3/2,8/5}": Fraction(852891037441, 28179280429056),
    }
    for label, gains in models.items():
        beta_min, beta_max = gains.beta_range
        kappa = state_bound(beta_max)
        for dist in tables[label]:
            check = min_entropy_bound_check(dist, beta_min, kappa)
            assert check.ok, (label, dist.m, check)
        assert tables[label][7].max_probability()[1] == frozen_m8[label]
    ok = elapsed < 120
    line = record(
        5, ok,
        f"peak probability <= kappa/beta_min^m for 4 gain models x m <= 8, "
        f"exact; m=8 peaks match pinned values; {elapsed:.1f}s (< 120s)",
    )
    assert ok, line


def test_criterion_06_distributions_are_consistent(word_tables):
    _, tables, _ = word_tables
    identities = 0
    for label, dists in tables.items():
        for dist in dists:
            assert sum(dist.entries.values()) == 1, (label, dist.m)
        for m in range(1, 8):
            parent, child = dists[m - 1], dists[m]
            for word in range(1 << m):
                lhs = parent.prob(word)
                rhs = child.prob(2 * word) + child.prob(2 * word + 1)
                assert lhs == rhs, (label, m, word)
                identities += 1
    line = record(
        6, True,
        f"all 32 distributions sum to 1 and {identities} refinement "
        f"identities hold exactly",
    )
    assert line


def test_criterion_07_gain_drift_obstruction():
    bound = Fraction(1, 9)
    rng = SplitMix64(7).derive("acceptance-7")
    worst = None
    checked = 0

    def check(word: int, m: int):
        nonlocal worst, checked
        bits = tuple((word >> (m - 1 - i)) & 1 for i in range(m))
        length = uncertainty_interval(bits, THREE_HALVES, NINE_FIFTHS).length
        checked += 1
        if worst is None or length < worst:
            worst = length
        assert length >= bound, (m, word, length)

    for m in range(1, 15):
        for word in range(1 << (m - 1), 1 << m):
            check(word, m)
    for m in (20, 32, 48, 64):
        check(1 << (m - 1), m)
        check((1 << m) - 1, m)
        r = rng.derive("m", m)
        for i in range(300):
            check(r.derive(i).bits(m) | (1 << (m - 1)), m)
    line = record(
        7, True,
        f"uncertainty length >= 1/9 for every leading-1 word: exhaustive to "
        f"m=14 plus sampled to m=64 ({checked} words, min {float(worst):.9f}, "
        f"compared as exact rationals)",
    )
    assert line


def test_criterion_08_one_function_postprocessing_fails():
    rng = SplitMix64(8).derive("acceptance-8")
    half = Fraction(1, 2)
    worst_peak = Fraction(0)
    for i in range(100):
        table = rng.derive("table", i).bits(1 << 10)

        def ext(bits, table=table):
            idx = 0
            for b in bits:
                idx = (idx << 1) | b
            return (table >> idx) & 1

        source = adversarial_source(ext, 10)
        assert source.min_entropy_at_least(9), i
        worst_peak = max(worst_peak, source.max_probability()[1])
        out = {}
        for word, n in source.weights.items():
            y = ext(word_to_bits(word, 10))
            out[y] = out.get(y, 0) + n
        assert oracles.tv_from_uniform(WordDistribution(1, out)) == half, i
    line = record(
        8, True,
        f"100 random 10-bit tables: adversarial flat source always has "
        f"peak <= {worst_peak} (entropy >= 9) yet output sits at tv exactly "
        f"1/2 from a fair bit",
    )
    assert line


def test_criterion_09_seeded_extractor_sweep():
    m, k = 10, 6
    frozen_worst = {
        1: Fraction(1619, 32768),
        2: Fraction(2765, 32768),
        4: Fraction(97767, 524288),
    }
    t0 = time.perf_counter()
    family = flat_source_family(m, k)
    parts = []
    for n in (1, 2, 4):
        tvs = flat_avg_seed_tv(m, n, family)
        assert all(leftover_hash_bound_ok(tv, n, k) for tv in tvs), n
        assert max(tvs) == frozen_worst[n]
        parts.append(f"n={n}: worst {float(max(tvs)):.4f}")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600
    line = record(
        9, ok,
        f"{len(family)} flat (10,6)-sources x all seeds, average tv under "
        f"(1/2)*sqrt(2^(n-k)) exactly; " + "; ".join(parts)
        + f"; {elapsed:.1f}s (< 600s)",
    )
    assert ok, line


def test_criterion_10_two_source_sweep_and_warning():
    m = 6
    cubes = {k: subcube_supports(m, k) for k in range(1, m + 1)}
    pairs = 0
    worst = Fraction(0)
    for k1 in range(1, m + 1):
        for k2 in range(1, m + 1):
            if k1 + k2 < m + 2:
                continue
            for sx in cubes[k1]:
                for sy in cubes[k2]:
                    pairs += 1
                    tv = two_source_tv(sx, sy)
                    worst = max(worst, tv)
                    assert two_source_bound_ok(tv, m, k1, k2), (k1, k2)

    raw = encode_bits(Fraction(5, 17), Fraction(7, 5), 1, 64)
    cfg = PipelineConfig(mode="two-source", block_bits=16,
                         beta_min=Fraction(7, 5), beta_max=Fraction(7, 5))
    _, report = pipeline_extract(raw, cfg)
    assert TWO_SOURCE_WARNING in report["warnings"]
    assert "sqrt(2)" in TWO_SOURCE_WARNING

    quiet_raw = encode_bits(Fraction(5, 17), THREE_HALVES, 1, 64)
    quiet_cfg = PipelineConfig(mode="two-source", block_bits=16,
                               beta_min=THREE_HALVES, beta_max=THREE_HALVES)
    _, quiet = pipeline_extract(quiet_raw, quiet_cfg)
    assert TWO_SOURCE_WARNING not in quiet["warnings"]

    line = record(
        10, True,
        f"{pairs} subcube source pairs with k1+k2 >= m+2 all meet the "
        f"inner-product tv target (worst {worst}); low-gain warning "
        f"emitted at beta 7/5 and absent at 3/2",
    )
    assert line


def test_criterion_11_digits_match_the_doubling_map():
    rng = SplitMix64(11).derive("acceptance-11")
    t0 = time.perf_counter()
    n_steps = default_k_cap(32, THREE_HALVES)
    for i in range(1000):
        r = rng.derive("pt", i)
        q = 2 * r.bits(19) + 3
        p = 1 + r.bits(40) % (q - 1)
        x = Fraction(p, q)
        state = fresh_state(THREE_HALVES)
        digits = []
        for bit in encode_bits(x, THREE_HALVES, 1, n_steps):
            state, fresh = push_bit(state, int(bit), THREE_HALVES)
            digits.extend(fresh)
            if len(digits) >= 32:
                break
        assert len(digits) >= 32, (i, x, len(digits))
        assert tuple(digits[:32]) == oracles.doubling_digits(x, 32), (i, x)
    elapsed = time.perf_counter() - t0
    line = record(
        11, True,
        f"converter digits equal the doubling-map digits on 1000 rational "
        f"inputs x 32 digits, exact ({elapsed:.1f}s)",
    )
    assert line


def test_criterion_12_battery_calibration_and_pipeline():
    t0 = time.perf_counter()
    alpha = 0.01
    cal = rejection_rates(n_runs=1000, n_bits=1 << 15, significance=alpha,
                          seed=0)
    tol = calibration_tolerance(alpha, 1000)
    worst_dev = max(abs(float(rate) - alpha) for rate in cal["rates"].values())
    assert worst_dev <= tol, cal["rates"]

    raw = _raw_stream(SplitMix64(424242).derive("acceptance-12-raw"), 100_000)
    raw_results = run_battery(raw, significance=alpha)
    p_serial = next(r.p_value for r in raw_results if r.name == "serial")
    assert p_serial < alpha

    master = SplitMix64(424242).derive("acceptance-12")
    all_pass = 0
    for i in range(100):
        run_rng = master.derive("run", i)
        stream = _raw_stream(run_rng, 600_000)
        cfg = PipelineConfig(
            mode="seeded", block_bits=48, out_bits=8,
            beta_min=THREE_HALVES, beta_max=THREE_HALVES,
            seed=run_rng.derive("toeplitz-seed").bits(64),
        )
        out, _ = pipeline_extract(stream, cfg)
        if all(r.passed for r in run_battery(out, significance=alpha)):
            all_pass += 1
    elapsed = time.perf_counter() - t0
    ok = all_pass >= 95
    line = record(
        12, ok,
        f"calibration: worst |rate - 0.01| {worst_dev:.4f} <= {tol:.4f}; "
        f"raw serial p {p_serial:.2e} < 0.01; extracted streams pass all "
        f"four tests in {all_pass}/100 seeded runs (>= 95); {elapsed:.0f}s",
    )
    assert ok, line
