from fractions import Fraction

import pytest

import oracles
from betaenc.encoder import ConstantThreshold, UniformThresholds
from betaenc.errors import ConfigurationError, DomainError, ResourceBudgetError
from betaenc.lochs import (
    LochsExperiment,
    default_kbar,
    pm_bound_holds,
    pm_measure_exact,
    run_lochs,
)
from betaenc.numerics import Interval, dyadic_index, interval_in_dyadic_cell, state_bound

F = Fraction


def small_experiment(**kw):
    base = dict(beta=F(3, 2), m_values=(4, 8), n_samples=40, rng_seed=7)
    base.update(kw)
    return LochsExperiment(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), m_values=())
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), m_values=(8, 8))
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), n_samples=0)
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), scaling="cube")
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), scaling="custom")
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), eps_values=(F(3, 2),))
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), tail_eps=0)
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), m_values=(8, 16), precision_bits=16)
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), workers=0)
    with pytest.raises(ConfigurationError):
        LochsExperiment(beta=F(3, 2), thresholds=ConstantThreshold(F(5, 2)))


def test_default_precision_tracks_deepest_order():
    exp = LochsExperiment(beta=F(3, 2))
    assert exp.m_values == (8, 16, 32, 64)
    assert exp.resolved_precision() == 438
    assert small_experiment(precision_bits=100).resolved_precision() == 100


def test_runs_are_deterministic():
    a = run_lochs(small_experiment()).to_json()
    b = run_lochs(small_experiment()).to_json()
    assert a == b


def test_worker_count_does_not_change_results():
    serial = run_lochs(small_experiment(n_samples=20))
    parallel = run_lochs(small_experiment(n_samples=20, workers=2))
    assert serial.rows == parallel.rows


def test_row_contents_on_small_run():
    report = run_lochs(small_experiment())
    assert report.precision_bits == 55
    assert "odd-numerator draws" in report.boundary_risk
    row = report.rows[0]
    assert row["m"] == 4
    assert row["samples"] == 40
    assert row["cap_hits"] == 0
    # containment needs beta**k > kappa * 2**m, so k >= 9 at m = 4
    assert row["min_k"] >= 9
    assert row["lower_bound_violations"] == 0
    q = row["quantile_k"]
    assert q["1/2"] <= q["9/10"] <= q["99/100"] <= row["max_k"]
    for rec in row["exceed"]:
        assert rec["bound_ok"] in (True, False)
    assert report.rows[1]["m"] == 8


def test_mean_ratio_is_reasonable_even_at_small_m():
    # the plateau sits above the limit log2/log(beta); at m = 8 expect
    # roughly a 30% overshoot, certainly under a factor of two
    report = run_lochs(small_experiment(n_samples=60))
    row = report.rows[1]
    ratio = float(row["mean_k_over_m"])
    target = oracles.lochs_target(F(3, 2))
    assert abs(float(row["target"]) - target) < 1e-10
    assert target < ratio < 2 * target


def test_random_thresholds_per_sample():
    thresholds = UniformThresholds(F(1), F(2))
    report = run_lochs(small_experiment(thresholds=thresholds, n_samples=15))
    assert report.rows[0]["lower_bound_violations"] == 0
    # unseeded process: fresh thresholds per sample, still deterministic
    again = run_lochs(small_experiment(thresholds=thresholds, n_samples=15))
    assert report.rows == again.rows


def test_scaling_variants():
    lin = run_lochs(small_experiment()).rows[0]
    assert lin["tail"]["n_m"] == "4/1"
    sq = run_lochs(small_experiment(scaling="sqrt")).rows[0]
    assert sq["tail"]["n_m"] == "sqrt(4)"
    custom = run_lochs(
        small_experiment(scaling="custom", custom_scale=(F(2), F(3)))
    ).rows[0]
    assert custom["tail"]["n_m"] == "2/1"
    assert custom["scaled_variance"]["n_m_squared"] == "4/1"


@pytest.mark.parametrize("workers", [1, 2])
def test_cap_below_one_rejected_at_run(workers):
    with pytest.raises(ConfigurationError):
        run_lochs(small_experiment(n_samples=2, k_cap=0, workers=workers))


def test_csv_rows_shape():
    rows = run_lochs(small_experiment()).csv_rows()
    assert [r["m"] for r in rows] == [4, 8]
    assert set(rows[0]) == {
        "m",
        "mean_k_over_m",
        "target",
        "mean_k",
        "min_deviation",
        "tail_mass",
        "cap_hits",
    }


def test_config_json_omits_worker_count():
    doc = small_experiment(workers=3).to_json()
    assert "workers" not in doc
    assert doc["beta"] == "3/2"
    assert doc["precision_bits"] == 55


def test_probe_depth_default():
    assert default_kbar(F(3, 2), 3, F(1, 2)) == 8
    assert default_kbar(F(3, 2), 4, F(1, 2)) == 11
    assert default_kbar(F(3, 2), 5, F(1, 2)) == 13


def test_straddle_measure_frozen_values():
    assert pm_measure_exact(F(3, 2), F(1), 3, F(1, 2)) == F(3655, 6561)
    assert pm_measure_exact(F(3, 2), F(1), 4, F(1, 2)) == F(6697, 19683)
    for m, value in ((3, F(3655, 6561)), (4, F(6697, 19683))):
        assert pm_bound_holds(value, m, F(1, 2))
    assert not pm_bound_holds(F(1), 3, F(1, 2))


def test_straddle_measure_matches_grid():
    # midpoints of 2^13 cells, encoded kbar steps; the indicator of "cylinder
    # escapes the order-m cell" integrates to the exact measure up to the
    # boundary cells of the prefix intervals
    beta, u, m = F(3, 2), F(1), 3
    kbar = default_kbar(beta, m, F(1, 2))
    exact = pm_measure_exact(beta, u, m, F(1, 2))
    grid = 1 << 13
    kappa = state_bound(beta)
    scale = beta**-kbar
    hits = 0
    for i in range(grid):
        mid = F(2 * i + 1, 2 * grid)
        bits = oracles.encoder_bits(mid, beta, [u] * kbar, kbar)
        lo = sum(F(b) * beta**-j for j, b in enumerate(bits, start=1))
        cylinder = Interval(lo, lo + kappa * scale)
        idx = dyadic_index(mid, m)
        cell = Interval(F(idx, 1 << m), F(idx + 1, 1 << m))
        if not interval_in_dyadic_cell(cylinder, cell):
            hits += 1
    assert abs(exact - F(hits, grid)) < F(1, 100)


def test_straddle_measure_validation():
    with pytest.raises(DomainError):
        pm_measure_exact(F(3, 2), F(1, 2), 3, F(1, 2))
    with pytest.raises(DomainError):
        pm_measure_exact(F(3, 2), F(1), 0, F(1, 2))
    with pytest.raises(DomainError):
        pm_measure_exact(F(3, 2), F(1), 3, 0)
    with pytest.raises(DomainError):
        pm_measure_exact(F(3, 2), F(1), 3, F(1, 2), kbar=0)
    with pytest.raises(ResourceBudgetError):
        pm_measure_exact(F(3, 2), F(1), 3, F(1, 2), node_budget=10)
