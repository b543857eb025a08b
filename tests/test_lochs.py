import hashlib
import json
from fractions import Fraction

import pytest

import oracles
from betaenc import lochs
from betaenc.converter import _scan, k_profile, scan_targets
from betaenc.encoder import (
    _WINDOW_BITS,
    ConstantThreshold,
    ExplicitThresholds,
    FixedBeta,
    UniformThresholds,
    _kernel_plan,
)
from betaenc.errors import ConfigurationError, DomainError, ResourceBudgetError
from betaenc.extract import PipelineConfig, flat_source_family
from betaenc.lochs import (
    LochsExperiment,
    _lazy_scaled,
    default_kbar,
    pm_bound_holds,
    pm_measure_exact,
    run_lochs,
)
from betaenc.numerics import Interval, state_bound
from betaenc.prng import SplitMix64

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
    # a bool was accepted and recorded as [true, 4]
    with pytest.raises(ConfigurationError, match="^m_values must be positive integers$"):
        LochsExperiment(beta=F(3, 2), m_values=(True, 4))


def test_experiment_refuses_a_fractional_precision():
    # accepted before, then run_lochs raised TypeError on 1 << 100.5
    with pytest.raises(ConfigurationError,
                       match="^precision_bits must be a positive integer, got 100.5$"):
        LochsExperiment(beta=F(3, 2), m_values=(4,), precision_bits=100.5)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 1, True, 1.0, "3"])
def test_seeds_outside_64_bits_are_refused(seed):
    with pytest.raises(ConfigurationError, match=r"^rng_seed must be an integer in \[0, 2\*\*64\)"):
        LochsExperiment(beta=F(3, 2), rng_seed=seed)
    assert LochsExperiment(beta=F(3, 2), rng_seed=(1 << 64) - 1).rng_seed == (1 << 64) - 1


SEEDED_PROCESSES = {
    "PipelineConfig": lambda seed: PipelineConfig(mode="seeded", block_bits=48, beta_min=F(3, 2),
                                                  beta_max=F(3, 2), seed=seed),
    "flat_source_family": lambda seed: flat_source_family(4, 2, seed=seed),
}


@pytest.mark.parametrize("make", SEEDED_PROCESSES.values(), ids=SEEDED_PROCESSES)
@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 1, True, 1.0])
def test_library_seeds_outside_64_bits_are_refused(make, seed):
    # SplitMix64 keeps a seed's low 64 bits: 2**64 + 1 would replay seed 1
    with pytest.raises(ConfigurationError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
        make(seed)
    make((1 << 64) - 1)


@pytest.mark.parametrize("field", ["n_samples", "workers", "k_cap"])
@pytest.mark.parametrize("value", [True, 2.0])
def test_counts_must_be_ints_not_bools(field, value):
    with pytest.raises(ConfigurationError, match=field):
        LochsExperiment(beta=F(3, 2), **{field: value})


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


def seeded_thresholds(beta, m_values, seed, precision_bits):
    """The one list of thresholds a seeded UniformThresholds(1, kappa) drew.

    A process seed, an option since removed, made every sample read the
    same draws, from SplitMix64(seed).derive("threshold") at the given
    precision; listed thresholds replay such a run exactly.  Returns the
    list and the JSON the seeded process wrote for itself.
    """
    kappa = state_bound(beta)
    cap = scan_targets(m_values, beta)[-1][1]
    seq = oracles.uniform_draws(1, kappa, precision_bits, SplitMix64(seed).derive("threshold"), cap)
    doc = dict(UniformThresholds(1, kappa).to_json(), seed=seed, precision_bits=precision_bits)
    return ExplicitThresholds(seq), doc


def report_digest(exp, thresholds_doc=None):
    """sha256 of the sorted-key JSON report, its thresholds entry replaced if given."""
    doc = run_lochs(exp).to_json()
    if thresholds_doc is not None:
        doc["config"]["thresholds"] = thresholds_doc
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-key JSON report and k_profile(1/3, (4, 8, 16)) under
# UniformThresholds(1, kappa), recorded before the draws became integer
# pairs; a row with a seed was recorded with the seeded process, whose one
# list of draws at precision_bits every sample shared
FROZEN_UNIFORM_RUNS = [
    (F(3, 2), None, 64, "f3050b029e32385c4f2872db4d1a9b5616f3307597951ad6dbed8d1fe61f1f42",
     [(11, False), (17, False), (30, False)]),
    (F(3, 2), 3, 17, "222e6d9e6dc2eac20400ed30f3345066f997495e197a5f7365982e946422073e",
     [(10, False), (18, False), (31, False)]),
    (F(3, 2), 3, 64, "30549ba2c49c1ee4612c70086ccb9f412812b675a967bbf936878396234bfb87",
     [(10, False), (16, False), (31, False)]),
    (F(9, 5), None, 64, "fb491b9ec02d29e39ad6bc32e32c66d6d89bea0fff5ef9c6f2ad2aff74de2053",
     [(6, False), (11, False), (21, False)]),
    (F(9, 5), 3, 17, "92a1d9459d600fa8925edd80fde246b56d323045377241313739b53f8f3fec13",
     [(7, False), (11, False), (20, False)]),
    (F(9, 5), 3, 64, "0b92fce15bc3a56dc405387697b38c0d90e9b97774a8e15f9ba84f4abe03151f",
     [(6, False), (11, False), (21, False)]),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("beta, seed, precision_bits, digest, profile", FROZEN_UNIFORM_RUNS)
def test_uniform_threshold_reports_are_frozen(beta, seed, precision_bits, digest, profile,
                                              workers):
    """Per-sample draws (no seed), or the list a seeded process shared."""
    if seed is None:
        thresholds, doc = UniformThresholds(1, state_bound(beta)), None
    else:
        thresholds, doc = seeded_thresholds(beta, (4, 8, 16), seed, precision_bits)
    exp = LochsExperiment(beta=beta, thresholds=thresholds, m_values=(4, 8), n_samples=24,
                          rng_seed=7, workers=workers)
    assert report_digest(exp, doc) == digest
    results = k_profile(F(1, 3), (4, 8, 16), beta, thresholds, rng=SplitMix64(5))
    assert [tuple(r) for r in results] == profile


# sha256 of the sorted-key JSON report at the default m = 8..64, so x is a
# 438-bit (beta 3/2) or 302-bit (beta 9/5) draw; 290 samples split into
# chunks that are not whole sub-batches; recorded before the draws were
# batched, except the seed-3 rows at 64 and 130 bits, recorded with the
# seeded process just before its removal
FROZEN_DEEP_RUNS = [
    (F(3, 2), None, None, "96bf55824a92fe50a0b480fbe1081477b6320888f2b92199ceed75fef7f9ef96"),
    (F(3, 2), None, 64, "ec46b28216ae5809d86ea76c7e020402af9d26d15543782d548525eb3d60aab4"),
    (F(3, 2), 3, 64, "741aef58503aaa90b5314bf03cd8627360e3ced8415950b6619e4336f758b856"),
    (F(3, 2), 3, 65, "e782b1464a2744bc9fcb6f26b3b92afab3320a683a8cd1a3d42cc09a3ce921c0"),
    (F(3, 2), 3, 130, "b5c08237c61948e8b8074e95a2f03388c0388ac25db27e280fbdcbf409fd4412"),
    (F(9, 5), None, None, "6d7220ea075c73b799701c8070f28520efe38875992dcab98c27a800addb4c83"),
    (F(9, 5), None, 64, "3904582c77474c5948d0cb9bdaca7281e3239161973ebf762931a4b2b0b2dfd9"),
    (F(9, 5), 3, 64, "964894eeeb1950424b61303bfbf0ff18d035c8296cc776e48468e253c3451d96"),
    (F(9, 5), 3, 65, "63cd927caeaca52863c6c3a1ec17b900107a556c1e83b4af64bda3c626cbcf9b"),
    (F(9, 5), 3, 130, "a3ca7210263ed9e93875348f27e2165e9adc7d6617f14cde623e70b3046ea09f"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("beta, seed, precision_bits, digest", FROZEN_DEEP_RUNS)
def test_deep_reports_are_frozen(beta, seed, precision_bits, digest, workers):
    """Constant u = 1 (precision_bits None), per-sample uniform thresholds on
    [1, kappa] (no seed), or the list a seeded process shared."""
    doc = None
    if precision_bits is None:
        thresholds = ConstantThreshold(1)
    elif seed is None:
        thresholds = UniformThresholds(1, state_bound(beta))
    else:
        thresholds, doc = seeded_thresholds(beta, (8, 16, 32, 64), seed, precision_bits)
    exp = LochsExperiment(beta=beta, thresholds=thresholds, n_samples=290, rng_seed=11,
                          workers=workers)
    assert exp.resolved_precision() == (438 if beta == F(3, 2) else 302)
    assert report_digest(exp, doc) == digest


@pytest.mark.parametrize("beta", [F(3, 2), F(9, 5)])
@pytest.mark.parametrize("kind, k_cap", [
    ("constant", None), ("constant", 40), ("uniform", None), ("uniform", 40), ("uniform", 12),
    ("narrow", None), ("point", None), ("listed", None), ("listed", 40)])
def test_batched_chunks_match_the_scalar_loop(beta, kind, k_cap, monkeypatch):
    """Constant u = 1; per-sample uniform thresholds on [1, kappa], on
    [7/6, 5/4] (a common denominator of 6*12*2**64) or on [1, 1]
    (unreduced pairs equal to 1); or the list a seed-5 process shared.

    Sub-batches of 7 split the chunk 3..26 unevenly.  Head margins of 0 and
    -k_min (no head at all) send most samples into the lazy tail; the
    wrapped tail counts the pairs it hands out.  A cap of 12 lies inside
    every head but the empty one, and then no sample has a tail.
    """
    kappa = state_bound(beta)
    ranges = {"uniform": (F(1), kappa), "narrow": (F(7, 6), F(5, 4)), "point": (F(1), F(1))}
    m_values = (4, 16, 64)
    fixed = uniform = None
    if kind == "constant":
        thresholds = ConstantThreshold(1)
        fixed = _kernel_plan(beta, F(1), _WINDOW_BITS)
    elif kind == "listed":
        thresholds, _ = seeded_thresholds(beta, m_values, 5, 64)
        fixed = thresholds.scaled(scan_targets(m_values, beta, k_cap)[-1][1])
    else:
        thresholds = UniformThresholds(*ranges[kind])
        uniform = ranges[kind] + (64,)
    exp = LochsExperiment(beta=beta, thresholds=thresholds, m_values=m_values,
                          n_samples=30, rng_seed=(1 << 64) - 3, k_cap=k_cap)
    targets = scan_targets(exp.m_values, beta, k_cap)
    hists, cap_hits = oracles.lochs_histograms(exp.rng_seed, beta, targets,
                                               exp.resolved_precision(), (3, 26), _scan,
                                               fixed, uniform)
    tail_pairs = []

    def counted_tail(*args):
        for pair in lazy(*args):
            tail_pairs.append(pair)
            yield pair

    lazy = lochs._lazy_scaled
    monkeypatch.setattr(lochs, "_lazy_scaled", counted_tail)
    monkeypatch.setattr(lochs, "_SUB_BATCH", 7)
    for margin in (16, 0, -targets[-1][2]):
        monkeypatch.setattr(lochs, "_HEAD_MARGIN", margin)
        tail_pairs.clear()
        got_hists, got_caps = lochs._chunk(exp, (3, 26))
        assert [dict(h) for h in got_hists] == hists and got_caps == cap_hits
        if uniform is not None and k_cap is None:
            # with no head every sample takes at least k_min pairs from its tail
            least = {16: 0, 0: 1}.get(margin, 23 * targets[-1][2])
            assert len(tail_pairs) >= least
        elif uniform is None or (k_cap == 12 and margin >= 0):
            assert not tail_pairs


@pytest.mark.parametrize("beta", [F(3, 2), F(9, 5)])
@pytest.mark.parametrize("precision_bits", [17, 64, 65, 130])
def test_listed_thresholds_take_the_shared_route(beta, precision_bits):
    """Listed thresholds as long as the cap: one list read by every sample.

    The draws are lo + span*odd/2**P at P of one, two and three stream
    words, as a seeded process once drew them.
    """
    ms = (4, 8, 16)
    targets = scan_targets(ms, beta)
    seq = oracles.uniform_draws(1, state_bound(beta), precision_bits, SplitMix64(9),
                                targets[-1][1])
    pairs = [(u.numerator, u.denominator) for u in seq]
    thresholds = ExplicitThresholds(seq)
    results = k_profile(F(1, 3), ms, beta, thresholds)
    assert [tuple(r) for r in results] == oracles.scan_steps(F(1, 3), targets, beta, iter(pairs))
    exp = LochsExperiment(beta=beta, thresholds=thresholds, m_values=ms, n_samples=30,
                          rng_seed=7)
    hists, cap_hits = oracles.lochs_histograms(exp.rng_seed, beta, targets,
                                               exp.resolved_precision(), (0, 30), _scan,
                                               pairs)
    got_hists, got_caps = lochs._chunk(exp, (0, 30))
    assert [dict(h) for h in got_hists] == hists and got_caps == cap_hits


@pytest.mark.parametrize("cap", [1, 31, 32, 33, 70, 502])
def test_lazy_thresholds_match_the_fraction_oracle(cap):
    thresholds = UniformThresholds(F(7, 6), F(5, 4))
    expected = oracles.uniform_draws(F(7, 6), F(5, 4), 64, SplitMix64(3), cap)
    # whatever the head drawn before it, the lazy rest continues the same
    # counter-mode words
    for first in (0, 1, 32, 112, 600):
        rng = SplitMix64(3)
        head = thresholds.scaled(min(first, cap), rng)
        pairs = head + list(_lazy_scaled(thresholds, rng, cap - len(head)))
        assert tuple(F(r, d) for r, d in pairs) == expected


def test_scaling_variants():
    lin = run_lochs(small_experiment()).rows[0]
    assert lin["tail"]["n_m"] == "4/1"
    sq = run_lochs(small_experiment(scaling="sqrt")).rows[0]
    assert sq["tail"]["n_m"] == "sqrt(4)"


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


@pytest.mark.parametrize("beta, u, ms", [
    (F(3, 2), F(1), (3, 4, 5, 6)),
    (F(3, 2), F(2), (3, 4, 5)),
    (F(9, 5), F(5, 4), (3, 4)),
    (F(8, 5), F(5, 3), (3, 4)),
    (F(7, 5), F(7, 5), (3,)),
])
def test_straddle_measure_matches_the_fraction_walk(beta, u, ms):
    for m in ms:
        # the default probe depth for eps = 1/2, and a deeper one
        kbar = oracles.least_power_at_least(beta, F(3 * m, 2))
        assert pm_measure_exact(beta, u, m, F(1, 2)) == oracles.pm_measure_fraction(beta, u, m, kbar)
        assert pm_measure_exact(beta, u, m, F(1, 2), kbar=kbar + 2) == \
            oracles.pm_measure_fraction(beta, u, m, kbar + 2)


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
        idx = oracles.dyadic_index(mid, m)
        cell = Interval(F(idx, 1 << m), F(idx + 1, 1 << m))
        if not oracles.interval_in_dyadic_cell(cylinder, cell):
            hits += 1
    assert abs(exact - F(hits, grid)) < F(1, 100)


def test_straddle_measure_validation(monkeypatch):
    with pytest.raises(DomainError):
        pm_measure_exact(F(3, 2), F(1, 2), 3, F(1, 2))
    for m in (0, True):
        with pytest.raises(DomainError, match="m must be"):
            pm_measure_exact(F(3, 2), F(1), m, F(1, 2))
    with pytest.raises(DomainError):
        pm_measure_exact(F(3, 2), F(1), 3, 0)
    for kbar in (0, 2.5, True):
        with pytest.raises(DomainError, match="kbar must be a positive integer"):
            pm_measure_exact(F(3, 2), F(1), 3, F(1, 2), kbar=kbar)
    monkeypatch.setattr(lochs, "NODE_BUDGET", 10)
    with pytest.raises(ResourceBudgetError, match="^prefix-tree walk passed 10 nodes; shrink the depth$"):
        pm_measure_exact(F(3, 2), F(1), 3, F(1, 2))


def test_experiment_refuses_a_gain_process_as_thresholds():
    # an AttributeError on threshold_range before roles were checked
    with pytest.raises(ConfigurationError, match="^expected a threshold process, got FixedBeta$"):
        LochsExperiment(beta=F(3, 2), thresholds=FixedBeta(F(3, 2)))
