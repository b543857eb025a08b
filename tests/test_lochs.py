import hashlib
import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from betaenc import converter, lochs
from betaenc.converter import _scan, k_profile, scan_targets
from betaenc.encoder import ConstantThreshold, ExplicitThresholds, FixedBeta, UniformThresholds
from betaenc.errors import ConfigurationError, DomainError, ResourceBudgetError
from betaenc.extract import PipelineConfig, flat_source_family
from betaenc.lochs import (
    LochsExperiment,
    default_kbar,
    pm_bound_holds,
    pm_measure_exact,
    run_lochs,
)
from betaenc.numerics import Interval, state_bound
from betaenc.prng import SplitMix64
from betaenc.tree import prefix_leaves

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


def count_rescans(monkeypatch) -> list:
    """Wrap the ``_scan`` the lockstep kernel hands undecided lanes to; returns their x."""
    rescans = []

    def counted(x, *args):
        rescans.append(x)
        return scan(x, *args)

    scan = converter._scan
    monkeypatch.setattr(converter, "_scan", counted)
    return rescans


def count_settles(monkeypatch) -> Counter:
    """Tally, over the lockstep kernel's calls, the targets its int64 bounds
    settle ("proved") and the lane tests its exact path takes outside a
    refresh ("exact")."""
    counts = Counter()

    def counted(*args):
        ks, exceeded, proved, exact = kernel(*args)
        counts.update(proved=proved, exact=exact)
        return ks, exceeded, proved, exact

    kernel = lochs._lockstep
    monkeypatch.setattr(lochs, "_lockstep", counted)
    return counts


def oracle_thresholds(beta, kind, m_values, k_cap):
    """The process of a kind, and ``oracles.lochs_histograms``' (fixed, uniform) for it.

    Constant u = 1; per-sample uniform thresholds on [1, kappa], on
    [7/6, 5/4] (a common denominator of 6*12*2**64) or on [1, 1]
    (unreduced pairs equal to 1); or the list a seed-5 process shared.
    """
    kappa = state_bound(beta)
    cap = scan_targets(m_values, beta, k_cap)[-1][1]
    if kind in ("constant", "listed"):
        thresholds = (ConstantThreshold(1) if kind == "constant"
                      else seeded_thresholds(beta, m_values, 5, 64)[0])
        return thresholds, list(thresholds.scaled(cap)), None  # every sample reads the list
    lo, hi = {"uniform": (F(1), kappa), "narrow": (F(7, 6), F(5, 4)), "point": (F(1), F(1))}[kind]
    return UniformThresholds(lo, hi), None, (lo, hi, 64)


def assert_chunk_matches_the_oracle(exp, kind, bounds):
    targets = scan_targets(exp.m_values, exp.beta, exp.k_cap)
    _, fixed, uniform = oracle_thresholds(exp.beta, kind, exp.m_values, exp.k_cap)
    hists, cap_hits = oracles.lochs_histograms(exp.rng_seed, exp.beta, targets,
                                               exp.resolved_precision(), bounds, _scan,
                                               fixed, uniform)
    got_hists, got_caps = lochs._chunk(exp, bounds)
    assert [dict(h) for h in got_hists] == hists and got_caps == cap_hits


def kind_experiment(beta, kind, **kw) -> LochsExperiment:
    """A LochsExperiment whose thresholds are ``oracle_thresholds``' process of ``kind``."""
    thresholds = oracle_thresholds(beta, kind, kw["m_values"], kw.get("k_cap"))[0]
    return LochsExperiment(beta=beta, thresholds=thresholds, **kw)


@pytest.mark.parametrize("beta", [F(3, 2), F(9, 5)])
@pytest.mark.parametrize("kind, k_cap", [
    ("constant", None), ("constant", 40), ("uniform", None), ("uniform", 40), ("uniform", 12),
    ("narrow", None), ("point", None), ("listed", None), ("listed", 40)])
def test_batched_chunks_match_the_scalar_loop(beta, kind, k_cap, monkeypatch):
    """The lockstep kernel against the per-sample loop of ``_scan``.

    Lane blocks of 7 split the chunk 3..26 unevenly, and no lane leaves
    the kernel for ``_scan``.  A cap of 12 stops every lane before the
    deepest target's k_min.
    """
    monkeypatch.setattr(lochs, "_LANES", 7)
    rescans = count_rescans(monkeypatch)
    exp = kind_experiment(beta, kind, m_values=(4, 16, 64), n_samples=30,
                          rng_seed=(1 << 64) - 3, k_cap=k_cap)
    assert_chunk_matches_the_oracle(exp, kind, (3, 26))
    assert not rescans


# digit orders per gain: the kernel's windows hold F = 58, 57, 53 and 48
# fraction bits, and refresh every 38, 19, 14 and 8 steps
LOCKSTEP_ORDERS = {F(3, 2): (3, 12, 40), F(9, 5): (3, 12, 40), F(17, 16): (2, 5),
                   F(101, 100): (2, 4)}


@pytest.mark.parametrize("kind", ["constant", "uniform", "narrow", "point", "listed"])
@pytest.mark.parametrize("beta", list(LOCKSTEP_ORDERS), ids=str)
def test_lockstep_matches_the_scan_oracle(beta, kind, monkeypatch):
    """Histograms and cap hits of the kernel equal the per-sample ``_scan``
    loop at m+1, 64, 65 and 130 sample bits and caps None, 12 and 40, in
    lane blocks of 4, 4 and 1; none of the lanes needs ``_scan``."""
    monkeypatch.setattr(lochs, "_LANES", 4)
    rescans = count_rescans(monkeypatch)
    ms = LOCKSTEP_ORDERS[beta]
    for precision_bits in (ms[-1] + 1, 64, 65, 130):
        for k_cap in (None, 12, 40):
            exp = kind_experiment(beta, kind, m_values=ms, n_samples=9, rng_seed=precision_bits,
                                  precision_bits=precision_bits, k_cap=k_cap)
            assert_chunk_matches_the_oracle(exp, kind, (0, 9))
    assert not rescans


@pytest.mark.parametrize("kind", ["uniform", "listed"])
def test_two_workers_match_the_scan_oracle(kind):
    """run_lochs with two workers gives the rows of the oracle's histograms."""
    beta, ms = F(9, 5), (4, 16, 64)
    exp = kind_experiment(beta, kind, m_values=ms, n_samples=37, rng_seed=19, workers=2)
    _, fixed, uniform = oracle_thresholds(beta, kind, ms, None)
    hists, cap_hits = oracles.lochs_histograms(exp.rng_seed, beta, scan_targets(ms, beta),
                                               exp.resolved_precision(), (0, 37), _scan,
                                               fixed, uniform)
    rows = [lochs._row(exp, m, Counter(h), c) for m, h, c in zip(ms, hists, cap_hits)]
    assert list(run_lochs(exp).rows) == rows


@pytest.mark.parametrize("fraction_bits", [6, 16])
@pytest.mark.parametrize("kind", ["constant", "uniform", "listed"])
def test_narrow_windows_hand_lanes_to_the_scan(kind, fraction_bits, monkeypatch):
    """With 6 or 16 fraction bits the windows straddle thresholds within a
    few steps: the undecided lanes rescan from scratch, the rest decide
    every bit on coarse windows, and the results do not change.  At 16 bits
    a window whose upper ends were floored instead of ceiled gave wrong
    histograms under u = 1."""
    monkeypatch.setattr(converter, "_fraction_bits", lambda beta: fraction_bits)
    monkeypatch.setattr(lochs, "_LANES", 128)
    rescans = count_rescans(monkeypatch)
    exp = kind_experiment(F(3, 2), kind, m_values=(4, 16, 64), n_samples=300, rng_seed=23)
    assert_chunk_matches_the_oracle(exp, kind, (0, 300))
    assert len(rescans) > 0


@pytest.mark.parametrize("beta, fraction_bits, kind, proved, exact", [
    (F(3, 2), 5, "constant", 27, 41),
    (F(3, 2), 6, "constant", 44, 36), (F(3, 2), 6, "listed", 30, 41),
    (F(3, 2), 16, "constant", 291, 185), (F(3, 2), 16, "listed", 287, 157),
    (F(9, 5), 6, "constant", 41, 74), (F(9, 5), 6, "listed", 29, 62),
    (F(9, 5), 16, "constant", 270, 219), (F(9, 5), 16, "listed", 262, 222)], ids=str)
def test_coarse_bounds_take_the_exact_path(beta, fraction_bits, kind, proved, exact,
                                           monkeypatch):
    """With 5, 6 or 16 fraction bits the bounds on d and e often straddle
    zero: those lanes take the exact cell test, the rest settle on their
    bounds, and the histograms equal the scan's.  The two counts are
    frozen, so a change to which lanes the bounds settle shows here even
    where it leaves these results alone: a proof on d > 0 in place of
    d >= 0 moves lanes at 5 bits and at 6 bits under listed thresholds, and
    one on -e <= 0 in place of -e < 0 at 5 bits."""
    monkeypatch.setattr(converter, "_fraction_bits", lambda beta: fraction_bits)
    monkeypatch.setattr(lochs, "_LANES", 64)
    counts = count_settles(monkeypatch)
    exp = kind_experiment(beta, kind, m_values=(3, 6, 12), n_samples=150, rng_seed=29)
    assert_chunk_matches_the_oracle(exp, kind, (0, 150))
    assert counts == {"proved": proved, "exact": exact}


@pytest.mark.parametrize("kind", ["constant", "uniform"])
def test_full_lane_blocks_match_the_scan_oracle(kind):
    """_LANES + 3 samples: one full lane block and one of 3 lanes."""
    exp = kind_experiment(F(9, 5), kind, m_values=(3, 10), n_samples=lochs._LANES + 3,
                          rng_seed=31)
    assert_chunk_matches_the_oracle(exp, kind, (0, lochs._LANES + 3))


@pytest.mark.parametrize("n, workers, bounds", [
    (1000, 2, [(0, 500), (500, 1000)]),
    (10_000, 2, [(i, min(i + 1024, 10_000)) for i in range(0, 10_000, 1024)]),
    (2048, 3, [(0, 683), (683, 1366), (1366, 2048)]),
    (3, 8, [(0, 1), (1, 2), (2, 3)]),
])
def test_workers_take_whole_lane_blocks(n, workers, bounds):
    """run_lochs' pieces are whole lane blocks, cut smaller only when a
    worker would otherwise get none."""
    assert lochs._LANES == 1024
    assert lochs._pieces(n, workers) == bounds


@pytest.mark.parametrize("kind", ["constant", "uniform"])
def test_a_gain_with_huge_terms_rescans_every_lane(kind, monkeypatch):
    """At beta = (2**61 + 2**55 + 1)/2**61, p * (kappa + 2) passes 2**62, so
    int64 has no room for a window: every lane goes to ``_scan``."""
    rescans = count_rescans(monkeypatch)
    beta = F(2**61 + 2**55 + 1, 2**61)
    assert converter._fraction_bits(beta) < 1
    exp = kind_experiment(beta, kind, m_values=(2, 4), n_samples=3, rng_seed=5)
    assert_chunk_matches_the_oracle(exp, kind, (0, 3))
    assert len(rescans) == 3


def test_the_benchmark_configs_need_no_rescan(monkeypatch):
    """The six lochs runs of ``perfbench`` at seed 0 (1000 samples each): no lane
    leaves the kernel, so its windows decide every bit there, and its int64
    bounds settle most of the 24 000 targets without an exact test."""
    rescans = count_rescans(monkeypatch)
    counts = count_settles(monkeypatch)
    root = SplitMix64(0).derive("bench-lochs")
    for beta in (F(3, 2), F(9, 5)):
        kappa = state_bound(beta)
        name = f"beta{beta.numerator}_{beta.denominator}"
        for label, thresholds in ((".u1", ConstantThreshold(1)),
                                  (".ukappa", ConstantThreshold(kappa)),
                                  (".uiid", UniformThresholds(1, kappa))):
            exp = LochsExperiment(beta=beta, thresholds=thresholds, n_samples=1000,
                                  rng_seed=root.derive(name + label).next64())
            hists, cap_hits = lochs._chunk(exp, (0, 1000))
            assert sum(hists[-1].values()) == 1000 and not any(cap_hits)
    assert not rescans
    assert counts["proved"] > 24_000 * 4 // 5 and counts["exact"] < 24_000 // 5


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
    """The kernel's threshold bounds, drawn one word block at a time as the
    steps reach it, hold 2**F * q * u for each draw u of the fraction
    oracle, within 2**_DRAW_BITS + 2**(F - _DRAW_BITS) * q * span + 2."""
    lo, hi = F(7, 6), F(5, 4)
    thresholds = UniformThresholds(lo, hi)
    keys = SplitMix64(3).derive_array("sample", range(5))
    draws = [oracles.uniform_draws(lo, hi, 64, SplitMix64(0, (), int(key)), cap) for key in keys]
    for q, fraction_bits in ((2, 58), (5, 57), (100, 48), (2, 6)):
        blocks = [converter._draw_bounds(thresholds, keys, start, q, fraction_bits)
                  for start in range(0, cap, converter._WORD_BLOCK)]
        lows = np.concatenate([b[0] for b in blocks])[:cap].T.tolist()
        highs = np.concatenate([b[1] for b in blocks])[:cap].T.tolist()
        scale = q * 2**fraction_bits
        slack = (1 << converter._DRAW_BITS) + scale * (hi - lo) / 2**converter._DRAW_BITS + 2
        for row, low, high in zip(draws, lows, highs):
            for u, a, b in zip(row, low, high):
                assert a <= scale * u <= b and b - a <= slack


def test_scaling_variants():
    lin = run_lochs(small_experiment()).rows[0]
    assert lin["tail"]["n_m"] == "4/1"
    sq = run_lochs(small_experiment(scaling="sqrt")).rows[0]
    assert sq["tail"]["n_m"] == "sqrt(4)"


ROW_BETAS = [F(17, 16), F(5, 4), F(3, 2), F(8, 5), F(7, 4), F(9, 5), F(199, 100)]


@settings(max_examples=150)
@given(data=st.data(),
       beta=st.sampled_from(ROW_BETAS) | st.fractions(F(17, 16), F(199, 100), max_denominator=100),
       m=st.integers(1, 64), scaling=st.sampled_from(lochs.SCALINGS),
       tail_eps=st.fractions(F(1, 1000), F(5, 2), max_denominator=1000),
       eps_values=st.lists(st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000),
                           min_size=1, max_size=3))
def test_row_counts_match_the_per_bin_oracle(data, beta, m, scaling, tail_eps, eps_values):
    """Each count of a row, read at a cut into the sorted histogram, equals
    the oracle's bin-by-bin count.

    The histogram puts random counts on every k within 2 of a cut (placed
    by float estimates) and on up to four k anywhere in [0, 2*m*r + 10].
    """
    r = math.log(2) / math.log(beta)
    t = float(tail_eps) * (m if scaling == "linear" else math.sqrt(m))
    # the linear oracle forms beta**(k*td) per bin: keep those under about 2**18 bits
    top = 2 * m * r + 10
    assume(scaling == "sqrt"
           or top * (tail_eps * m).denominator * beta.numerator.bit_length() <= 1 << 18)
    anchors = [m * r, m * r - t, m * r + t] + [(m + 1 - math.log2(e)) * r + 1 for e in eps_values]
    ks = {max(0, round(a) + d) for a in anchors for d in range(-2, 3)}
    ks = sorted(ks | set(data.draw(st.lists(st.integers(0, int(top)), max_size=4))))
    counts = data.draw(st.lists(st.integers(0, 3), min_size=len(ks), max_size=len(ks)))
    hist = Counter({k: c for k, c in zip(ks, counts) if c})
    assume(hist)
    assert_row_matches_the_oracle(beta, m, hist, eps_values, tail_eps, scaling)


@pytest.mark.parametrize("scaling", lochs.SCALINGS)
@pytest.mark.parametrize("m, eps", [(1, F(64, 81)), (2, F(512, 729))])
def test_row_counts_at_an_exact_tie(m, eps, scaling):
    """eps * (3/2)**(k-1) = 2**(m+1) at k = 5 (m = 1) and k = 7 (m = 2): not an excess.

    Powers of beta never meet a power of 2, so only the eps rule can tie.
    """
    hist = Counter({k: 1 for k in range(2 * m + 1, 2 * m + 6)})
    row = assert_row_matches_the_oracle(F(3, 2), m, hist, [eps], F(1, 10), scaling)
    assert row["exceed"][0]["fraction"] == "2/5"


def assert_row_matches_the_oracle(beta, m, hist, eps_values, tail_eps, scaling) -> dict:
    exp = LochsExperiment(beta=beta, m_values=(m,), eps_values=eps_values, tail_eps=tail_eps,
                          scaling=scaling)
    row = lochs._row(exp, m, hist, 5)
    want = oracles.lochs_row_counts(beta, m, hist, lochs.QUANTILE_LEVELS, exp.eps_values,
                                    tail_eps, scaling)
    n = sum(hist.values())
    assert (row["samples"], row["cap_hits"]) == (n, 5)
    assert row["lower_bound_violations"] == want["lower_bound_violations"]
    assert [F(e["fraction"]) for e in row["exceed"]] == [F(c, n) for c in want["exceed"]]
    assert F(row["tail"]["mass"]) == F(want["tail"], n)
    assert list(row["quantile_k"].values()) == want["quantiles"]
    assert (row["min_k"], row["max_k"]) == (want["min_k"], want["max_k"])
    return row


@pytest.mark.parametrize("scaling", lochs.SCALINGS)
@pytest.mark.parametrize("tail_eps", [F(1, 10), F(1), F(10), F(1000)])
@pytest.mark.parametrize("m", [1, 8, 64, 500])
@pytest.mark.parametrize("beta", [F(3, 2), F(9, 5), F(4, 3)])
def test_row_cuts_match_the_decimal_and_power_references(beta, m, tail_eps, scaling):
    """The lower bound and the tail cut at floor(m*r -+ t) + 1, r = log2/log(beta).

    The cuts are read off 120-digit decimals, and for a rational t up to
    1000 also off exact powers.  The histogram holds every k in [1, 2*lower
    + 10] within 2 of a cut, so a large t leaves m*r - t below 0 and m*r + t
    above the largest k.
    """
    c, radicand = (tail_eps, m) if scaling == "sqrt" else (tail_eps * m, 1)
    lower, lo, hi = (oracles.rate_cut(beta, m, s * c, radicand) for s in (0, -1, 1))
    root = math.isqrt(radicand)
    if root * root == radicand and c * root <= 1000:
        assert oracles.rate_cuts_by_powers(beta, m, c * root) == (lower, lo, hi)
    top = 2 * lower + 10
    ks = {k for cut in (lower, lo, hi) for k in range(cut - 2, cut + 3) if 1 <= k <= top}
    hist = Counter({k: 1 + k % 3 for k in ks})
    exp = LochsExperiment(beta=beta, m_values=(m,), tail_eps=tail_eps, scaling=scaling)
    row = lochs._row(exp, m, hist, 0)
    assert row["lower_bound_violations"] == sum(n for k, n in hist.items() if k < lower)
    tail = sum(n for k, n in hist.items() if not lo <= k < hi)
    assert F(row["tail"]["mass"]) == F(tail, sum(hist.values()))


@pytest.mark.parametrize("m, tail_eps, ks, mass", [
    # m*log2/log(3/2) = 109.45..., more than t = 64/9973 from every integer
    (64, F(1, 9973), range(100, 120), "1/1"),
    # t = 2**20 exceeds every k, and the upper cut m*r + t the search limit
    (8, F(1 << 17), range(20, 30), "0/1"),
])
def test_rows_at_extreme_tail_eps_are_fast(m, tail_eps, ks, mass):
    """One bracket per cut: a test per bin forms beta**(k*td -+ tn) for each
    bin, about 3 s for either row, and a power search for the upper cut of
    the second would be refused."""
    exp = LochsExperiment(beta=F(3, 2), m_values=(m,), tail_eps=tail_eps)
    hist = Counter({k: 1 + k % 3 for k in ks})
    start = time.perf_counter()
    row = lochs._row(exp, m, hist, 0)
    assert time.perf_counter() - start < 1.5
    assert row["tail"]["mass"] == mass


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


@pytest.mark.parametrize("kbar", [15, 16, 64, 70])
def test_deep_narrow_walk_matches_the_fraction_and_node_walks(kbar):
    # beta = 17/16 walks one narrow path per level.  unit = 17**kbar keeps
    # the walk on int64 up to kbar = 15 (2 * 17**15 < 2**63), where the cell
    # test's P << m already passes 2**63; from kbar = 64 on words do too
    beta, u, m = F(17, 16), F(1), 2
    assert pm_measure_exact(beta, u, m, F(1, 2), kbar=kbar) == \
        oracles.pm_measure_fraction(beta, u, m, kbar)
    choices, u_seq = [[(beta, 1)]] * kbar, (u,) * kbar
    unit, batches = prefix_leaves(choices, u_seq)
    batches = list(batches)
    assert {b.dtype for b in batches} == {np.dtype(np.int64 if kbar == 15 else object)}
    leaves = sorted(leaf for batch in batches for leaf in zip(*batch.tolist()))
    want_unit, want = oracles.prefix_leaves_dfs(choices, u_seq)
    assert unit == want_unit and leaves == sorted(want)
    assert (leaves[-1][0] >= 1 << 63) == (kbar >= 64)


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
