"""Digit-transfer statistics: how many stream bits buy m binary digits.

The Monte-Carlo side samples uniform inputs as full-precision dyadic
rationals (odd numerators, so no sample ever sits on a probed cell
boundary) and collects the exact histogram of the transfer count k for
every requested digit order m.  Samples go in lane blocks of _LANES (a
pool of workers takes whole blocks): one set of uint64 array operations
gives each block's keys and x numerators, and ``converter._lockstep``
takes one encoder step for every lane of the block at once, deciding
each bit and most containments on int64 bounds and the containments
those leave open on exact integers (a lane whose bit the bounds cannot
decide is scanned again by ``converter._scan``).  Each count in a report
row is the samples below an integer cut against the irrational rate
log2/log(beta), decided exactly on the integer brackets of log2 that
``numerics`` keeps: one power search per cut, or for the sqrt tail one
bracket of the rate and of sqrt(m); logarithms appear only as 50-digit
decimals in the report text.

The exact side (``pm_measure_exact``) walks the prefix tree of
``encoder.prefix_leaves`` to every attainable bit prefix of a chosen depth
together with its interval of consistent inputs and returns the exact
Lebesgue measure of the set of inputs whose prefix cylinder still
straddles a dyadic cell boundary - the quantity the tail-set bound
2*2**(-eps*m) is about.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Optional

from .converter import _lockstep, scan_targets
from .encoder import ConstantThreshold, check_role, prefix_leaves
from .errors import ConfigurationError, DomainError
from .numerics import (
    as_decimal,
    as_fraction,
    check_beta,
    check_orders,
    check_positive_int,
    check_seed,
    check_thresholds,
    cmp_pow2,
    decimal_context,
    decimal_str,
    floor_log_ratio_sqrt,
    format_rational,
    in_cell,
    least_power_at_least,
    log2_decimal,
    log_ratio_decimal,
    state_bound,
)
from .prng import PRNG_ID, SplitMix64, derive_keys, odd_numerator_rows

SCALINGS = ("linear", "sqrt")
QUANTILE_LEVELS = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))
NODE_BUDGET = 1 << 22  # nodes the exact prefix-tree walk may visit


@dataclass(frozen=True)
class LochsExperiment:
    """Config for one Monte-Carlo run; a pure value, safe to ship to workers."""

    beta: Fraction
    thresholds: object = ConstantThreshold(1)
    m_values: tuple = (8, 16, 32, 64)
    n_samples: int = 1000
    rng_seed: int = 0
    scaling: str = "linear"
    eps_values: tuple = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))
    tail_eps: Fraction = Fraction(1, 10)
    precision_bits: Optional[int] = None
    k_cap: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "beta", check_beta(self.beta))
        ms = check_orders(self.m_values, "m_values", ConfigurationError)
        object.__setattr__(self, "m_values", ms)
        check_positive_int(self.n_samples, "n_samples", ConfigurationError)
        check_seed(self.rng_seed, "rng_seed", ConfigurationError)
        if self.scaling not in SCALINGS:
            raise ConfigurationError(f"scaling must be one of {SCALINGS}")
        eps = tuple(as_fraction(e) for e in self.eps_values)
        if any(not (0 < e < 1) for e in eps):
            raise ConfigurationError("eps values must lie in (0,1)")
        object.__setattr__(self, "eps_values", eps)
        object.__setattr__(self, "tail_eps", as_fraction(self.tail_eps))
        if self.tail_eps <= 0:
            raise ConfigurationError("tail_eps must be positive")
        if (self.precision_bits is not None and check_positive_int(
                self.precision_bits, "precision_bits", ConfigurationError) <= ms[-1]):
            raise ConfigurationError(
                f"{self.precision_bits} sample bits cannot resolve order-{ms[-1]} cells"
            )
        check_positive_int(self.workers, "workers", ConfigurationError)
        if self.k_cap is not None:
            check_positive_int(self.k_cap, "k_cap", ConfigurationError)
        check_thresholds(check_role(self.thresholds, "threshold").threshold_range,
                         state_bound(self.beta), ConfigurationError)

    def resolved_precision(self) -> int:
        if self.precision_bits is not None:
            return self.precision_bits
        # enough bits that the sample behaves as a generic real at 4x the
        # deepest probed order
        return least_power_at_least(self.beta, 4 * self.m_values[-1])

    def to_json(self) -> dict:
        return {
            "beta": format_rational(self.beta),
            "thresholds": self.thresholds.to_json(),
            "m_values": list(self.m_values),
            "n_samples": self.n_samples,
            "rng_seed": self.rng_seed,
            "scaling": self.scaling,
            "custom_scale": None,  # kept so that recorded configs stay byte-identical
            "eps_values": [format_rational(e) for e in self.eps_values],
            "tail_eps": format_rational(self.tail_eps),
            "precision_bits": self.resolved_precision(),
            "k_cap": self.k_cap,
            # workers deliberately omitted: results do not depend on it
        }


@dataclass(frozen=True)
class LochsReport:
    config: dict
    prng: dict
    precision_bits: int
    boundary_risk: str
    rows: tuple

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "prng": self.prng,
            "precision_bits": self.precision_bits,
            "boundary_risk": self.boundary_risk,
            "rows": list(self.rows),
        }

    def csv_rows(self) -> list:
        """One record per m; an m whose every sample hit the cap has only m and cap_hits."""
        out = []
        for row in self.rows:
            rec = {"m": row["m"], "cap_hits": row["cap_hits"]}
            if row["samples"]:
                rec.update(
                    mean_k_over_m=row["mean_k_over_m"],
                    target=row["target"],
                    mean_k=row["mean_k"],
                    min_deviation=row["min_deviation"],
                    tail_mass=row["tail"]["mass_decimal"],
                )
            out.append(rec)
        return out


# lanes ``_lockstep`` steps together, so that the default 1000 samples take
# one block: on the benchmark's lochs workload the kernel read wall_s
# 0.13-0.15 s at 512 lanes and 0.105-0.12 s at 1024 lanes, for 0.6 MiB more
# peak RSS (five alternating runs each, 2-CPU Xeon)
_LANES = 1024


def _chunk(exp: LochsExperiment, bounds) -> tuple:
    """Histograms of samples start..stop-1, stepped in blocks of _LANES lanes.

    Sample i scans x = sub.derive("x").odd_dyadic(P) with sub =
    SplitMix64(rng_seed).derive("lochs", "sample", i); a random process
    draws its thresholds from sub.derive("thresholds").
    """
    start, stop = bounds
    targets = scan_targets(exp.m_values, exp.beta, exp.k_cap)
    base = SplitMix64(exp.rng_seed).derive("lochs")
    precision = exp.resolved_precision()
    hists = [Counter() for _ in exp.m_values]
    cap_hits = [0] * len(exp.m_values)
    for lo in range(start, stop, _LANES):
        keys = base.derive_array("sample", range(lo, min(lo + _LANES, stop)))
        xns = [xn for xn, in odd_numerator_rows(derive_keys(keys, "x"), precision, 1)]
        if exp.thresholds.is_random:
            keys = derive_keys(keys, "thresholds")
        ks, exceeded, _, _ = _lockstep(xns, precision, targets, exp.beta, exp.thresholds, keys)
        for slot, hist in enumerate(hists):
            cap_hits[slot] += int(exceeded[:, slot].sum())
            hist.update(ks[~exceeded[:, slot], slot].tolist())
    return hists, cap_hits


def _row(exp: LochsExperiment, m: int, hist: Counter, cap_hits: int) -> dict:
    """The report row of order m, read off ``hist``, the histogram of k, sorted once.

    Every count is the samples below a cut, the least k where a rule starts
    or stops holding: one ``least_power_at_least`` search, or for the sqrt
    tail one ``floor_log_ratio_sqrt`` bracket.
    """
    if not hist:
        return {"m": m, "samples": 0, "cap_hits": cap_hits}
    beta = exp.beta
    ks = sorted(hist)
    cum = [0, *accumulate(hist[k] for k in ks)]  # cum[i]: samples with k < ks[i]
    n = cum[-1]

    def below(cut: int) -> int:
        return cum[bisect_left(ks, cut)]

    with decimal_context(60):
        ratio = log_ratio_decimal(beta)
        target_k = Decimal(m) * ratio

        mean_k = Fraction(sum(k * c for k, c in hist.items()), n)
        mean_sq = Fraction(sum(k * k * c for k, c in hist.items()), n)
        variance = mean_sq - mean_k * mean_k
        mean_ratio = mean_k / m
        mean_ratio_dec = as_decimal(mean_ratio)

        # beta**k <= 2**m below the cut
        lower_violations = below(least_power_at_least(beta, m, strict=True))

        # the least k whose cumulative count reaches ceil(level * n)
        quantiles = {format_rational(q): ks[bisect_left(cum, -(-q * n // 1)) - 1]
                     for q in QUANTILE_LEVELS}

        exceed = []
        for eps in exp.eps_values:
            # eps * beta**(k - 1) > 2**(m + 1) from the cut on
            cut = least_power_at_least(beta, m + 1, coefficient=eps, strict=True) + 1
            frac = Fraction(n - below(cut), n)
            c_eps = (Decimal(1) - log2_decimal(eps)) / log2_decimal(beta) + 1
            exceed.append(
                {
                    "eps": format_rational(eps),
                    "c_eps": decimal_str(c_eps),
                    "fraction": format_rational(frac),
                    "fraction_decimal": decimal_str(as_decimal(frac)),
                    "bound_ok": frac < eps,
                    # |frac - eps| <= 2 * sqrt(eps * (1 - eps) / n), squared
                    "within_2se": (frac - eps) ** 2 * n <= 4 * eps * (1 - eps),
                }
            )

        # |k - target_k| > t holds below lo and from hi on
        if exp.scaling == "sqrt":
            n_m_sq = Fraction(m)
            # m*r -+ t with t = tail_eps*sqrt(m) is never an integer
            lo = floor_log_ratio_sqrt(beta, m, -exp.tail_eps) + 1
            hi = floor_log_ratio_sqrt(beta, m, exp.tail_eps) + 1
            n_m_label = f"sqrt({m})"
        else:
            n_m_sq = Fraction(m * m)
            # t = tn/td: beta**(k*td + tn) < 2**(m*td) below lo, and
            # beta**(k*td - tn) > 2**(m*td) from hi on, searched over beta**td
            tn, td = (exp.tail_eps * m).as_integer_ratio()
            base = beta**td
            lo = least_power_at_least(base, m * td, coefficient=beta**tn)
            # t >= max k: no k passes m*r + t, a cut whose search could pass the 2**20 limit
            hi = ks[-1] + 1 if tn >= ks[-1] * td else least_power_at_least(
                base, m * td, coefficient=beta**-tn, strict=True)
            n_m_label = format_rational(Fraction(m))
        tail_mass = Fraction(below(lo) + n - below(hi), n)
        scaled_variance = variance / n_m_sq

        min_k, max_k = ks[0], ks[-1]
        return {
            "m": m,
            "samples": n,
            "cap_hits": cap_hits,
            "lower_bound_violations": lower_violations,
            "mean_k": format_rational(mean_k),
            "mean_k_over_m": decimal_str(mean_ratio_dec),
            "target": decimal_str(ratio),
            "rel_error": decimal_str((mean_ratio_dec - ratio) / ratio),
            "min_k": min_k,
            "max_k": max_k,
            "min_deviation": decimal_str(Decimal(min_k) - target_k),
            "quantile_k": quantiles,
            "exceed": exceed,
            "tail": {
                "eps": format_rational(exp.tail_eps),
                "n_m": n_m_label,
                "mass": format_rational(tail_mass),
                "mass_decimal": decimal_str(as_decimal(tail_mass)),
            },
            "scaled_variance": {
                "n_m_squared": format_rational(n_m_sq),
                "value": format_rational(scaled_variance),
                "decimal": decimal_str(as_decimal(scaled_variance)),
            },
        }


def _pieces(n: int, workers: int) -> list:
    """Bounds of the pieces a pool of workers takes: whole lane blocks, or less
    than one block each when that leaves a worker without a piece."""
    step = min(_LANES, -(-n // workers))
    return [(i, min(i + step, n)) for i in range(0, n, step)]


def run_lochs(exp: LochsExperiment) -> LochsReport:
    """Run the experiment; deterministic given the config, whatever the worker count."""
    n = exp.n_samples
    if exp.workers > 1 and n > 1:
        bounds = _pieces(n, exp.workers)
        hists = [Counter() for _ in exp.m_values]
        cap_hits = [0] * len(exp.m_values)
        # imported here: loading multiprocessing costs every import of the package
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=exp.workers) as pool:
            for part_hists, part_caps in pool.map(partial(_chunk, exp), bounds):
                for slot in range(len(exp.m_values)):
                    hists[slot].update(part_hists[slot])
                    cap_hits[slot] += part_caps[slot]
    else:
        hists, cap_hits = _chunk(exp, (0, n))

    precision = exp.resolved_precision()
    rows = tuple(map(partial(_row, exp), exp.m_values, hists, cap_hits))
    return LochsReport(
        config=exp.to_json(),
        prng={"id": PRNG_ID, "seed": exp.rng_seed, "path": ["lochs"]},
        precision_bits=precision,
        boundary_risk=(
            f"< 2**-{precision - exp.m_values[-1]} per sample; odd-numerator draws "
            "additionally sit strictly inside every probed cell"
        ),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# exact tail-set measure


def default_kbar(beta, m: int, eps) -> int:
    """Least k with beta**k >= 2**((1+eps)*m): the probe depth for the tail set."""
    eps = as_fraction(eps)
    return least_power_at_least(
        beta, Fraction(m) * (1 + eps)
    )


def pm_measure_exact(
    beta,
    u,
    m: int,
    eps,
    kbar: Optional[int] = None,
) -> Fraction:
    """Exact measure of inputs whose depth-kbar cylinder straddles a cell edge.

    Enumerates every attainable bit prefix of depth kbar under constant
    threshold u together with its exact interval of consistent inputs in
    [0,1]; an input is in the tail set when its cylinder is not contained
    in its own order-m dyadic cell.  Small m only: the tree has roughly
    beta**kbar live nodes per level, and a walk past NODE_BUDGET nodes
    raises ResourceBudgetError.
    """
    beta = check_beta(beta)
    u = as_fraction(u)
    check_thresholds((u,), state_bound(beta), DomainError)
    check_positive_int(m, "m", DomainError)
    eps = as_fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    if kbar is None:
        kbar = default_kbar(beta, m, eps)
    check_positive_int(kbar, "kbar", DomainError)

    # a leaf's inputs are all in the tail set unless its cylinder
    # [E/P, (E (p - q) + Q q) / (P (p - q))] sits in the cell a of E/P
    p, q = beta.numerator, beta.denominator
    P, T, top = p**kbar, q**kbar << m, (1 << m) - 1
    unit, leaves = prefix_leaves([[(beta, 1)]] * kbar, (u,) * kbar, node_budget=NODE_BUDGET)
    bad = 0
    for _, lo, hi, _, E in leaves:
        a = min((E << m) // P, top)
        if not in_cell((E << m) - a * P, T, P, p - q, q, int(a == top)):
            bad += hi - lo
    return Fraction(bad, unit)


def pm_bound_holds(measure: Fraction, m: int, eps) -> bool:
    """measure <= 2 * 2**(-eps*m), decided exactly."""
    eps = as_fraction(eps)
    return cmp_pow2(as_fraction(measure) / 2, -eps * m) <= 0
