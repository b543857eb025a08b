"""Digit-transfer statistics: how many stream bits buy m binary digits.

The Monte-Carlo side samples uniform inputs as full-precision dyadic
rationals (odd numerators, so no sample ever sits on a probed cell
boundary) and scans each orbit once with the integer kernel from
``converter``, collecting the exact histogram of the transfer count k for
every requested digit order m.  All reported inequalities against the
irrational rate log2/log(beta) are decided by integer power comparisons;
logarithms appear only as 50-digit decimals in the report text.

The exact side (``pm_measure_exact``) walks the prefix tree of
``encoder.prefix_leaves`` to every attainable bit prefix of a chosen depth
together with its interval of consistent inputs and returns the exact
Lebesgue measure of the set of inputs whose prefix cylinder still
straddles a dyadic cell boundary - the quantity the tail-set bound
2*2**(-eps*m) is about.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Optional

from .converter import _scan, scan_targets
from .encoder import _WINDOW_BITS, ConstantThreshold, _kernel_plan, check_role, prefix_leaves
from .errors import ConfigurationError, DomainError
from .numerics import (
    as_decimal,
    as_fraction,
    cell_of,
    check_beta,
    check_orders,
    check_positive_int,
    check_seed,
    check_thresholds,
    cmp_pow2,
    decimal_str,
    format_rational,
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


# samples whose keys and first draws are computed together; the word arrays
# of odd_numerator_rows stay under 512 KiB whatever the precision
_SUB_BATCH = 128
# threshold draws past the deepest target's k_min made with the sub-batch;
# the scan seldom needs more, and draws any further ones lazily
_HEAD_MARGIN = 16


def _lazy_scaled(process, rng, count: int):
    """``count`` thresholds as integer pairs, drawn 32 at a time as they are consumed."""
    return (pair for done in range(0, count, 32)
            for pair in process.scaled(min(32, count - done), rng))


def _chunk(exp: LochsExperiment, bounds) -> tuple:
    """Histograms of samples start..stop-1, drawn in sub-batches.

    Sample i scans x = sub.derive("x").odd_dyadic(P) with sub =
    SplitMix64(rng_seed).derive("lochs", "sample", i); a random process
    draws its thresholds from sub.derive("thresholds").  Each sub-batch
    computes those keys, the x numerators and every sample's first
    ``head`` threshold numerators as arrays; a sample's later thresholds
    come from its own stream, positioned after the head.
    """
    start, stop = bounds
    targets = scan_targets(exp.m_values, exp.beta, exp.k_cap)
    # the scan always draws up to the deepest target's k_min or its cap
    _, cap_max, first = targets[-1]
    process = exp.thresholds
    if isinstance(process, ConstantThreshold):
        thresholds = _kernel_plan(exp.beta, process.value, _WINDOW_BITS)  # once per chunk
    elif not process.is_random:
        thresholds = process.scaled(cap_max)  # listed thresholds, shared by every sample
    else:
        head = min(first + _HEAD_MARGIN, cap_max)
    base = SplitMix64(exp.rng_seed).derive("lochs")
    precision = exp.resolved_precision()
    den = 1 << precision
    hists = [Counter() for _ in exp.m_values]
    cap_hits = [0] * len(exp.m_values)
    for lo in range(start, stop, _SUB_BATCH):
        keys = base.derive_array("sample", range(lo, min(lo + _SUB_BATCH, stop)))
        xs = odd_numerator_rows(derive_keys(keys, "x"), precision, 1)
        if process.is_random:
            threshold_keys = derive_keys(keys, "thresholds")
            heads = odd_numerator_rows(threshold_keys, 64, head)
            tail_keys = threshold_keys.tolist()
        for j, (xn,) in enumerate(xs):
            if process.is_random:
                # one stream word per draw: the tail starts at word `head`
                tail = SplitMix64(exp.rng_seed, (), tail_keys[j], head)
                thresholds = chain(process.pairs(next(heads)),
                                   _lazy_scaled(process, tail, cap_max - head))
            for slot, res in enumerate(_scan(Fraction(xn, den), targets, exp.beta, thresholds)):
                if res.exceeded:
                    cap_hits[slot] += 1
                else:
                    hists[slot][res.k] += 1
    return hists, cap_hits


def _quantile(hist: Counter, n: int, level: Fraction) -> int:
    """Least k whose cumulative count reaches ceil(level * n) <= n, for level in (0, 1]."""
    target = -(-level.numerator * n // level.denominator)  # ceil(level * n)
    seen = 0
    for k in sorted(hist):
        seen += hist[k]
        if seen >= target:
            return k


def _tail_exceeds(beta: Fraction, m: int, k: int, t: Fraction) -> bool:
    """Exact |k - m*log2/log(beta)| > t for rational t."""
    tn, td = t.numerator, t.denominator
    if cmp_pow2(beta ** (k * td - tn), m * td) > 0:  # k - m*r > t
        return True
    return cmp_pow2(beta ** (k * td + tn), m * td) < 0  # m*r - k > t


def _row(exp: LochsExperiment, m: int, hist: Counter, cap_hits: int) -> dict:
    beta = exp.beta
    n = sum(hist.values())
    if n == 0:
        return {"m": m, "samples": 0, "cap_hits": cap_hits}
    with localcontext() as ctx:
        ctx.prec = 60
        ratio = log_ratio_decimal(beta)
        target_k = Decimal(m) * ratio

        mean_k = Fraction(sum(k * c for k, c in hist.items()), n)
        mean_sq = Fraction(sum(k * k * c for k, c in hist.items()), n)
        variance = mean_sq - mean_k * mean_k
        mean_ratio = mean_k / m
        mean_ratio_dec = as_decimal(mean_ratio)

        lower_violations = sum(
            c for k, c in hist.items() if cmp_pow2(beta**k, m) <= 0
        )

        quantiles = {
            format_rational(q): _quantile(hist, n, q) for q in QUANTILE_LEVELS
        }

        exceed = []
        for eps in exp.eps_values:
            count = sum(
                c for k, c in hist.items() if cmp_pow2(eps * beta ** (k - 1), m + 1) > 0
            )
            frac = Fraction(count, n)
            c_eps = (Decimal(1) - log2_decimal(eps)) / log2_decimal(beta) + 1
            exceed.append(
                {
                    "eps": format_rational(eps),
                    "c_eps": decimal_str(c_eps, 12),
                    "fraction": format_rational(frac),
                    "fraction_decimal": decimal_str(as_decimal(frac), 12),
                    "bound_ok": frac < eps,
                    # |frac - eps| <= 2 * sqrt(eps * (1 - eps) / n), squared
                    "within_2se": (frac - eps) ** 2 * n <= 4 * eps * (1 - eps),
                }
            )

        if exp.scaling == "sqrt":
            n_m_sq = Fraction(m)
            t_dec = as_decimal(exp.tail_eps) * Decimal(m).sqrt()
            tail_count = sum(
                c
                for k, c in hist.items()
                if abs(Decimal(k) - target_k) > t_dec
            )
            n_m_label = f"sqrt({m})"
        else:
            n_m_sq = Fraction(m * m)
            t = exp.tail_eps * m
            tail_count = sum(
                c for k, c in hist.items() if _tail_exceeds(beta, m, k, t)
            )
            n_m_label = format_rational(Fraction(m))
        tail_mass = Fraction(tail_count, n)
        scaled_variance = variance / n_m_sq

        min_k, max_k = min(hist), max(hist)
        return {
            "m": m,
            "samples": n,
            "cap_hits": cap_hits,
            "lower_bound_violations": lower_violations,
            "mean_k": format_rational(mean_k),
            "mean_k_over_m": decimal_str(mean_ratio_dec, 12),
            "target": decimal_str(ratio, 12),
            "rel_error": decimal_str((mean_ratio_dec - ratio) / ratio, 12),
            "min_k": min_k,
            "max_k": max_k,
            "min_deviation": decimal_str(Decimal(min_k) - target_k, 12),
            "quantile_k": quantiles,
            "exceed": exceed,
            "tail": {
                "eps": format_rational(exp.tail_eps),
                "n_m": n_m_label,
                "mass": format_rational(tail_mass),
                "mass_decimal": decimal_str(as_decimal(tail_mass), 12),
            },
            "scaled_variance": {
                "n_m_squared": format_rational(n_m_sq),
                "value": format_rational(scaled_variance),
                "decimal": decimal_str(as_decimal(scaled_variance), 12),
            },
        }


def run_lochs(exp: LochsExperiment) -> LochsReport:
    """Run the experiment; deterministic given the config, whatever the worker count."""
    n = exp.n_samples
    if exp.workers > 1 and n > 1:
        pieces = min(4 * exp.workers, n)
        step = -(-n // pieces)
        bounds = [(i, min(i + step, n)) for i in range(0, n, step)]
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

    # a leaf's inputs lie in its cylinder [E/P, (E (p - q) + Q q) / (P (p - q))],
    # so all of them are in the tail set unless the cylinder sits in its cell
    p, q = beta.numerator, beta.denominator
    pmq, P, Qq = p - q, p**kbar, q ** (kbar + 1)
    Ppmq = P * pmq
    unit, leaves = prefix_leaves([[(beta, 1)]] * kbar, (u,) * kbar, node_budget=NODE_BUDGET)
    bad = 0
    for _, lo, hi, _, E in leaves:
        if cell_of(E, P, E * pmq + Qq, Ppmq, m) is None:
            bad += hi - lo
    return Fraction(bad, unit)


def pm_bound_holds(measure: Fraction, m: int, eps) -> bool:
    """measure <= 2 * 2**(-eps*m), decided exactly."""
    eps = as_fraction(eps)
    return cmp_pow2(as_fraction(measure) / 2, -eps * m) <= 0
