"""Spans around betaenc's public calls, recorded from outside the package.

``Tracer.wrap`` replaces a module attribute or class method with a wrapper
that records one span per call: name, tag, start, end and the index of the
enclosing span.  Python resolves module-level names at call time, so calls
the library makes to a wrapped name from inside the package (for example
``rejection_rates`` calling ``run_battery``) are recorded too.  Spans stay in
memory and are written out once, when the workload ends.

``install`` holds the table of wrapped calls; ``per_layer`` turns the
summed span times and counts of traced runs into the per-layer metrics
listed in ``BENCHMARK.json``.  Only ``install`` imports betaenc, so the
parent process in ``run.py`` can derive metrics without importing the package.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

CLOCK = time.perf_counter


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index or None]
        self.counts = Counter()
        self.enabled = True
        self._stack = []

    @contextmanager
    def span(self, name, tag=None):
        idx = self._open(name, tag)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name, tag) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, tag, CLOCK(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = CLOCK()

    def traced(self, fn, name, tag=None, count=None):
        """``fn`` wrapped in a span; ``count`` maps (args, result) to counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count:
                self.counts.update(count(args, result))
            return result

        return wrapper

    def wrap(self, owner, attr, name, tag=None, count=None) -> None:
        setattr(owner, attr, self.traced(getattr(owner, attr), name, tag, count))

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_times(self, scale=lambda start: 1.0) -> dict:
        """Summed span time keyed ``name`` and ``name[tag]``.

        Each span's time is multiplied by ``scale(span start)``.  Also
        ``self:<name>``, the summed self time, and ``children:workload``, the
        time of the workload span's direct children.
        """
        out = Counter()
        root = None
        for i, ((name, tag, start, end, parent), own) in enumerate(
                zip(self.spans, self.self_times())):
            factor = scale(start)
            out[name] += (end - start) * factor
            if tag is not None:
                out[f"{name}[{tag}]"] += (end - start) * factor
            out[f"self:{name}"] += own * factor
            if name == "workload":
                root = i
            elif parent is not None and parent == root:
                out["children:workload"] += (end - start) * factor
        return dict(out)

    def summary(self) -> dict:
        """Total and self time per span name, plus the call count."""
        out = {}
        for (name, _, start, end, _), own in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def write(self, path) -> None:
        doc = {
            "spans": [
                {"name": n, "tag": t, "start": s, "end": e, "parent": p}
                for n, t, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "summary": self.summary(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def lochs_label(beta, thr) -> str:
    """Config label used in metric names: ``beta3_2.u1``, ``.ukappa`` or ``.uiid``."""
    beta = f"beta{beta.numerator}_{beta.denominator}"
    if thr.is_random:
        return f"{beta}.uiid"
    return f"{beta}.u1" if thr.value == 1 else f"{beta}.ukappa"


def _lochs_counts(args, report) -> dict:
    label = lochs_label(args[0].beta, args[0].thresholds)
    deepest = report.rows[-1]
    steps = Fraction(deepest["mean_k"]) * deepest["samples"]
    return {
        f"lochs.samples.{label}": args[0].n_samples,
        "lochs.scan_steps": int(steps),
        "lochs.cap_hits": sum(row["cap_hits"] for row in report.rows),
    }


def _extract_counts(args, result) -> dict:
    report = result[1]
    counts = {
        "extract.blocks": report["blocks"],
        "extract.pairs": report["pairs"] or 0,
        "extract.bits_out": report["bits_out"],
    }
    if report["mode"] == "seeded":
        counts["extract.seeded_bits_in"] = report["bits_in"]
    return counts


def _file_bytes(n_bits: int) -> int:
    return 8 + (n_bits + 7) // 8


def install(tracer: Tracer) -> None:
    """Wrap every public call the benchmark measures."""
    from betaenc import battery, bitio, encoder, entropy, extract, lochs, prng

    tracer.wrap(
        encoder, "encode_bits", "encoder.encode_bits",
        tag=lambda a, k: a[3],
        count=lambda a, r: {"encoder.bits": len(r)},
    )
    tracer.wrap(
        encoder.UniformThresholds, "realize", "encoder.UniformThresholds.realize",
        count=lambda a, r: {"encoder.threshold_draws": len(r)},
    )
    tracer.wrap(lochs, "run_lochs", "lochs.run_lochs",
                tag=lambda a, k: lochs_label(a[0].beta, a[0].thresholds), count=_lochs_counts)
    tracer.wrap(lochs, "pm_measure_exact", "lochs.pm_measure_exact")
    tracer.wrap(
        entropy, "word_distribution", "entropy.word_distribution",
        tag=lambda a, k: "iid" if isinstance(a[0], encoder.IidSupportBetas) else "fixed",
        count=lambda a, r: {"entropy.words": len(r.entries)},
    )
    tracer.wrap(entropy, "min_entropy_bound_check", "entropy.min_entropy_bound_check")
    tracer.wrap(extract, "pipeline_extract", "extract.pipeline_extract",
                tag=lambda a, k: a[1].mode, count=_extract_counts)
    tracer.wrap(
        extract, "flat_avg_seed_tv", "extract.flat_avg_seed_tv",
        tag=lambda a, k: a[1],
        count=lambda a, r: {"extract.flat_sources": len(r)},
    )
    tracer.wrap(extract, "flat_source_family", "extract.flat_source_family")
    tracer.wrap(battery, "run_battery", "battery.run_battery",
                count=lambda a, r: {"battery.bits_tested": len(a[0])})
    tracer.wrap(battery, "rejection_rates", "battery.rejection_rates")
    # run_battery reaches the four tests through this table, not by name.
    battery._TESTS = tuple(
        tracer.traced(test, f"battery.{test.__name__}") for test in battery._TESTS
    )
    tracer.wrap(prng.SplitMix64, "bit_array", "prng.SplitMix64.bit_array",
                count=lambda a, r: {"prng.bits_drawn": len(r)})
    tracer.wrap(bitio, "write_bit_file", "bitio.write_bit_file",
                count=lambda a, r: {"bitio.bytes": _file_bytes(len(a[1]))})
    tracer.wrap(bitio, "read_bit_file", "bitio.read_bit_file",
                count=lambda a, r: {"bitio.bytes": _file_bytes(len(r))})


STREAM_LABELS = ("s_20k", "s_80k", "s_160k")
LOCHS_LABELS = tuple(
    f"beta{b}.{u}" for b in ("3_2", "9_5") for u in ("u1", "ukappa", "uiid")
)
BATTERY_TESTS = ("monobit", "runs", "serial", "approximate_entropy")


def per_layer(times: dict, counts: dict, stream_lengths: tuple) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``times`` and ``counts`` are ``Tracer.layer_times`` and ``Tracer.counts``
    of a traced run, or their per-key reduction over several runs.  A layer
    the workload does not call reads 0.  ``stream_lengths`` maps the three
    ``encode_bits`` lengths onto the ``s_20k``/``s_80k``/``s_160k`` names.
    """
    t = lambda key: times.get(key, 0.0)  # noqa: E731
    c = lambda key: counts.get(key, 0)  # noqa: E731
    m = {}

    enc = [t(f"encoder.encode_bits[{n}]") for n in stream_lengths]
    for label, seconds in zip(STREAM_LABELS, enc):
        m[f"encoder.encode_bits.{label}"] = (seconds, "s")
    growth = 0.0
    if enc[0] > 0 and enc[-1] > 0:
        growth = math.log(enc[-1] / enc[0]) / math.log(stream_lengths[-1] / stream_lengths[0])
    m["encoder.encode_bits.growth"] = (growth, "exponent")
    m["encoder.bits"] = (c("encoder.bits"), "count")
    m["encoder.threshold_draws"] = (c("encoder.threshold_draws"), "count")
    m["encoder.threshold_draw_s"] = (t("encoder.UniformThresholds.realize"), "s")

    for label in LOCHS_LABELS:
        samples = c(f"lochs.samples.{label}")
        ms = 1e3 * t(f"lochs.run_lochs[{label}]") / samples if samples else 0.0
        m[f"lochs.ms_per_sample.{label}"] = (ms, "ms")
    m["lochs.scan_self_s"] = (t("self:lochs.run_lochs"), "s")
    m["lochs.scan_steps"] = (c("lochs.scan_steps"), "count")
    m["lochs.cap_hits"] = (c("lochs.cap_hits"), "count")

    seeded = t("extract.pipeline_extract[seeded]")
    bits_in = c("extract.seeded_bits_in")
    m["extract.seeded_s"] = (seeded, "s")
    m["extract.seeded_ns_per_bit"] = (1e9 * seeded / bits_in if bits_in else 0.0, "ns")
    m["extract.two_source_s"] = (t("extract.pipeline_extract[two-source]"), "s")
    for key in ("blocks", "pairs", "bits_out"):
        m[f"extract.{key}"] = (c(f"extract.{key}"), "count")

    for test in BATTERY_TESTS:
        m[f"battery.{test}_s"] = (t(f"battery.{test}_test"), "s")
    m["battery.calibration_s"] = (t("battery.rejection_rates"), "s")
    m["battery.bits_tested"] = (c("battery.bits_tested"), "count")

    m["prng.bit_array_s"] = (t("prng.SplitMix64.bit_array"), "s")
    m["prng.bits_drawn"] = (c("prng.bits_drawn"), "count")
    m["bitio.write_s"] = (t("bitio.write_bit_file"), "s")
    m["bitio.read_s"] = (t("bitio.read_bit_file"), "s")
    m["bitio.bytes"] = (c("bitio.bytes"), "count")

    for kind in ("fixed", "iid"):
        m[f"entropy.word_distribution_s.{kind}"] = (t(f"entropy.word_distribution[{kind}]"), "s")
    m["entropy.words"] = (c("entropy.words"), "count")
    m["lochs.pm_measure_exact_s"] = (t("lochs.pm_measure_exact"), "s")
    for n in (1, 2):
        m[f"extract.flat_avg_seed_tv_s.n{n}"] = (t(f"extract.flat_avg_seed_tv[{n}]"), "s")
    m["extract.flat_sources"] = (c("extract.flat_sources"), "count")
    m["trace.uncovered_s"] = (t("uncovered:workload"), "s")
    return m
