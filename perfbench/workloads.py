"""One workload run in a fresh process: set up, time the operations, check them.

Run by ``run.py``, once per repetition:

    python3 perfbench/workloads.py --workload stream --seed 0 --size full \
        --trace 0 --digests perfbench/expected_digests.json --spawn-time T

``--spawn-time`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` covers interpreter start, ``import
betaenc`` and building the inputs.  The last line of standard output is one
JSON object with the timings, the operation counts and, with ``--trace 1``,
the summed span times and counts.  Every input comes from ``--seed`` through
``SplitMix64``; the library only sees the generated values.

Times are reported twice: raw, and adjusted to a nominal machine speed.
Shared machines change speed by a third or more in phases of seconds to a
minute, which no number of repetitions within one run averages out.  So a
fixed reference kernel, which calls no betaenc code, is timed before the
first operation and after every operation, and each operation's time is
divided by the kernel's slowdown (measured time over nominal time, averaged
over the two readings around it).  Interpreter-bound code and numpy array
code do not slow down alike, so the kernel has a pure-Python part and a numpy
part, weighted by the workload's share of numpy array work (``NUMPY_SHARE``).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
THREE_HALVES = Fraction(3, 2)
NINE_FIFTHS = Fraction(9, 5)

# Input sizes.  "full" is what the benchmark measures; "smoke" is the tiny
# variant the self-test runs.  Expected digests exist for both at DEFAULT_SEED.
SIZES = {
    "full": {
        "stream": {"lengths": (20_000, 80_000, 160_000), "check_bits": 2000},
        "lochs": {"samples": 1000, "m": (8, 16, 32, 64)},
        "post": {"streams": 4, "bits": 600_000, "cal_runs": 1000, "cal_bits": 1 << 15},
        "exact": {"word_m": (12, 14, 9), "pm_m": (3, 4, 5, 6), "flat_mk": (10, 6)},
    },
    "smoke": {
        "stream": {"lengths": (2000, 4000, 8000), "check_bits": 2000},
        "lochs": {"samples": 20, "m": (8, 16, 32, 64)},
        "post": {"streams": 2, "bits": 30_000, "cal_runs": 10, "cal_bits": 1024},
        "exact": {"word_m": (6, 6, 4), "pm_m": (3, 4), "flat_mk": (6, 3)},
    },
}

# Nominal times of the two reference kernels: the machine speed that
# adjusted seconds refer to.
PY_NOMINAL_S = 0.003
NP_NOMINAL_S = 0.0008
# Share of each workload's time spent in numpy array code, which weights the
# numpy kernel in the slowdown estimate (from traced runs: ``stream`` and
# ``lochs`` are interpreter-bound; ``exact`` spends most of its time in
# flat_avg_seed_tv's array code; ``post`` splits between per-block Python
# loops and array tests).
NUMPY_SHARE = {"stream": 0.0, "lochs": 0.0, "post": 0.5, "exact": 0.75}

# Criterion 09's pinned worst average-seed TV over flat_source_family(10, 6, 0).
FROZEN_WORST_TV = {1: Fraction(1619, 32768), 2: Fraction(2765, 32768)}


def _import_betaenc():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import betaenc

    origin = Path(betaenc.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"betaenc imported from {origin}, not from {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# digests of operation outputs


def _canonical(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {"dtype": str(data.dtype), "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return repr(obj)
    if hasattr(obj, "to_json"):
        return _canonical(obj.to_json())
    if hasattr(obj, "entries"):  # WordDistribution
        return {"m": obj.m, "entries": [[w, _canonical(p)] for w, p in sorted(obj.entries.items())]}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(_canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# machine-speed reference and operation bookkeeping


def py_kernel() -> int:
    """Interpreter-bound reference work: growing big ints and a small-int loop."""
    a, d = 12345, 1 << 20
    for _ in range(6000):
        a *= 3
        d *= 2
        if a >= d:
            a -= d
    s = 0
    for i in range(20000):
        s += i * i
    return a ^ s


def np_kernel(idx) -> int:
    """Array-bound reference work: a 64k-bin histogram of 256k indices."""
    import numpy as np

    counts = np.bincount(idx, minlength=1 << 16)
    return int(np.abs(counts * 4 - 3).sum())


def _best_of_three(fn, *args) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class Slowdown:
    """Measured over nominal reference time, weighted by the numpy share."""

    def __init__(self, numpy_share: float):
        import numpy as np

        self.share = numpy_share
        self.idx = (np.arange(1 << 18, dtype=np.int64) * 7919) & 0xFFFF

    def __call__(self) -> float:
        slow = 0.0
        if self.share < 1:
            slow += (1 - self.share) * _best_of_three(py_kernel) / PY_NOMINAL_S
        if self.share > 0:
            slow += self.share * _best_of_three(np_kernel, self.idx) / NP_NOMINAL_S
        return slow


class OpFailed(Exception):
    """An operation raised; the workload stops there."""


class Ops:
    """Runs and times named operations, keeping each output for the checks.

    ``raw`` holds each operation's seconds, ``adjusted`` the same scaled to
    the nominal machine speed, and ``starts``/``factors`` the start time and
    scale factor of each operation, for scaling the spans inside it.
    """

    def __init__(self, slowdown: Slowdown):
        self.outputs = {}
        self.errors = {}
        self.raw = {}
        self.adjusted = {}
        self.starts = []
        self.factors = []
        self.slowdown = slowdown
        self.last_slow = slowdown()

    def __call__(self, op_id, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, reported below
            self.errors[op_id] = f"{type(exc).__name__}: {exc}"
            raise OpFailed(op_id) from exc
        finally:
            elapsed = time.perf_counter() - t0
            slow = self.slowdown()
            factor = 2 / (self.last_slow + slow)
            self.last_slow = slow
            self.raw[op_id] = elapsed
            self.adjusted[op_id] = elapsed * factor
            self.starts.append(t0)
            self.factors.append(factor)
        self.outputs[op_id] = out
        return out


# ---------------------------------------------------------------------------
# workloads: setup(seed, size, workdir) -> inputs, timed(inputs, ops),
# check(inputs, outputs) -> {op_id: [problem, ...]}, work(size) -> units


def setup_stream(seed, size, workdir):
    from betaenc.prng import SplitMix64

    root = SplitMix64(seed).derive("bench-stream")
    return {
        "workdir": workdir,
        "size": size,
        "x0": {n: root.derive("x0", n).odd_dyadic(64) for n in size["lengths"]},
        "toeplitz": {n: root.derive("toeplitz", n).bits(64) for n in size["lengths"]},
    }


def timed_stream(inp, ops):
    from betaenc import battery, bitio, encoder, extract

    for n in inp["size"]["lengths"]:
        path = inp["workdir"] / f"stream{n}.bin"
        bits = ops(f"encode_bits.{n}", encoder.encode_bits, inp["x0"][n], THREE_HALVES, 1, n)
        ops(f"write_bit_file.{n}", bitio.write_bit_file, path, bits)
        back = ops(f"read_bit_file.{n}", bitio.read_bit_file, path)
        ops(f"run_battery.raw.{n}", battery.run_battery, back)
        cfg = extract.PipelineConfig(mode="seeded", block_bits=48, out_bits=8,
                                     beta_min=THREE_HALVES, beta_max=THREE_HALVES,
                                     seed=inp["toeplitz"][n])
        out, _ = ops(f"pipeline_extract.seeded.{n}", extract.pipeline_extract, back, cfg)
        ops(f"run_battery.out.{n}", battery.run_battery, out)


def check_stream(inp, outputs):
    import numpy as np
    from betaenc import encoder

    problems = {}
    for n in inp["size"]["lengths"]:
        bits = outputs.get(f"encode_bits.{n}")
        if bits is not None:
            k = min(n, inp["size"]["check_bits"])
            trace = encoder.encode(inp["x0"][n], encoder.FixedBeta(THREE_HALVES),
                                   encoder.ConstantThreshold(1), k)
            if len(bits) != n or tuple(int(b) for b in bits[:k]) != trace.bits:
                problems.setdefault(f"encode_bits.{n}", []).append(
                    f"first {k} bits differ from the exact encode trace")
        back = outputs.get(f"read_bit_file.{n}")
        if back is not None and (bits is None or not np.array_equal(back, bits)):
            problems.setdefault(f"read_bit_file.{n}", []).append("read-back differs from written bits")
        _check_seeded(outputs.get(f"pipeline_extract.seeded.{n}"), n, problems,
                      f"pipeline_extract.seeded.{n}")
        for which in ("raw", "out"):
            _check_battery(outputs.get(f"run_battery.{which}.{n}"), problems,
                           f"run_battery.{which}.{n}")
    return problems


def _check_seeded(result, n_in, problems, op_id):
    if result is None:
        return
    out, report = result
    if report["bits_out"] != report["blocks"] * report["out_bits"] or len(out) != report["bits_out"]:
        problems.setdefault(op_id, []).append("bits_out != blocks * out_bits")
    if report["blocks"] != n_in // report["block_bits"]:
        problems.setdefault(op_id, []).append("block count does not match the input length")


def _check_battery(results, problems, op_id):
    names = ["monobit", "runs", "serial", "approximate-entropy"]
    if results is not None and [r.name for r in results] != names:
        problems.setdefault(op_id, []).append("battery did not return the four tests in order")


def work_stream(size):
    return sum(size["lengths"])


def setup_lochs(seed, size, workdir):
    from betaenc import encoder, lochs
    from betaenc.numerics import state_bound
    from betaenc.prng import SplitMix64

    import tracing

    root = SplitMix64(seed).derive("bench-lochs")
    exps = []
    for beta in (THREE_HALVES, NINE_FIFTHS):
        kappa = state_bound(beta)
        for thr in (encoder.ConstantThreshold(1), encoder.ConstantThreshold(kappa),
                    encoder.UniformThresholds(1, kappa)):
            label = tracing.lochs_label(beta, thr)
            exp = lochs.LochsExperiment(beta=beta, thresholds=thr, n_samples=size["samples"],
                                        m_values=size["m"], workers=1,
                                        rng_seed=root.derive(label).next64())
            exps.append((label, exp))
    return {"exps": exps}


def timed_lochs(inp, ops):
    from betaenc import lochs

    for label, exp in inp["exps"]:
        ops(f"run_lochs.{label}", lochs.run_lochs, exp)


def check_lochs(inp, outputs):
    problems = {}
    for label, exp in inp["exps"]:
        report = outputs.get(f"run_lochs.{label}")
        if report is None:
            continue
        for row in report.rows:
            if row["samples"] != exp.n_samples or row["cap_hits"] or row["lower_bound_violations"]:
                problems.setdefault(f"run_lochs.{label}", []).append(
                    f"m={row['m']}: samples {row['samples']}, cap hits {row['cap_hits']}, "
                    f"lower-bound violations {row.get('lower_bound_violations')}")
    return problems


def work_lochs(size):
    return 6 * size["samples"]


def _stored_stream(seed, i, n_bits):
    from betaenc.prng import SplitMix64

    return SplitMix64(seed).derive("bench-post", "stream", i).bit_array(n_bits)


def setup_post(seed, size, workdir):
    from betaenc import bitio
    from betaenc.prng import SplitMix64

    root = SplitMix64(seed).derive("bench-post")
    paths = []
    for i in range(size["streams"]):
        path = workdir / f"stored{i}.bin"
        bitio.write_bit_file(path, _stored_stream(seed, i, size["bits"]))
        paths.append(path)
    return {
        "seed": seed,
        "size": size,
        "workdir": workdir,
        "paths": paths,
        "toeplitz": [root.derive("toeplitz", i).bits(64) for i in range(size["streams"])],
        "calibration_seed": root.derive("calibration").next64(),
    }


def timed_post(inp, ops):
    from betaenc import battery, bitio, extract

    two_cfg = extract.PipelineConfig(mode="two-source", block_bits=48,
                                     beta_min=THREE_HALVES, beta_max=THREE_HALVES)
    for i, path in enumerate(inp["paths"]):
        bits = ops(f"read_bit_file.{i}", bitio.read_bit_file, path)
        ops(f"run_battery.raw.{i}", battery.run_battery, bits)
        cfg = extract.PipelineConfig(mode="seeded", block_bits=48, out_bits=8,
                                     beta_min=THREE_HALVES, beta_max=THREE_HALVES,
                                     seed=inp["toeplitz"][i])
        seeded, _ = ops(f"pipeline_extract.seeded.{i}", extract.pipeline_extract, bits, cfg)
        paired, _ = ops(f"pipeline_extract.two-source.{i}", extract.pipeline_extract, bits, two_cfg)
        ops(f"run_battery.seeded.{i}", battery.run_battery, seeded)
        ops(f"run_battery.two-source.{i}", battery.run_battery, paired)
        ops(f"write_bit_file.seeded.{i}", bitio.write_bit_file,
            inp["workdir"] / f"seeded{i}.bin", seeded)
        ops(f"write_bit_file.two-source.{i}", bitio.write_bit_file,
            inp["workdir"] / f"paired{i}.bin", paired)
    size = inp["size"]
    ops("rejection_rates", battery.rejection_rates, n_runs=size["cal_runs"],
        n_bits=size["cal_bits"], seed=inp["calibration_seed"])


def check_post(inp, outputs):
    import numpy as np
    from betaenc import bitio

    problems = {}
    size = inp["size"]
    for i in range(size["streams"]):
        bits = outputs.get(f"read_bit_file.{i}")
        if bits is not None and not np.array_equal(bits, _stored_stream(inp["seed"], i, size["bits"])):
            problems.setdefault(f"read_bit_file.{i}", []).append("stored stream read back wrong")
        _check_seeded(outputs.get(f"pipeline_extract.seeded.{i}"), size["bits"], problems,
                      f"pipeline_extract.seeded.{i}")
        paired = outputs.get(f"pipeline_extract.two-source.{i}")
        if paired is not None:
            out, report = paired
            if (report["pairs"] != report["blocks"] // 2 or report["bits_out"] != report["pairs"]
                    or len(out) != report["pairs"] or report["warnings"]):
                problems.setdefault(f"pipeline_extract.two-source.{i}", []).append(
                    "two-source output is not one bit per block pair")
        for which in ("raw", "seeded", "two-source"):
            _check_battery(outputs.get(f"run_battery.{which}.{i}"), problems,
                           f"run_battery.{which}.{i}")
        for which, name in (("seeded", "seeded"), ("two-source", "paired")):
            op_id = f"write_bit_file.{which}.{i}"
            extracted = outputs.get(f"pipeline_extract.{which}.{i}")
            if op_id in outputs and not np.array_equal(
                    bitio.read_bit_file(inp["workdir"] / f"{name}{i}.bin"), extracted[0]):
                problems.setdefault(op_id, []).append("written output reads back wrong")
    cal = outputs.get("rejection_rates")
    if cal is not None:
        rates = cal["rates"]
        if (cal["n_runs"] != size["cal_runs"] or cal["n_bits"] != size["cal_bits"]
                or len(rates) != 4 or any(not 0 <= r <= 1 for r in rates.values())):
            problems.setdefault("rejection_rates", []).append("calibration report malformed")
    return problems


def work_post(size):
    return size["streams"] * size["bits"]


def _gain_models(size):
    from betaenc import encoder

    iid = encoder.IidSupportBetas((THREE_HALVES, Fraction(8, 5)), (Fraction(1, 2), Fraction(1, 2)))
    labels = ("fixed3_2", "fixed9_5", "iid3_2-8_5")
    gains = (encoder.FixedBeta(THREE_HALVES), encoder.FixedBeta(NINE_FIFTHS), iid)
    return [(f"{label}.m{m}", g, m) for label, g, m in zip(labels, gains, size["word_m"])]


def setup_exact(seed, size, workdir):
    from betaenc import extract

    m, k = size["flat_mk"]
    return {"seed": seed, "size": size, "family": extract.flat_source_family(m, k, seed)}


def timed_exact(inp, ops):
    from betaenc import entropy, extract, lochs
    from betaenc.numerics import state_bound

    size = inp["size"]
    for label, gains, m in _gain_models(size):
        dist = ops(f"word_distribution.{label}", entropy.word_distribution, gains, m=m)
        beta_min, beta_max = gains.beta_range
        ops(f"min_entropy_bound_check.{label}", entropy.min_entropy_bound_check,
            dist, beta_min, state_bound(beta_max))
    for m in size["pm_m"]:
        ops(f"pm_measure_exact.m{m}", lochs.pm_measure_exact, THREE_HALVES, 1, m, Fraction(1, 2))
    m, _ = size["flat_mk"]
    for n in (1, 2):
        ops(f"flat_avg_seed_tv.n{n}", extract.flat_avg_seed_tv, m, n, inp["family"])


def check_exact(inp, outputs):
    from betaenc import extract, lochs

    problems = {}
    size = inp["size"]
    for label, _, _ in _gain_models(size):
        check = outputs.get(f"min_entropy_bound_check.{label}")
        if check is not None and not check.ok:
            problems.setdefault(f"min_entropy_bound_check.{label}", []).append("peak above bound")
    for m in size["pm_m"]:
        measure = outputs.get(f"pm_measure_exact.m{m}")
        if measure is not None and not lochs.pm_bound_holds(measure, m, Fraction(1, 2)):
            problems.setdefault(f"pm_measure_exact.m{m}", []).append("tail measure above bound")
    _, k = size["flat_mk"]
    pinned = inp["seed"] == 0 and size["flat_mk"] == (10, 6)
    for n in (1, 2):
        tvs = outputs.get(f"flat_avg_seed_tv.n{n}")
        if tvs is None:
            continue
        op_id = f"flat_avg_seed_tv.n{n}"
        if len(tvs) != len(inp["family"]) or not all(extract.leftover_hash_bound_ok(tv, n, k) for tv in tvs):
            problems.setdefault(op_id, []).append("leftover-hash bound fails")
        if pinned and max(tvs) != FROZEN_WORST_TV[n]:
            problems.setdefault(op_id, []).append(f"worst tv {max(tvs)} != {FROZEN_WORST_TV[n]}")
    return problems


def work_exact(size):
    return len(size["word_m"]) + len(size["pm_m"]) + 2


WORKLOADS = {
    "stream": (setup_stream, timed_stream, check_stream, work_stream),
    "lochs": (setup_lochs, timed_lochs, check_lochs, work_lochs),
    "post": (setup_post, timed_post, check_post, work_post),
    "exact": (setup_exact, timed_exact, check_exact, work_exact),
}


# ---------------------------------------------------------------------------


def run_once(args) -> dict:
    slowdown = Slowdown(NUMPY_SHARE[args.workload])
    slow_at_start = slowdown()
    _import_betaenc()
    import tracing

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    setup, timed, check, work = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with tracer.span("setup"):
            inputs = setup(args.seed, size, workdir)
        setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawn_time
        ops = Ops(slowdown)
        setup_factor = 2 / (slow_at_start + ops.last_slow)
        with tracer.span("workload"):
            try:
                timed(inputs, ops)
            except OpFailed:
                pass
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer.enabled = False
        problems = {op: [msg] for op, msg in ops.errors.items()}
        for op, msgs in check(inputs, ops.outputs).items():
            problems.setdefault(op, []).extend(msgs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = {op: digest(out) for op, out in ops.outputs.items()}
    attempted = len(ops.outputs) + len(ops.errors)
    if args.digests and args.seed == DEFAULT_SEED:
        with open(args.digests) as fh:
            expected = json.load(fh).get(args.size, {}).get(args.workload, {})
        for op, want in expected.items():
            if op not in digests and op not in ops.errors:
                attempted += 1
                problems.setdefault(op, []).append("expected operation did not run")
            elif op in digests and digests[op] != want:
                problems.setdefault(op, []).append("output digest differs from the recorded one")
    result = {
        "setup_s": setup_raw * setup_factor,
        "setup_raw_s": setup_raw,
        "wall_s": sum(ops.adjusted.values()),
        "wall_raw_s": sum(ops.raw.values()),
        "op_times": ops.adjusted,
        "op_times_raw": ops.raw,
        "work": work(size),
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": len(problems),
        "problems": {op: msgs for op, msgs in sorted(problems.items())},
        "digests": digests,
    }
    if args.trace:
        def scale(t):
            i = bisect.bisect_right(ops.starts, t) - 1
            return ops.factors[i] if i >= 0 else setup_factor

        times = tracer.layer_times(scale)
        times["uncovered:workload"] = result["wall_s"] - times.pop("children:workload", 0.0)
        result["layer_times"] = times
        result["layer_counts"] = dict(tracer.counts)
        if args.spans_out:
            tracer.write(args.spans_out)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", help="expected digests; checked at the default seed")
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    print(json.dumps(run_once(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
