"""The betaenc benchmark: four seeded closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload stream --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced
    python3 perfbench/run.py --self-test      # tiny sizes: names, units, digest check
    python3 perfbench/run.py --record-digests # rewrite expected_digests.json

Each repetition of a workload is one fresh child process (``workloads.py``),
started one at a time, so ``setup_s`` and ``peak_rss_mib`` belong to that
workload alone.  Repetitions run until ``--seconds`` is used up (at least
three, or two untraced/traced pairs with ``--trace 1``).  Times are in
seconds at a nominal machine speed (see ``workloads.py`` and README.md).
``setup_s`` and ``peak_rss_mib`` are medians over the repetitions; ``wall_s``
is the sum over the workload's operations of each one's median time.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics (medians
over the traced repetitions), with ``trace.overhead_s`` the traced minus the
untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
machine record and the traced spans go to ``.perfbench_out/`` in the
checkout.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import DEFAULT_SEED, ROOT, SIZES

HERE = Path(__file__).resolve().parent
CHILD = HERE / "workloads.py"
DIGESTS = HERE / "expected_digests.json"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = tuple(workloads.WORKLOADS)
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150

# Work unit of ``throughput`` per workload.
WORK_UNITS = {
    "stream": "raw encoder bits",
    "lochs": "lochs samples",
    "post": "stored input bits",
    "exact": "enumerator calls",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine_record() -> dict:
    """Where the numbers came from: speedups only compare on one machine."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   check=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": nproc,
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's own ``.git``, or None when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_run(workload, seed, size, trace, digests, spans_out=None) -> dict:
    """One repetition in a fresh process; raises BenchError if it crashes."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(trace)]
    if digests:
        cmd += ["--digests", str(digests)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(spawn)], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition passed {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def repeat(seconds, min_count, step) -> list:
    """Call ``step`` until ``seconds`` is used up, at least ``min_count`` times.

    A new call starts only if the previous one would still fit, so a run
    overshoots ``seconds`` by at most the minimum count.
    """
    out = []
    start = time.perf_counter()
    last = 0.0
    while len(out) < min_count or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        out.append(step())
        last = time.perf_counter() - t0
    return out


def medians(reps, key) -> dict:
    """Per-key median over the repetitions' ``key`` dicts."""
    keys = set().union(*(r[key] for r in reps))
    return {k: statistics.median(r[key].get(k, 0.0) for r in reps) for k in keys}


def wall(reps) -> float:
    """Sum over operations of each operation's median adjusted time."""
    return sum(medians(reps, "op_times").values())


def end_to_end(reps) -> dict:
    wall_s = wall(reps)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "wall_s": (wall_s, "s"),
        "throughput": (reps[0]["work"] / wall_s, "work/s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in reps), "MiB"),
    }


def per_layer(plain, traced, size) -> dict:
    keys = set().union(*(r["layer_counts"] for r in traced))
    # counts repeat exactly; median_low keeps them whole numbers
    counts = {k: statistics.median_low(r["layer_counts"].get(k, 0) for r in traced)
              for k in keys}
    metrics = tracing.per_layer(medians(traced, "layer_times"), counts,
                                SIZES[size]["stream"]["lengths"])
    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    return metrics


def run_workload(workload, seed, seconds, trace, size="full", digests=DIGESTS) -> dict:
    """One benchmark run: repetitions, medians, operation counts."""
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-{size}-seed{seed}"
    if trace:
        pairs = repeat(seconds, MIN_TRACED_PAIRS, lambda: (
            child_run(workload, seed, size, 0, digests),
            child_run(workload, seed, size, 1, digests, OUT_DIR / f"{tag}-spans.json"),
        ))
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        reps = plain + traced
        metrics = per_layer(plain, traced, size)
    else:
        reps = repeat(seconds, MIN_REPS, lambda: child_run(workload, seed, size, 0, digests))
        metrics = end_to_end(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = {}
    for r in reps:
        problems.update(r["problems"])
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "work_unit": WORK_UNITS[workload],
        "machine": machine_record(),
        "repetitions": [{k: v for k, v in r.items() if k != "digests"} for r in reps],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    with open(OUT_DIR / f"{tag}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result) -> None:
    w = result["workload"]
    for name, (value, unit) in result["metrics"].items():
        print(f"{w} {name} {value!r} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{w} error_rate {failed / attempted!r} ratio ({failed} of {attempted} operations failed)")
    for op, msgs in result["problems"].items():
        print(f"{w} FAILED {op}: {'; '.join(msgs)}")
    print(f"{w} machine {json.dumps(result['machine'], sort_keys=True)}")


def summary_line(results, prefix) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        for name, (value, unit) in r["metrics"].items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = {"value": value, "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def self_test() -> list:
    """Tiny-size run of every workload; returns the problems found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        return ["BENCHMARK.json workloads differ from run.py's"]
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, DEFAULT_SEED, 0, trace, size="smoke")
            emitted = {name: unit for name, (_, unit) in result["metrics"].items()}
            if emitted != wanted[trace]:
                problems.append(f"{workload} trace {trace}: emitted {sorted(emitted.items())}, "
                                f"BENCHMARK.json lists {sorted(wanted[trace].items())}")
            if result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['problems']}")
    # A wrong expected digest must show up as a failed operation.
    expected = json.loads(DIGESTS.read_text())
    op = sorted(expected["smoke"]["stream"])[0]
    expected["smoke"]["stream"][op] = "0" * 64
    corrupt = OUT_DIR / "corrupt_digests.json"
    corrupt.write_text(json.dumps(expected))
    try:
        rep = child_run("stream", DEFAULT_SEED, "smoke", 0, corrupt)
    finally:
        corrupt.unlink()
    if rep["failed"] != 1 or op not in rep["problems"]:
        problems.append(f"corrupted digest for {op} was not counted as one failed operation: {rep}")
    return problems


def record_digests() -> None:
    """Rewrite the expected digests from single runs at the default seed."""
    doc = {}
    for size in ("full", "smoke"):
        for workload in WORKLOADS:
            rep = child_run(workload, DEFAULT_SEED, size, 0, None)
            if rep["failed"]:
                raise BenchError(f"{workload}/{size} fails its checks: {rep['problems']}")
            doc.setdefault(size, {})[workload] = rep["digests"]
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics (default with "
                    "--workload all: both)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "betaenc" / "__init__.py").is_file():
        print(f"run.py: no betaenc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.self_test:
            problems = self_test()
            for p in problems:
                print(f"self-test: {p}")
            print("self-test: " + ("FAILED" if problems else "ok"))
            return 1 if problems else 0
        if args.workload == "all":
            traces = (0, 1) if args.trace is None else (args.trace,)
            results = [run_workload(w, args.seed, args.seconds, t)
                       for w in WORKLOADS for t in traces]
        else:
            results = [run_workload(args.workload, args.seed, args.seconds, args.trace or 0)]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    for r in results:
        print_result(r)
    print(summary_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
