"""Command-line entry point.

Subcommands: encode | convert | lochs | entropy | extract | battery,
plus ``replay`` which re-runs a recorded manifest.  Every run writes a
manifest.json (tool version, PRNG identifier, argv, echoed config, output
names) next to its outputs; identical argv and seed give byte-identical
files, so a manifest is a complete reproduction recipe.

Exactness boundary: beta, u, and x are taken as "p/q" literals and
decimal strings are rejected, so no precision is lost at the parser.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__
from .battery import battery_report, run_battery
from .bitio import read_bit_file, write_bit_file
from .converter import transfer_rows
from .encoder import (
    ConstantThreshold,
    ExplicitBetas,
    ExplicitThresholds,
    FixedBeta,
    IidSupportBetas,
    UniformBetas,
    UniformThresholds,
    encode,
    encode_bits,
)
from .entropy import min_entropy_bound_check, word_distribution
from .errors import ConfigurationError, DomainError, ResourceBudgetError
from .extract import PipelineConfig, pipeline_extract
from .lochs import LochsExperiment, run_lochs
from .numerics import check_seed, format_rational, parse_rational, state_bound
from .prng import PRNG_ID, SplitMix64


def rational(text: str):
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def rational_list(text: str) -> tuple:
    return tuple(rational(part) for part in text.split(","))


def int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_input(path: Path, read):
    try:
        return read(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from None


def _write_csv(path: Path, rows, fieldnames) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _add_gain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=rational, help="fixed gain, p/q in (1,2)")
    p.add_argument("--beta-list", type=rational_list, metavar="B1,B2,..",
                   help="explicit per-step gains")
    p.add_argument("--beta-support", type=rational_list, metavar="B1,B2,..",
                   help="iid gains on a finite support")
    p.add_argument("--beta-probs", type=rational_list, metavar="P1,P2,..",
                   help="probabilities for --beta-support (default uniform)")
    p.add_argument("--beta-uniform", type=rational_list, metavar="LO,HI",
                   help="iid gains uniform on [LO,HI]")


def _add_threshold_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--u", type=rational, help="constant threshold (default 1)")
    p.add_argument("--u-list", type=rational_list, metavar="U1,U2,..",
                   help="explicit per-step thresholds")
    p.add_argument("--u-uniform", type=rational_list, metavar="LO,HI",
                   help="iid thresholds uniform on [LO,HI]")


def _pair(values, flag: str):
    if len(values) != 2:
        raise ConfigurationError(f"{flag} takes exactly LO,HI")
    return values


# per role, the process each flag builds, in help order
_GAIN_FLAGS = {
    "--beta": lambda a: FixedBeta(a.beta),
    "--beta-list": lambda a: ExplicitBetas(a.beta_list),
    "--beta-support": lambda a: IidSupportBetas(a.beta_support, a.beta_probs),
    "--beta-uniform": lambda a: UniformBetas(*_pair(a.beta_uniform, "--beta-uniform")),
}
_THRESHOLD_FLAGS = {
    "--u": lambda a: ConstantThreshold(a.u),
    "--u-list": lambda a: ExplicitThresholds(a.u_list),
    "--u-uniform": lambda a: UniformThresholds(*_pair(a.u_uniform, "--u-uniform")),
}


def _process(args, flags: dict, default=None):
    """The process built by the one flag of ``flags`` given, else ``default`` if any."""
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
    if len(given) > 1 or not given and default is None:
        how = "exactly" if default is None else "at most"
        raise ConfigurationError(f"give {how} one of {', '.join(flags)}")
    if flags is _GAIN_FLAGS and args.beta_probs is not None and given != ["--beta-support"]:
        raise ConfigurationError("--beta-probs needs --beta-support")
    return flags[given[0]](args) if given else default


# ---------------------------------------------------------------------------
# subcommand handlers: write outputs into out_dir, return (config echo, outputs)


def _run_encode(args, out: Path):
    gain = _process(args, _GAIN_FLAGS)
    thresholds = _process(args, _THRESHOLD_FLAGS, ConstantThreshold(1))
    config = {
        "x": format_rational(args.x),
        "gain": gain.to_json(),
        "thresholds": thresholds.to_json(),
        "seed": args.seed,
    }

    if args.stream_bits is not None:
        if args.steps is not None or args.float_bits is not None:
            raise ConfigurationError("--stream-bits takes neither --steps nor --float-bits")
        if not isinstance(gain, FixedBeta) or not isinstance(thresholds, ConstantThreshold):
            raise ConfigurationError(
                "--stream-bits is the fixed-gain fast path; it needs --beta and --u"
            )
        bits = encode_bits(args.x, gain.value, thresholds.value, args.stream_bits)
        write_bit_file(out / "stream.bin", bits)
        config["stream_bits"] = args.stream_bits
        summary = {
            "mode": "stream",
            "n_bits": int(bits.size),
            "ones": int(bits.sum()),
            "output": "stream.bin",
        }
        _write_json(out / "encode.json", summary)
        return config, ["encode.json", "stream.bin"]

    if args.steps is None:
        raise ConfigurationError("give --steps N (or --stream-bits N)")
    trace = encode(args.x, gain, thresholds, args.steps, args.float_bits, SplitMix64(args.seed))
    doc = trace.to_json()
    config["steps"] = args.steps
    config["policy"] = doc["mode"]
    _write_json(out / "encode.json", doc)
    return config, ["encode.json"]


def _run_convert(args, out: Path):
    thresholds = _process(args, _THRESHOLD_FLAGS, ConstantThreshold(1))
    rng = SplitMix64(args.seed) if thresholds.is_random else None
    rows = transfer_rows(args.x, args.m_list, args.beta, thresholds, args.k_cap, rng)
    config = {
        "x": format_rational(args.x),
        "beta": format_rational(args.beta),
        "thresholds": thresholds.to_json(),
        "m_list": list(args.m_list),
        "k_cap": args.k_cap,
        "seed": args.seed,
    }
    if args.format == "json":
        _write_json(out / "convert.json", rows)
        return config, ["convert.json"]
    _write_csv(out / "convert.csv", rows, ["x", "m", "k", "deviation", "exceeded"])
    return config, ["convert.csv"]


def _run_lochs(args, out: Path):
    exp = LochsExperiment(
        beta=args.beta,
        thresholds=_process(args, _THRESHOLD_FLAGS, ConstantThreshold(1)),
        m_values=args.m_list,
        n_samples=args.samples,
        rng_seed=args.seed,
        scaling=args.scaling,
        eps_values=args.eps_list,
        tail_eps=args.tail_eps,
        precision_bits=args.precision_bits,
        k_cap=args.k_cap,
        workers=args.workers,
    )
    report = run_lochs(exp)
    _write_json(out / "lochs.json", report.to_json())
    _write_csv(
        out / "lochs.csv",
        report.csv_rows(),
        ["m", "mean_k_over_m", "target", "mean_k", "min_deviation", "tail_mass", "cap_hits"],
    )
    return exp.to_json(), ["lochs.csv", "lochs.json"]


def _run_entropy(args, out: Path):
    gain = _process(args, _GAIN_FLAGS)
    thresholds = _process(args, _THRESHOLD_FLAGS, ConstantThreshold(1))
    dist = word_distribution(gain, thresholds, args.m)
    beta_lo, beta_hi = gain.beta_range
    check = min_entropy_bound_check(dist, beta_lo, state_bound(beta_hi))
    config = {
        "gain": gain.to_json(),
        "thresholds": thresholds.to_json(),
        "m": args.m,
    }
    _write_csv(out / "entropy.csv", dist.to_csv_rows(), ["word", "p", "decimal"])
    _write_json(out / "entropy.json", {"config": config, "bound_check": check.to_json()})
    return config, ["entropy.csv", "entropy.json"]


def _run_extract(args, out: Path):
    bits = _read_input(args.input, read_bit_file)
    pipeline = PipelineConfig(
        mode=args.mode,
        block_bits=args.block_bits,
        beta_min=args.beta_min,
        beta_max=args.beta_max,
        out_bits=args.out_bits,
        gap_bits=args.gap_bits,
        seed=args.seed,
        seed_mode=args.seed_mode,
    )
    extracted, report = pipeline_extract(bits, pipeline)
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    write_bit_file(out / "extracted.bin", extracted)
    _write_json(out / "extract.json", report)
    config = dict(report)
    config["input"] = str(args.input)
    return config, ["extract.json", "extracted.bin"]


def _run_battery(args, out: Path):
    bits = _read_input(args.input, read_bit_file)
    results = run_battery(bits, args.alpha)
    report = battery_report(results, int(bits.size))
    _write_json(out / "battery.json", report)
    config = {"input": str(args.input), "alpha": args.alpha, "n_bits": int(bits.size)}
    return config, ["battery.json"]


_HANDLERS = {
    "encode": _run_encode,
    "convert": _run_convert,
    "lochs": _run_lochs,
    "entropy": _run_entropy,
    "extract": _run_extract,
    "battery": _run_battery,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None,
                        help="output directory (env BETAENC_OUT_DIR, default .)")

    parser = argparse.ArgumentParser(
        prog="betaenc",
        allow_abbrev=False,
        description="beta-encoder bit streams: generation, digit transfer, "
        "entropy accounting, extraction, and testing",
    )
    parser.add_argument("--version", action="version", version=f"betaenc {__version__}")
    # each flag has one spelling: an abbreviation such as --out would slip
    # past _strip_out_dir into the manifest
    add = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                  parents=[common], allow_abbrev=False)

    p = add("encode", help="run the encoder and record the trace")
    p.add_argument("--x", type=rational, required=True, help="input in [0,1], p/q")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--stream-bits", type=int, default=None,
                   help="fast path: emit this many bits as a packed stream")
    p.add_argument("--float-bits", type=int, default=None,
                   help="emulate rounding to this many mantissa bits")
    p.add_argument("--seed", type=int, default=0)
    _add_gain_args(p)
    _add_threshold_args(p)

    p = add("convert", help="bits needed per certain binary digit")
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--beta", type=rational, required=True)
    p.add_argument("--m-list", type=int_list, required=True, metavar="M1,M2,..")
    p.add_argument("--k-cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    _add_threshold_args(p)

    p = add("lochs", help="Monte-Carlo digit-transfer statistics")
    p.add_argument("--beta", type=rational, required=True)
    p.add_argument("--m-list", type=int_list, default=(8, 16, 32, 64), metavar="M1,M2,..")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scaling", choices=("linear", "sqrt"), default="linear")
    p.add_argument("--eps-list", type=rational_list,
                   default=(Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)))
    p.add_argument("--tail-eps", type=rational, default=Fraction(1, 10))
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--k-cap", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="env BETAENC_WORKERS, default available parallelism")
    _add_threshold_args(p)

    p = add("entropy", help="exact output-word distribution and min-entropy")
    p.add_argument("--m", type=int, required=True)
    _add_gain_args(p)
    _add_threshold_args(p)

    p = add("extract", help="post-process a bit stream into nearly uniform bits")
    p.add_argument("--input", type=Path, required=True, help="packed bit file")
    p.add_argument("--mode", choices=("seeded", "two-source"), required=True)
    p.add_argument("--block-bits", type=int, required=True)
    p.add_argument("--out-bits", type=int, default=1)
    p.add_argument("--gap-bits", type=int, default=0)
    p.add_argument("--beta-min", type=rational, required=True)
    p.add_argument("--beta-max", type=rational, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seed-mode", choices=("explicit", "stream"), default="explicit")

    p = add("battery", help="four-test statistical battery")
    p.add_argument("--input", type=Path, required=True, help="packed bit file")
    p.add_argument("--alpha", type=float, default=0.01)

    p = add("replay", help="re-run a recorded manifest byte-identically")
    p.add_argument("manifest", type=Path)

    return parser


def _strip_out_dir(argv) -> list:
    kept, skip = [], False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--out-dir":
            skip = True
            continue
        if token.startswith("--out-dir="):
            continue
        kept.append(token)
    return kept


def _manifest_argv(path: Path) -> list:
    data = _read_input(path, Path.read_bytes)
    try:
        argv = json.loads(data)["argv"]  # bytes that are not UTF-8 raise a ValueError
    except (ValueError, KeyError, TypeError):
        argv = None
    if not isinstance(argv, list) or not all(isinstance(token, str) for token in argv):
        raise ConfigurationError(f"{path} is not a betaenc manifest")
    return argv


def _dispatch(argv, replaying: bool = False) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "replay":
        if replaying:
            raise ConfigurationError("a manifest may not record another replay")
        replay_argv = _manifest_argv(args.manifest)
        if args.out_dir is not None:
            replay_argv += ["--out-dir", args.out_dir]
        return _dispatch(replay_argv, replaying=True)

    if getattr(args, "seed", None) is not None:
        check_seed(args.seed, "--seed", ConfigurationError)
    if args.command == "lochs" and args.workers is None:
        env = os.environ.get("BETAENC_WORKERS")
        try:
            args.workers = int(env) if env else len(os.sched_getaffinity(0))
        except ValueError:
            raise ConfigurationError(f"BETAENC_WORKERS={env!r} is not an integer") from None

    out = Path(args.out_dir or os.environ.get("BETAENC_OUT_DIR") or ".")
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create {out}: {exc.strerror}") from None
        config, outputs = _HANDLERS[args.command](args, out)
    except BaseException:
        # a refused run leaves no directory behind; one that existed stays
        for d in created:
            try:
                d.rmdir()
            except OSError:
                break
        raise
    manifest = {
        "tool": "betaenc",
        "version": __version__,
        "prng": PRNG_ID,
        "subcommand": args.command,
        "argv": _strip_out_dir(argv),
        "config": config,
        "outputs": sorted(outputs),
    }
    _write_json(out / "manifest.json", manifest)
    for name in sorted(outputs) + ["manifest.json"]:
        print(f"wrote {out / name}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # exact traces print states of many thousand digits; Python 3.11+ caps them
    getattr(sys, "set_int_max_str_digits", lambda limit: None)(0)
    try:
        return _dispatch(list(argv))
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
