import csv
import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

import betaenc.cli as cli
from betaenc.bitio import read_bit_file
from betaenc.cli import main, rational
from betaenc.encoder import ConstantThreshold, UniformBetas, encode
from betaenc.errors import ConfigurationError
from betaenc.extract import TWO_SOURCE_WARNING
from betaenc.prng import SplitMix64


def run(args, tmp, sub=""):
    out = Path(tmp) / sub if sub else Path(tmp)
    code = main(args + ["--out-dir", str(out)])
    return code, out


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_help_and_version_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "betaenc" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_rational_parser_rejects_decimals(capsys):
    assert rational("3/2") == pytest.approx(1.5)
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--x", "0.5", "--beta", "3/2", "--steps", "3"])
    assert exc.value.code == 2
    assert "p/q" in capsys.readouterr().err


def test_int_list_parser_rejects_non_integers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--x", "1/3", "--beta", "3/2", "--m-list", "4,x"])
    assert exc.value.code == 2
    assert "argument --m-list: '4,x': invalid literal for int()" in capsys.readouterr().err


def test_encode_trace(tmp_path, capsys):
    code, out = run(
        ["encode", "--x", "1/2", "--beta", "3/2", "--steps", "3"], tmp_path
    )
    assert code == 0
    doc = read_json(out / "encode.json")
    assert doc["bits"] == "010"
    assert doc["states"] == ["3/4", "1/8", "3/16"]
    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == "encode"
    assert manifest["outputs"] == ["encode.json"]
    assert "--out-dir" not in manifest["argv"]
    printed = capsys.readouterr().out
    assert f"wrote {out / 'encode.json'}" in printed
    assert f"wrote {out / 'manifest.json'}" in printed


def test_random_gain_trace_past_the_int_digit_limit(tmp_path):
    # 300 random-gain steps give states of more than 4300 decimal digits
    argv = ["encode", "--x", "5/17", "--beta-uniform", "3/2,8/5", "--steps", "300",
            "--seed", "4"]
    code, out = run(argv, tmp_path)
    assert code == 0
    states = read_json(out / "encode.json")["states"]
    trace = encode(Fraction(5, 17), UniformBetas(Fraction(3, 2), Fraction(8, 5)),
                   ConstantThreshold(1), 300, rng=SplitMix64(4))
    assert len(states) == 300 and len(states[-1]) > 4300
    assert rational(states[-1]) == trace.states[-1]


def test_encode_requires_a_length(tmp_path, capsys):
    code, _ = run(["encode", "--x", "1/2", "--beta", "3/2"], tmp_path)
    assert code == 2
    assert "--steps" in capsys.readouterr().err


def test_encode_rejects_two_gain_models(tmp_path, capsys):
    code, _ = run(
        ["encode", "--x", "1/2", "--beta", "3/2", "--beta-list", "3/2,3/2",
         "--steps", "2"],
        tmp_path,
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--float-bits", "20"], ["--steps", "5"]])
def test_stream_bits_refuses_trace_flags(tmp_path, capsys, extra):
    # the stream path would silently ignore them
    code, _ = run(["encode", "--x", "1/3", "--beta", "3/2", "--stream-bits", "100"] + extra,
                  tmp_path, "enc/nested")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --stream-bits") and extra[0] in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["encode", "--x", "1/3", "--beta-list", "3/2,3/2", "--stream-bits", "100"],
     "--stream-bits is the fixed-gain fast path; it needs --beta and --u"),
    (["lochs", "--beta", "3/2", "--m-list", "4", "--samples", "3", "--u-uniform", "1",
      "--workers", "1"], "--u-uniform takes exactly LO,HI"),
], ids=["stream-bits-beta-list", "u-uniform-one-value"])
def test_process_flags_out_of_place_are_one_line_errors(tmp_path, capsys, argv, message):
    code, _ = run(argv, tmp_path, "out")
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_out_dir_with_an_equals_sign_is_left_out_of_the_manifest(tmp_path):
    argv = ["encode", "--x", "1/2", "--beta", "3/2", "--steps", "3"]
    assert main(argv + [f"--out-dir={tmp_path / 'o'}"]) == 0
    assert read_json(tmp_path / "o" / "manifest.json")["argv"] == argv


def test_replay_is_byte_identical(tmp_path):
    args = ["encode", "--x", "2/7", "--beta-uniform", "3/2,9/5", "--u-uniform",
            "1,5/4", "--steps", "40", "--seed", "5"]
    code, first = run(args, tmp_path, "a")
    assert code == 0
    code = main(["replay", str(first / "manifest.json"), "--out-dir",
                 str(tmp_path / "b")])
    assert code == 0
    second = tmp_path / "b"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_stream_battery_extract_chain(tmp_path, capsys):
    code, enc = run(
        ["encode", "--x", "5/17", "--beta", "3/2", "--stream-bits", "6000"],
        tmp_path, "enc",
    )
    assert code == 0
    summary = read_json(enc / "encode.json")
    assert summary["n_bits"] == 6000
    stream = enc / "stream.bin"
    assert read_bit_file(stream).size == 6000

    code, bat = run(
        ["battery", "--input", str(stream), "--alpha", "0.01"], tmp_path, "bat"
    )
    assert code == 0
    report = read_json(bat / "battery.json")
    assert report["all_pass"] is False  # raw encoder bits are biased
    by_name = {t["name"]: t for t in report["tests"]}
    assert by_name["serial"]["pass"] is False

    capsys.readouterr()
    code, ext = run(
        ["extract", "--input", str(stream), "--mode", "seeded",
         "--block-bits", "48", "--out-bits", "8", "--beta-min", "3/2",
         "--beta-max", "3/2", "--seed", "1"],
        tmp_path, "ext",
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = read_json(ext / "extract.json")
    assert doc["blocks"] == 125
    assert doc["bits_out"] == 1000
    assert read_bit_file(ext / "extracted.bin").size == 1000


def test_two_source_warning_lands_on_stderr(tmp_path, capsys):
    code, enc = run(
        ["encode", "--x", "5/17", "--beta", "7/5", "--stream-bits", "256"],
        tmp_path, "enc",
    )
    assert code == 0
    capsys.readouterr()
    code, _ = run(
        ["extract", "--input", str(enc / "stream.bin"), "--mode", "two-source",
         "--block-bits", "16", "--beta-min", "7/5", "--beta-max", "7/5"],
        tmp_path, "ext",
    )
    assert code == 0
    assert TWO_SOURCE_WARNING in capsys.readouterr().err


def test_convert_csv_columns(tmp_path):
    code, out = run(
        ["convert", "--x", "1/3", "--beta", "3/2", "--m-list", "4,8"], tmp_path
    )
    assert code == 0
    with open(out / "convert.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["x"] == "1/3"
    assert [r["k"] for r in rows] == ["9", "16"]
    assert set(rows[0]) == {"x", "m", "k", "deviation", "exceeded"}


def test_convert_json_format(tmp_path):
    code, out = run(
        ["convert", "--x", "1/3", "--beta", "3/2", "--m-list", "4",
         "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = read_json(out / "convert.json")
    assert doc[0]["k"] == 9


def test_lochs_outputs(tmp_path):
    code, out = run(
        ["lochs", "--beta", "3/2", "--m-list", "4,8", "--samples", "25",
         "--seed", "3", "--workers", "1"],
        tmp_path,
    )
    assert code == 0
    with open(out / "lochs.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "m", "mean_k_over_m", "target", "mean_k", "min_deviation",
            "tail_mass", "cap_hits",
        ]
        rows = list(reader)
    assert rows[0]["target"].startswith("1.7095")
    doc = read_json(out / "lochs.json")
    assert doc["config"]["beta"] == "3/2"
    assert len(doc["rows"]) == 2


def test_lochs_m_with_every_sample_capped(tmp_path):
    code, out = run(
        ["lochs", "--beta", "3/2", "--samples", "3", "--k-cap", "5",
         "--m-list", "8,16", "--workers", "1"],
        tmp_path,
    )
    assert code == 0
    with open(out / "lochs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    empty = {"mean_k_over_m": "", "target": "", "mean_k": "",
             "min_deviation": "", "tail_mass": ""}
    assert rows == [dict(m="8", cap_hits="3", **empty), dict(m="16", cap_hits="3", **empty)]
    assert read_json(out / "manifest.json")["outputs"] == ["lochs.csv", "lochs.json"]


@pytest.mark.parametrize("argv", [
    ["convert", "--x", "1/3", "--beta", "3/2", "--m-list", "4", "--k-cap", "-1"],
    ["lochs", "--beta", "3/2", "--m-list", "4", "--samples", "3", "--k-cap", "0",
     "--workers", "1"],
])
def test_k_cap_below_one_is_a_usage_error(tmp_path, capsys, argv):
    code, out = run(argv, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k_cap") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


SEEDED_ARGV = [
    ["encode", "--x", "2/7", "--beta", "3/2", "--steps", "4", "--u-uniform", "1,2"],
    ["convert", "--x", "1/3", "--beta", "3/2", "--m-list", "4", "--u-uniform", "1,2"],
    ["lochs", "--beta", "3/2", "--m-list", "4", "--samples", "3", "--workers", "1"],
    ["extract", "--input", "missing.bin", "--mode", "seeded", "--block-bits", "48",
     "--beta-min", "3/2", "--beta-max", "3/2"],
]


@pytest.mark.parametrize("argv", SEEDED_ARGV, ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", [str(1 << 64), str((1 << 64) + 1), "-1"])
def test_seeds_outside_64_bits_are_a_usage_error(argv, seed, tmp_path, capsys):
    # SplitMix64 keeps a seed's low 64 bits: 2**64 + 1 would replay seed 1
    code, out = run(argv + ["--seed", seed], tmp_path, "out")
    assert code == 2
    assert capsys.readouterr().err == f"error: --seed must be an integer in [0, 2**64), got {seed}\n"
    assert list(tmp_path.iterdir()) == []


REFUSED_LOCHS = ["lochs", "--beta", "3/2", "--m-list", "4", "--samples", "4", "--k-cap", "0",
                 "--workers", "2"]


def test_refused_run_creates_no_out_dir(tmp_path, capsys):
    code, out = run(REFUSED_LOCHS, tmp_path, "kc/nested")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: k_cap")
    assert list(tmp_path.iterdir()) == []


def test_refused_run_keeps_an_existing_out_dir(tmp_path, capsys):
    (tmp_path / "kc").mkdir()
    code, out = run(REFUSED_LOCHS, tmp_path, "kc")
    assert code == 2
    assert out.is_dir() and list(out.iterdir()) == []


def test_beta_probs_needs_beta_support(tmp_path, capsys):
    code, out = run(
        ["encode", "--x", "1/2", "--beta", "3/2", "--beta-probs", "1/2", "--steps", "3"],
        tmp_path,
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --beta-probs needs --beta-support\n"
    assert not (out / "encode.json").exists()


def test_lochs_worker_env_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BETAENC_WORKERS", "0")
    code, _ = run(
        ["lochs", "--beta", "3/2", "--m-list", "4", "--samples", "5"], tmp_path
    )
    assert code == 2
    assert "workers" in capsys.readouterr().err
    monkeypatch.setenv("BETAENC_WORKERS", "two")
    code, _ = run(
        ["lochs", "--beta", "3/2", "--m-list", "4", "--samples", "5"], tmp_path
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: BETAENC_WORKERS='two'")


def test_lochs_workers_default_to_the_affinity_mask(tmp_path, monkeypatch, capsys):
    seen = []

    def capture(exp):
        seen.append(exp.workers)
        raise ConfigurationError("stop after configuration")

    monkeypatch.delenv("BETAENC_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(cli, "run_lochs", capture)
    code, _ = run(["lochs", "--beta", "3/2", "--m-list", "4", "--samples", "5"], tmp_path)
    assert code == 2
    assert seen == [3]


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("BETAENC_OUT_DIR", str(target))
    code = main(["encode", "--x", "1/2", "--beta", "3/2", "--steps", "2"])
    assert code == 0
    assert (target / "encode.json").exists()


def test_abbreviated_flags_are_usage_errors(tmp_path, monkeypatch, capsys):
    # --out was read as --out-dir and kept in the manifest's argv, so a
    # replay wrote into o1 again
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BETAENC_OUT_DIR", raising=False)
    for argv in (["encode", "--x", "1/2", "--beta", "3/2", "--steps", "3", "--out", "o1"],
                 ["encode", "--x", "1/2", "--beta", "3/2", "--ste", "3"],
                 ["--vers"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_entropy_outputs(tmp_path):
    code, out = run(["entropy", "--beta", "8/5", "--m", "1"], tmp_path)
    assert code == 0
    with open(out / "entropy.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0] == {"word": "0", "p": "5/8", "decimal": "0.625000000000"}
    doc = read_json(out / "entropy.json")
    assert doc["bound_check"]["ok"] is True
    assert doc["bound_check"]["bound"] == "25/24"


def test_entropy_drops_words_of_zero_probability(tmp_path):
    # the 9/5 branch has weight 0: the law is the fixed 3/2 law
    code, zero = run(["entropy", "--m", "6", "--beta-support", "3/2,9/5",
                      "--beta-probs", "1,0"], tmp_path, "zero")
    assert code == 0
    code, fixed = run(["entropy", "--m", "6", "--beta", "3/2"], tmp_path, "fixed")
    assert code == 0
    assert (zero / "entropy.csv").read_bytes() == (fixed / "entropy.csv").read_bytes()


def test_entropy_budget_exit_code(tmp_path, capsys):
    code, _ = run(
        ["entropy", "--beta-support", "3/2,8/5", "--m", "20"], tmp_path
    )
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_entropy_rejects_continuous_gain(tmp_path, capsys):
    code, _ = run(
        ["entropy", "--beta-uniform", "3/2,9/5", "--m", "2"], tmp_path
    )
    assert code == 2
    assert "finite-support" in capsys.readouterr().err


def test_battery_rejects_short_streams(tmp_path, capsys):
    code, enc = run(
        ["encode", "--x", "5/17", "--beta", "3/2", "--stream-bits", "100"],
        tmp_path, "enc",
    )
    assert code == 0
    code, _ = run(
        ["battery", "--input", str(enc / "stream.bin")], tmp_path, "bat"
    )
    assert code == 2
    assert "minimum" in capsys.readouterr().err


def test_missing_input_file_is_a_one_line_error(tmp_path, capsys):
    missing = tmp_path / "nope.bin"
    for argv in (["battery", "--input", str(missing)],
                 ["extract", "--input", str(missing), "--mode", "seeded",
                  "--block-bits", "48", "--beta-min", "3/2", "--beta-max", "3/2",
                  "--seed", "1"]):
        code, _ = run(argv, tmp_path, "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert err.count("\n") == 1


def test_replay_of_a_missing_or_malformed_manifest(tmp_path, capsys):
    code = main(["replay", str(tmp_path / "manifest.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"tool\": \"betaenc\"}\n", encoding="utf-8")
    code = main(["replay", str(bad)])
    assert code == 2
    assert "not a betaenc manifest" in capsys.readouterr().err


def _tree(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("sub", ["taken", "taken/nested/out"])
def test_out_dir_on_a_file_is_a_one_line_error(tmp_path, capsys, sub):
    (tmp_path / "taken").write_text("a file\n", encoding="utf-8")
    before = _tree(tmp_path)
    code, _ = run(["encode", "--x", "1/2", "--beta", "3/2", "--steps", "3"], tmp_path, sub)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create {tmp_path / sub}: ") and err.count("\n") == 1
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("content", [
    json.dumps({"argv": [1, 2]}).encode(),
    json.dumps({"argv": "encode"}).encode(),
    b'{"argv": ["encode", "--x", "\xff"]}',
], ids=["non-string-argv", "string-argv", "not-utf8"])
def test_replay_of_a_manifest_with_bad_argv(tmp_path, capsys, content):
    bad = tmp_path / "manifest.json"
    bad.write_bytes(content)
    before = _tree(tmp_path)
    code = main(["replay", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad} is not a betaenc manifest\n"
    assert _tree(tmp_path) == before


def test_nested_replay_is_refused(tmp_path, capsys):
    looped = tmp_path / "manifest.json"
    looped.write_text(json.dumps({"argv": ["replay", str(looped)]}), encoding="utf-8")
    code = main(["replay", str(looped), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "replay" in err
    assert err.count("\n") == 1


STREAM_ARGV = ["encode", "--x", "5/17", "--beta", "3/2", "--stream-bits", "20000"]
FROZEN_ARGV = {
    "encode-stream": STREAM_ARGV,
    "encode-u-uniform": ["encode", "--x", "2/7", "--beta", "3/2", "--steps", "40",
                         "--u-uniform", "1,2", "--seed", "3"],
    "convert-u1": ["convert", "--x", "1/3", "--beta", "3/2", "--m-list", "4,8,16,32"],
    "convert-u-uniform": ["convert", "--x", "1/3", "--beta", "9/5", "--m-list", "4,8,16",
                          "--u-uniform", "1,5/4", "--seed", "2"],
    "lochs-u1": ["lochs", "--beta", "3/2", "--m-list", "4,8,16", "--samples", "60",
                 "--seed", "7", "--workers", "1"],
    "lochs-ukappa": ["lochs", "--beta", "9/5", "--u", "5/4", "--m-list", "4,8,16",
                     "--samples", "60", "--seed", "8", "--workers", "1"],
    "lochs-u-uniform": ["lochs", "--beta", "3/2", "--u-uniform", "1,2", "--m-list", "4,8,16",
                        "--samples", "60", "--seed", "9", "--workers", "1"],
    "entropy-fixed": ["entropy", "--beta", "9/5", "--m", "6"],
    "entropy-iid": ["entropy", "--beta-support", "3/2,8/5", "--m", "5"],
    "extract-seeded": ["extract", "--input", "enc/stream.bin", "--mode", "seeded",
                       "--block-bits", "48", "--out-bits", "8", "--beta-min", "3/2",
                       "--beta-max", "3/2", "--seed", "1"],
    "extract-two-source": ["extract", "--input", "enc/stream.bin", "--mode", "two-source",
                           "--block-bits", "16", "--beta-min", "3/2", "--beta-max", "3/2"],
    "battery": ["battery", "--input", "enc/stream.bin"],
    "encode-float-bits": ["encode", "--x", "5/17", "--beta", "3/2", "--steps", "200",
                          "--float-bits", "20"],
    "lochs-sqrt": ["lochs", "--beta", "3/2", "--m-list", "4,8,16", "--samples", "60",
                   "--seed", "5", "--scaling", "sqrt", "--tail-eps", "1", "--workers", "1"],
}
# sha256 of every output, recorded before the cylinder walker was factored out;
# encode-float-bits and lochs-sqrt were recorded before the precision policy
# became the float_bits argument
FROZEN_DIGESTS = {
    "battery": {
        "battery.json": "c58398802f5da86a764bb9beca72e792585e04f33cfddfe9e4db4cbf1d77ccfb",
        "manifest.json": "4e6b0fc153c1435a81f056176ea6999ec85af3c1aba95f96c444e8989a31856f",
    },
    "convert-u-uniform": {
        "convert.csv": "0fdd06f55ce8794fab5dea4b818c1d0a5cbdcadc7bd5a7edbc8c6829c5475439",
        "manifest.json": "7dc3fc21bed3bec14a6868cd3ba01b8e56111bc5fb087250deca3052acb0fe3b",
    },
    "convert-u1": {
        "convert.csv": "eac2bce54826607665615e628a7f6035251528b716c13b9e419c9f4a374c2e35",
        "manifest.json": "d88b424ce527807824f40d65fe1bdd76bfd6dae7eb3e578789e034ec953db5aa",
    },
    "encode-stream": {
        "encode.json": "e691a641f61d01d753bde3bcb7b0f4d80717b794164714f8cabe3113e175fc1d",
        "manifest.json": "55d093474d997d097fa7af9711cec2e6d6f0f0e4f992d9cfe204640db734699f",
        "stream.bin": "d8b5793e5a8b8d523a9e4ebcf802c7ca20948fc223b20f7f0a1f6403f44b20d4",
    },
    "encode-float-bits": {
        "encode.json": "179dff9fd0f96910b5c274a4301f831159eae730ff0ba3e14705763f7075d5c4",
        "manifest.json": "21fd761b7e42cb2b400418ef896b525a5385e7e419a3816aa8139a90ef7a42e9",
    },
    "encode-u-uniform": {
        "encode.json": "dafdb7c5f8c57eb0ecbb8c33ba5c17fa5bb38221b019d8504a7849229b273697",
        "manifest.json": "846ecc020416a1f2d161006ee7faeefbfd71aef1b59f91a6a0297d7e6224cc0b",
    },
    "entropy-fixed": {
        "entropy.csv": "39cd63fe984b369a9f055ec57de8806f9f10e283df20f838f3889c60ee2eadc0",
        "entropy.json": "bb5de402cdb0d1239661b557eb97fb506b7a70bb0c23398dc5bf62e88a5edbc4",
        "manifest.json": "4262f1f342f2962e1b50f3774e88251cb11bfdd717361e2aa5af54aa2be6d924",
    },
    "entropy-iid": {
        "entropy.csv": "7aa3edc12e4746bfa3753bc66953e855bf68f7472a8a131d3297982b3da3d08f",
        "entropy.json": "9b6ae3772ebb8c2cd776d8a70006cf7cc9eebda3a2e5c29434237a7e8c445d8f",
        "manifest.json": "cb38bed84238ca73e7194cd29fa3450d5bff9f52da633b909cde506166e14de3",
    },
    "extract-seeded": {
        "extract.json": "35c8cec22a21867d1a1fc8d773937e97b0935bcf201b1e8d98f2f84b7aa33d0f",
        "extracted.bin": "f098b22fc5950fe993c56add6c93e0ee6ecc2a2fed1a2dde220a534523c1d7d2",
        "manifest.json": "e98e39a7785caa6e9e1445f74a28978608a9c37248814a237453c4a4ff4586bb",
    },
    "extract-two-source": {
        "extract.json": "a779388e310ffdba2d090cdc38575987daff6cd6c06e594eaefa9b25b62b230a",
        "extracted.bin": "0a1ecb275e7a0098b04c4a916d4ab31b4cb17c73b788dec85d1b88ddb324a459",
        "manifest.json": "6857ab46a587992cafb0974868cc76b469c4ead946f740ab45c1624f8b0027f3",
    },
    "lochs-sqrt": {
        "lochs.csv": "6b0e7bcf742b24af321021b71ec771f8cdb0122d6fcebad5f9044bdbc3b62453",
        "lochs.json": "5258d403ee5089ef2470a5b1d4fe29062e73a7a65eab8929d7e3b5fc3d753a1b",
        "manifest.json": "977f12b377e3dfb752f66bb48d79d2e568917a460364e1c8b97e943aca1b0271",
    },
    "lochs-u-uniform": {
        "lochs.csv": "78f63c7c405a4774a7252d221c12a5efec1f29783d99591a48d7fe1cd89797ee",
        "lochs.json": "0ecdceb6c77dd3e4bd8161dcfb29cd8ce08c5f1582f5d9a2bfe75d60e7beff51",
        "manifest.json": "c8f65a89d05e5fb8e12b8af5f1461a8ddbb14e55810c7bbdb18cad7d9e82bf35",
    },
    "lochs-u1": {
        "lochs.csv": "cab6786a96efcca16d648687721f34c7186ca017b06c8b9baa6ced20f047bbc7",
        "lochs.json": "7b40cf81928c6655c45f91c41b909c6db7da0b7c141ff14ee83b685dcfe919d5",
        "manifest.json": "510e7e8e09a0a74ab395743f13f175631fb19cc21ba3590c4b6c5e0c32c7c563",
    },
    "lochs-ukappa": {
        "lochs.csv": "3fd2195fe2e4d2699ea5496576ccd25b3c8614ea43463a70b443945437363db5",
        "lochs.json": "064660175449f7d9607af7b7deaffdcf9be2b3f28022275d973bcbb0717a5166",
        "manifest.json": "27752abfd6fc6c384d42b08e59205ad51ea2f78c62758a90e7d593cfefd53a9e",
    },
}


@pytest.mark.parametrize("name", sorted(FROZEN_ARGV))
def test_cli_outputs_match_the_frozen_digests(name, tmp_path, monkeypatch):
    # relative names: the extract and battery manifests record the input path
    monkeypatch.chdir(tmp_path)
    argv = FROZEN_ARGV[name]
    if "--input" in argv:
        assert main(STREAM_ARGV + ["--out-dir", "enc"]) == 0
    assert main(argv + ["--out-dir", "out"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in Path("out").iterdir()}
    assert got == FROZEN_DIGESTS[name]
