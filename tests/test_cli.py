import csv
import json
import os
from pathlib import Path

import pytest

import betaenc.cli as cli
from betaenc.bitio import read_bit_file
from betaenc.cli import main, rational
from betaenc.errors import ConfigurationError
from betaenc.extract import TWO_SOURCE_WARNING


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


def test_entropy_outputs(tmp_path):
    code, out = run(["entropy", "--beta", "8/5", "--m", "1"], tmp_path)
    assert code == 0
    with open(out / "entropy.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0] == {"word": "0", "p": "5/8", "decimal": "0.625000000000"}
    doc = read_json(out / "entropy.json")
    assert doc["bound_check"]["ok"] is True
    assert doc["bound_check"]["bound"] == "25/24"


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


def test_nested_replay_is_refused(tmp_path, capsys):
    looped = tmp_path / "manifest.json"
    looped.write_text(json.dumps({"argv": ["replay", str(looped)]}), encoding="utf-8")
    code = main(["replay", str(looped), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "replay" in err
    assert err.count("\n") == 1
