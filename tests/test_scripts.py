"""Smoke runs of the command-line scripts at their smallest sizes."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_battery_calibration_script():
    done = run_script("battery_calibration.py", "--runs", "20", "--bits", "4096")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "20 runs x 4096 bits, alpha 0.01, tolerance 0.06675"
    assert len(lines) == 5 and all(line.endswith(" ok") for line in lines[1:])


def test_extractor_audit_script():
    done = run_script("extractor_audit.py", "--m", "4", "--k", "2", "--n-list", "1,2",
                      "--two-source-m", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("seeded: m=4 k=2, ")
    assert [line.split(":")[0].strip() for line in lines[1:3]] == ["n=1", "n=2"]
    assert all("violations 0" in line for line in lines[1:3])
    assert lines[3].startswith("two-source: m=2, 1 subcube pairs, worst tv ")
