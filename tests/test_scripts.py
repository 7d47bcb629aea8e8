"""Each experiment script runs to completion on small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SMALL_ARGS = {
    "run_ball_benchmark.py": ["--p", "2", "--h", "0.2"],
    "run_ellipse_identities.py": ["--p", "2", "--h", "0.2"],
}


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("run_*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("script", sorted(SMALL_ARGS))
def test_script_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *SMALL_ARGS[script]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_process_times_prints_one_json_line_per_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "process_times.py"),
                           "--repeats", "1", str(ROOT / "configs" / "radial.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["config"], r["run"], r["exit_code"]) for r in lines] == [("radial", 0, 0)]
    assert sorted(lines[0]) == ["config", "exit_code", "run", "wall_s"]
    assert lines[0]["wall_s"] > 0.0
