"""Self-tests of the benchmark.

    python3 -m pytest plapbench

Each workload runs three times with a one-second measuring time: twice
traced and once untraced.  This takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "plapbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("reports_sha256"))
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    return {"untraced": _parse(_run(request.param, 0)),
            "traced": [_parse(_run(request.param, 1)) for _ in range(2)]}


def _metrics(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_results_are_correct_and_complete(runs):
    result, _ = runs["untraced"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for result, _ in runs["traced"]:
        assert result["correct"] and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == _metrics("per_layer")


def test_traced_counters_repeat(runs):
    (a, _), (b, _) = runs["traced"]
    counters = [n for n, unit in _metrics("per_layer").items() if unit != "s"]
    assert {n: a["metrics"][n] for n in counters} == {n: b["metrics"][n] for n in counters}


def test_traced_and_untraced_reports_identical(runs):
    # the digest covers every output file, JSON with its timestamp removed
    digests = {d for _, d in [runs["untraced"]] + runs["traced"]}
    assert len(digests) == 1


def test_layer_self_times_within_traced_wall(runs):
    # trace.wall_s is the run's untraced wall_s plus trace.overhead_s
    for result, _ in runs["traced"]:
        m = {n: v["value"] for n, v in result["metrics"].items()}
        assert sum(m[f"{layer}.self_s"] for layer in LAYERS) <= m["trace.wall_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "plapbench", tmp_path / "plapbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("matcheck", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
