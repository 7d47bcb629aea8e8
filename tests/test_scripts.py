"""`scripts/process_times.py` runs to completion, `scripts/bench_pairs.py`
summarizes canned run records, and every `scripts/`, `configs/` and
`tests/` path that README.md names exists."""

import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a path under scripts/, configs/ or tests/ that is not part of a longer
# path; a glob such as configs/*.json is not one
README_PATH = re.compile(r"(?<![\w/.])(?:scripts|configs|tests)/[\w./-]*\w")


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


def test_every_path_the_readme_names_exists():
    named = set(README_PATH.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    # the pattern finds the paths of each kind
    assert {"scripts/process_times.py", "configs/disk_verify.json",
            "tests/test_acceptance.py"} <= named
    assert sorted(path for path in named if not (ROOT / path).exists()) == []


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(set_name, pair, side, **metrics):
    return {"workload": "disk_p_ladder", "set": set_name, "pair": pair, "side": side,
            "result": {"metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}}


def test_bench_pairs_summarizes_each_metric_in_its_direction():
    """Medians and interquartile ranges of each side, and the pairs whose
    change run is strictly better, lower or higher as the metric says."""
    walls = {"parent": [0.30, 0.28, 0.31, 0.29, 0.40], "change": [0.25, 0.29, 0.26, 0.24, 0.41]}
    runs = [_run("all", k, side, wall_s=walls[side][k], samples_per_s=6.0 / walls[side][k],
                 checks_passed_frac=1.0)
            for k in range(5) for side in ("change", "parent")]
    # a failed run has no result, and a second set's pair counts as well
    runs += [{**_run("all", 5, "parent"), "result": None},
             _run("repeat", 0, "parent", wall_s=0.33), _run("repeat", 0, "change", wall_s=0.27)]
    better = {"wall_s": "lower", "samples_per_s": "higher", "checks_passed_frac": "higher"}
    summary = _bench_pairs().summarize(runs, better)["disk_p_ladder"]
    wall = summary["wall_s"]
    assert wall["median_parent"] == 0.305 and wall["median_change"] == 0.265
    parent = sorted(walls["parent"] + [0.33])
    q = statistics.quantiles(parent, n=4)
    assert wall["iqr_parent"] == q[2] - q[0]
    assert wall["change_better_pairs"] == 4
    assert summary["samples_per_s"]["change_better_pairs"] == 3
    assert summary["samples_per_s"]["median_parent"] == statistics.median(
        6.0 / w for w in walls["parent"])
    # equal values are no gain
    assert summary["checks_passed_frac"] == {
        "median_parent": 1.0, "iqr_parent": 0.0, "median_change": 1.0, "iqr_change": 0.0,
        "change_better_pairs": 0}


def test_bench_pairs_reports_digest_agreement():
    """``digests_equal`` holds for a workload when every complete pair's two
    sides have the same ``reports_sha256``; a run with no result or a pair
    with one side does not count, and a missing digest is no agreement."""
    def run(workload, pair, side, digest, result=True):
        return {**_run("all", pair, side, wall_s=0.3), "workload": workload,
                "reports_sha256": digest, **({} if result else {"result": None})}

    runs = [run("same", 0, "parent", "a"), run("same", 0, "change", "a"),
            run("same", 1, "parent", "b"), run("same", 1, "change", "b"),
            # a failed run and a pair with one side are not complete pairs
            run("same", 2, "parent", "c"), run("same", 2, "change", "d", result=False),
            run("same", 3, "change", "e"),
            run("moved", 0, "parent", "a"), run("moved", 0, "change", "a"),
            run("moved", 1, "parent", "b"), run("moved", 1, "change", "c"),
            run("unread", 0, "parent", None), run("unread", 0, "change", None),
            run("alone", 0, "parent", "a")]
    summary = _bench_pairs().summarize(runs, {"wall_s": "lower"})
    assert {w: summary[w]["digests_equal"] for w in summary} == {
        "same": True, "moved": False, "unread": False, "alone": False}
    assert summary["same"]["wall_s"]["median_parent"] == 0.3
