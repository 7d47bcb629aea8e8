"""scripts/compare_outputs.py: identical trees exit 0, one changed cell exits
1, a dropped CSV column is reported once, and moved numbers end with the
largest move of each output kind; scripts/shipped_outputs.py writes a tree
that it compares."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"


def _compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True)


def test_compare_outputs_exit_codes(tmp_path):
    old = tmp_path / "old"
    old.mkdir()
    (old / "report.json").write_text(json.dumps({"timestamp": "t0", "flux": {"rel": 0.25}}))
    (old / "rows.csv").write_text("p,h,value\n2.0,0.1,1.5\n3.0,0.1,2.5\n")
    (old / "notes.txt").write_text("same\n")
    new = tmp_path / "new"
    shutil.copytree(old, new)
    (new / "report.json").write_text(json.dumps({"timestamp": "t1", "flux": {"rel": 0.25}}))
    assert _compare(old, new).returncode == 0

    (new / "rows.csv").write_text("p,h,value\n2.0,0.1,1.5\n3.0,0.1,2.75\n")
    res = _compare(old, new)
    assert res.returncode == 1
    assert "rows.csv: row 2 value: 2.5 -> 2.75 (rel +1.000e-01)" in res.stdout
    assert "rows.csv: 1 values changed, largest relative change 1.000e-01" in res.stdout


def test_dropped_csv_column_is_reported_once(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "rows.csv").write_text("p,h,serrin,value\n2.0,0.1,0.5,1.5\n3.0,0.1,0.7,2.5\n")
    (new / "rows.csv").write_text("p,h,value\n2.0,0.1,1.5\n3.0,0.1,2.5\n")
    res = _compare(old, new)
    assert res.returncode == 1
    assert res.stdout.splitlines() == ["rows.csv: column serrin: only in old",
                                       "0 of 1 files identical"]


def test_moves_are_summed_up_by_output_kind(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for case in ("a", "b"):
        (old / case).mkdir(parents=True)
        (old / case / "report_p2_h0.1.json").write_text(json.dumps({"flux": {"rel": 0.5}}))
        (old / case / "slice_p2_h0.1.csv").write_text("x,u\n0.0,1.0\n")
        (old / case / "summary.json").write_text(json.dumps({"passed": 3}))
    shutil.copytree(old, new)
    (new / "a" / "report_p2_h0.1.json").write_text(json.dumps({"flux": {"rel": 0.51}}))
    (new / "b" / "report_p2_h0.1.json").write_text(json.dumps({"flux": {"rel": 0.55}}))
    (new / "b" / "slice_p2_h0.1.csv").write_text("x,u\n0.0,1.25\n")
    (new / "a" / "summary.json").write_text(json.dumps({"passed": 2}))
    res = _compare(old, new)
    assert res.returncode == 1
    assert res.stdout.splitlines()[-4:] == [
        "2 of 6 files identical",
        "report_*.json: largest relative move 1.000e-01, in b/report_p2_h0.1.json",
        "slice_*.csv: largest relative move 2.500e-01, in b/slice_p2_h0.1.csv",
        "summary.json: largest relative move 3.333e-01, in a/summary.json",
    ]


def test_shipped_outputs_tree_compares_identical(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    config = ROOT / "configs" / "radial.json"
    for out in (tmp_path / "old", tmp_path / "new"):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "shipped_outputs.py"),
                               str(out), str(config)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "exit_codes.json").read_text()) == {"radial": 0}
        assert (out / "radial" / "radial.json").is_file()
    res = _compare(tmp_path / "old", tmp_path / "new")
    assert res.returncode == 0, res.stdout
    assert res.stdout.splitlines()[-1] == "2 of 2 files identical"
