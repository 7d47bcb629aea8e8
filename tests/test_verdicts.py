"""The verdict ledger: every config in `configs/` and `scripts/compare_configs/`
runs through the CLI, and its exit code and, per case (p, h), the ``pass`` of
every section and the names of the skipped sections must equal the entry
recorded in `tests/verdicts.json`.  A change that flips a verdict fails here
until the ledger is edited, so each flip is reviewed.

The ledger is written from the current checkout by

    PYTHONPATH=src python tests/test_verdicts.py
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import pytest

from plap_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).resolve().parent / "verdicts.json"
CONFIGS = sorted([*(ROOT / "configs").glob("*.json"),
                  *(ROOT / "scripts" / "compare_configs").glob("*.json")])


def _report_verdicts(rep: dict) -> dict:
    return {"pass": {name: sec["pass"] for name, sec in sorted(rep.items())
                     if isinstance(sec, dict) and "pass" in sec},
            "skipped": sorted(rep["skipped"])}


def _sweep_verdicts(row: dict) -> dict:
    """A sweep row's verdicts: a skipped section leaves its cells empty and
    fills its ``skipped.*`` cell."""
    return {"pass": {key[:-len(".pass")]: value == "True" for key, value in sorted(row.items())
                     if key.endswith(".pass") and value != ""},
            "skipped": sorted(key[len("skipped."):] for key, value in row.items()
                              if key.startswith("skipped.") and value != "")}


def verdicts(config: Path, out: Path) -> dict:
    """Run one config into ``out`` and read back its exit code and, per
    case ``p<p>_h<h>``, its section verdicts."""
    command = json.loads(config.read_text(encoding="utf-8"))["command"]
    code = main([command, "--config", str(config), "--out", str(out)])
    cases = {}
    for path in sorted(out.glob("report_*.json")):
        cases[path.stem[len("report_"):]] = _report_verdicts(json.loads(path.read_text()))
    sweep = out / "sweep.csv"
    if sweep.exists():
        with open(sweep, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                cases[f"p{float(row['p']):g}_h{float(row['h']):g}"] = _sweep_verdicts(row)
    return {"exit": code, "cases": cases}


def test_ledger_lists_every_config():
    assert sorted(json.loads(LEDGER.read_text())) == sorted(c.stem for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_verdicts_match_the_ledger(tmp_path, config):
    assert verdicts(config, tmp_path) == json.loads(LEDGER.read_text())[config.stem]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ledger = {c.stem: verdicts(c, Path(tmp) / c.stem) for c in CONFIGS}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
