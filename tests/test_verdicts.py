"""The verdict ledger: every config in `configs/` and `scripts/compare_configs/`
runs through the CLI, and its exit code and, per case (p, h), the ``pass`` of
every section and the names of the skipped sections must equal the entry
recorded in `tests/verdicts.json`.  A change that flips a verdict fails here
until the ledger is edited, so each flip is reviewed; the failure names each
flip as ``config case section: old -> new``.

The ledger is written from the current checkout by

    PYTHONPATH=src python tests/test_verdicts.py
"""

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


def verdicts(config: Path, out: Path) -> dict:
    """Run one config into ``out`` and read back its exit code and, per
    case ``p<p>_h<h>``, its section verdicts."""
    command = json.loads(config.read_text(encoding="utf-8"))["command"]
    code = main([command, "--config", str(config), "--out", str(out)])
    cases = {}
    for path in sorted(out.glob("report_*.json")):
        cases[path.stem[len("report_"):]] = _report_verdicts(json.loads(path.read_text()))
    return {"exit": code, "cases": cases}


def flips(stem: str, want: dict, got: dict) -> list[str]:
    """One line per way the verdicts ``got`` differ from the ledger entry
    ``want`` of config ``stem``: the exit code, a section's ``pass`` (None
    where the case or the section is missing) or a case's skipped list."""
    lines = [f"{stem} exit: {want['exit']} -> {got['exit']}"] if want["exit"] != got["exit"] else []
    for case in sorted(want["cases"].keys() | got["cases"].keys()):
        old, new = want["cases"].get(case, {}), got["cases"].get(case, {})
        old_pass, new_pass = old.get("pass", {}), new.get("pass", {})
        lines += [f"{stem} {case} {name}: {old_pass.get(name)} -> {new_pass.get(name)}"
                  for name in sorted(old_pass.keys() | new_pass.keys())
                  if old_pass.get(name) != new_pass.get(name)]
        if old.get("skipped") != new.get("skipped"):
            lines.append(f"{stem} {case} skipped: {old.get('skipped')} -> {new.get('skipped')}")
    return lines


def test_ledger_lists_every_config():
    assert sorted(json.loads(LEDGER.read_text())) == sorted(c.stem for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_verdicts_match_the_ledger(tmp_path, config):
    want = json.loads(LEDGER.read_text())[config.stem]
    got = verdicts(config, tmp_path)
    assert got == want, "\n".join(flips(config.stem, want, got))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ledger = {c.stem: verdicts(c, Path(tmp) / c.stem) for c in CONFIGS}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
