"""The verdict ledger: every config in `configs/` and `scripts/compare_configs/`
runs through the CLI, and its exit code and, per case (p, h), the ``pass`` of
every section and the names of the skipped sections must equal the entry
recorded in `tests/verdicts.json`.  A change that flips a verdict fails here
until the ledger is edited, so each flip is reviewed; the failure names each
flip as ``config case section: old -> new``.

The value ledger `tests/values.json` holds, from the same runs, every number
(float or integer; not the booleans) of every report, by case and by key
path (``section.key``, a list entry by its index).  A value passes when
|a - b| <= 1e-8 max(|a|, |b|) + 1e-13.  The relative part is far above the
rounding-level moves of a change that reorders arithmetic (at most 5.2e-10
relative in a report over four such changes) and far below any real change
of a computed quantity; the absolute floor covers values that are rounding
noise about zero, such as the planar matrix-inequality gap.  An integer
must match exactly.  The failure names each moved value as
``config case key: old -> new (relative change)``.

Both ledgers are written from the current checkout by

    PYTHONPATH=src python tests/test_verdicts.py
"""

import functools
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from plap_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).resolve().parent / "verdicts.json"
VALUES = Path(__file__).resolve().parent / "values.json"
CONFIGS = sorted([*(ROOT / "configs").glob("*.json"),
                  *(ROOT / "scripts" / "compare_configs").glob("*.json")])


def _report_verdicts(rep: dict) -> dict:
    return {"pass": {name: sec["pass"] for name, sec in sorted(rep.items())
                     if isinstance(sec, dict) and "pass" in sec},
            "skipped": sorted(rep["skipped"])}


def _report_values(value, key: str = "") -> dict:
    """Every number of a parsed report, by its key path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        return {key: value} if numeric else {}
    return {k: v for name, item in items
            for k, v in _report_values(item, f"{key}.{name}" if key else str(name)).items()}


def run(config: Path, out: Path) -> tuple[dict, dict]:
    """Run one config into ``out`` and read back its exit code and, per
    case ``p<p>_h<h>``, its section verdicts, and per case its values."""
    command = json.loads(config.read_text(encoding="utf-8"))["command"]
    code = main([command, "--config", str(config), "--out", str(out)])
    cases, values = {}, {}
    for path in sorted(out.glob("report_*.json")):
        rep = json.loads(path.read_text())
        case = path.stem[len("report_"):]
        cases[case], values[case] = _report_verdicts(rep), _report_values(rep)
    return {"exit": code, "cases": cases}, values


@functools.cache
def _outcome(config: Path) -> tuple[dict, dict]:
    """`run` of one config, once per session for both ledgers."""
    with tempfile.TemporaryDirectory() as tmp:
        return run(config, Path(tmp))


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


def _same(a: float, b: float) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= 1e-8 * max(abs(a), abs(b)) + 1e-13


def moves(stem: str, want: dict, got: dict) -> list[str]:
    """One line per value of config ``stem`` that differs from the ledger
    entry ``want``, with its relative change; None where the case or the
    key is missing."""
    lines = []
    for case in sorted(want.keys() | got.keys()):
        old, new = want.get(case, {}), got.get(case, {})
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key), new.get(key)
            if a is None or b is None:
                if a is not b:
                    lines.append(f"{stem} {case} {key}: {a} -> {b}")
            elif not _same(a, b):
                change = (b - a) / abs(a) if a else math.inf
                lines.append(f"{stem} {case} {key}: {a!r} -> {b!r} ({change:+.3g})")
    return lines


def test_ledger_lists_every_config():
    for ledger in (LEDGER, VALUES):
        assert sorted(json.loads(ledger.read_text())) == sorted(c.stem for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_verdicts_match_the_ledger(config):
    want = json.loads(LEDGER.read_text())[config.stem]
    got = _outcome(config)[0]
    assert got == want, "\n".join(flips(config.stem, want, got))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_values_match_the_ledger(config):
    want = json.loads(VALUES.read_text())[config.stem]
    lines = moves(config.stem, want, _outcome(config)[1])
    assert not lines, "\n".join(lines)


if __name__ == "__main__":
    outcomes = {c.stem: _outcome(c) for c in CONFIGS}
    for ledger, k in ((LEDGER, 0), (VALUES, 1)):
        entries = {stem: outcome[k] for stem, outcome in outcomes.items()}
        ledger.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
