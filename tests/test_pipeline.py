"""One pass per case: each piece of a case's derived state is built once."""

import json
import sys

from plap_lab import fields, geometry, identities
from plap_lab.cli import main


def _count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of module.name at every place the package looks it up."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "plap_lab" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_verify_derives_each_piece_once(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "command": "verify",
        "domain": {"variant": "disk", "radius": 1.0},
        "p": [2.0, 3.0], "h": [0.1],
    }))
    recoveries = _count_calls(monkeypatch, fields, "recover_derivatives")
    traces = _count_calls(monkeypatch, identities, "boundary_trace")
    lengths = _count_calls(monkeypatch, geometry, "curve_length")
    tables = _count_calls(monkeypatch, geometry, "_arclength_table")
    lu_p = _count_calls(monkeypatch, fields, "linearized_on_p")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    n_cases, n_loops = 2, 1            # one disk mesh shared by both cases
    assert len(recoveries) == n_cases
    assert len(traces) == n_cases
    assert len(lengths) <= n_loops
    assert len(tables) <= n_loops
    assert len(lu_p) == n_cases
