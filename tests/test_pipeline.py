"""One pass per case: each piece of a case's derived state is built once."""

import json
import sys

import numpy as np
import pytest

from plap_lab import (ConformalMetric, Disk, Ellipse, ValidationError,
                      boundary_trace, build_mesh, build_report, fields, geometry,
                      identities, recover_derivatives, solve, solver)
from plap_lab.cli import main
from plap_lab.pipeline import run_case


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
    measures = _count_calls(monkeypatch, geometry, "Measures")
    normal_eqs = _count_calls(monkeypatch, fields, "_normal_equations")
    sites = _count_calls(monkeypatch, identities, "_trace_sites")
    orders = _count_calls(monkeypatch, solver, "_fill_reducing_order")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    n_cases, n_loops = 2, 1            # one disk mesh shared by both cases
    assert len(recoveries) == n_cases
    assert len(traces) == n_cases
    assert len(lengths) <= n_loops
    assert len(tables) <= n_loops
    assert len(lu_p) == n_cases
    # the metric measures (run_case and the solver's eps0 scale) and the
    # Euclidean ones (the trace's depth cap), each once per mesh
    assert len(measures) <= 2
    # mesh-only state, once per mesh: the recovery normal matrices, the
    # tangent's fill-reducing order and the located trace sample sites
    assert len(normal_eqs) == 1
    assert len(orders) == 1
    assert len(sites) == 1


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_zero_phi_case_matches_flat_case(p):
    """The flat metric is phi = 0: a poly metric with no terms runs the same
    conformal code and must reproduce the flat case bit for bit."""
    spec = Disk(1.0)
    mesh = build_mesh(spec, 0.1)
    flat = run_case(spec, ConformalMetric.flat(), p, 0.1, mesh=mesh)
    zero = run_case(spec, ConformalMetric.poly([], nonnegative_ricci=True), p, 0.1, mesh=mesh)
    assert np.array_equal(flat.solution.u, zero.solution.u)
    a, b = flat.report.to_json_dict(), zero.report.to_json_dict()
    sections = ("constants", "fundamental", "sbt", "flux", "eq_curvature", "hk",
                "subharmonicity")
    for name in sections:
        # the JSON text holds every float's repr, so equal text is bitwise equality
        assert json.dumps(a[name], sort_keys=True) == json.dumps(b[name], sort_keys=True), name


CAP = ConformalMetric.poly([(2, 0, -0.125), (0, 2, -0.125)], nonnegative_ricci=True)


@pytest.mark.parametrize("spec, h", [(Disk(1.0), 0.1), (Ellipse(2.0, 1.0), 0.14)])
def test_warm_mesh_state_matches_a_fresh_mesh(spec, h):
    """Cases that reuse the mesh-only state of earlier cases, in either order,
    give the same bits as a case on a freshly built mesh."""
    cases = [(ConformalMetric.flat(), 1.5), (CAP, 3.0), (ConformalMetric.flat(), 2.0)]
    cold = [run_case(spec, metric, p, h) for metric, p in cases]
    mesh = build_mesh(spec, h)
    for order in (cases, cases[::-1]):
        for metric, p in order:
            warm = run_case(spec, metric, p, h, mesh=mesh)
            ref = cold[cases.index((metric, p))]
            assert np.array_equal(warm.solution.u, ref.solution.u)
            assert (json.dumps(warm.report.to_json_dict(), sort_keys=True)
                    == json.dumps(ref.report.to_json_dict(), sort_keys=True))


def test_report_by_hand_matches_run_case():
    """The stages compose by hand: solve, recover, trace and report on the cap
    metric give run_case's report bit for bit."""
    spec, p = Disk(1.0), 3.0
    mesh = build_mesh(spec, 0.1)
    case = run_case(spec, CAP, p, 0.1, mesh=mesh)
    bundle = recover_derivatives(mesh, solve(mesh, CAP, p).u, CAP)
    report = build_report(bundle, boundary_trace(bundle, p))
    assert (json.dumps(report.to_json_dict(), sort_keys=True)
            == json.dumps(case.report.to_json_dict(), sort_keys=True))


def test_run_case_rejects_a_mesh_of_another_spec():
    mesh = build_mesh(Disk(1.0), 0.2)
    with pytest.raises(ValidationError, match="mesh was built for"):
        run_case(Disk(2.0), None, 2.0, 0.2, mesh=mesh)


def test_run_case_rejects_a_mesh_of_another_h():
    mesh = build_mesh(Disk(1.0), 0.2)
    with pytest.raises(ValidationError, match="mesh was built for"):
        run_case(Disk(1.0), None, 2.0, 0.1, mesh=mesh)
