"""One pass per case: each piece of a case's derived state is built once."""

import gc
import hashlib
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from plap_lab import (ConformalMetric, Disk, Ellipse, ValidationError,
                      boundary_trace, build_mesh, build_report, fields, geometry,
                      identities, recover_derivatives, solve, solver)
from plap_lab.cli import main
from plap_lab.identities import lu_p
from plap_lab.pipeline import run_case

ROOT = Path(__file__).resolve().parents[1]


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


def _count_laplacians(monkeypatch) -> list:
    """Count the evaluations of Delta phi, by any metric."""
    original, calls = ConformalMetric.laplacian_phi, []
    monkeypatch.setattr(ConformalMetric, "laplacian_phi",
                        lambda metric, pts: calls.append(metric) or original(metric, pts))
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
    maps = _count_calls(monkeypatch, solver, "_assembly_maps")
    rings = _count_calls(monkeypatch, identities, "_boundary_ring_exclusion")
    laplacians = _count_laplacians(monkeypatch)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    n_cases, n_loops = 2, 1            # one disk mesh shared by both cases
    assert len(recoveries) == n_cases
    assert len(traces) == n_cases
    assert len(lengths) <= n_loops
    assert len(tables) <= n_loops
    assert len(lu_p) == n_cases
    # the per-(mesh, metric) record of weights, K and Delta phi, once per
    # mesh and metric: the flat metric's serves the cases, the solver's eps0
    # scale and the trace's depth cap, and it alone evaluates Delta phi
    assert len(measures) == 1
    assert len(laplacians) == 1
    # mesh-only state, once per mesh: the recovery's weighted basis products
    # W_k and normal-matrix factors, the tangent's assembly maps, the located
    # trace sample sites and the scan's boundary mask
    assert len(normal_eqs) == 1
    assert len(maps) == 1
    assert len(sites) == 1
    assert len(rings) == 1


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_zero_phi_case_matches_flat_case(p):
    """The flat metric is phi = 0: a poly metric with no terms runs the same
    conformal code and must reproduce the flat case bit for bit, its
    closed-form oracle and flags included."""
    spec = Disk(1.0)
    mesh = build_mesh(spec, 0.1)
    flat = run_case(spec, ConformalMetric.flat(), p, 0.1, mesh=mesh)
    zero = run_case(spec, ConformalMetric.poly([]), p, 0.1, mesh=mesh)
    assert np.array_equal(flat.solution.u, zero.solution.u)
    a, b = flat.report.to_json_dict(), zero.report.to_json_dict()
    assert {"oracle", "flags"} <= a.keys()
    # the JSON text holds every float's repr, so equal text is bitwise equality
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


CAP = ConformalMetric.poly([(2, 0, -0.125), (0, 2, -0.125)])


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


def test_a_warm_case_evaluates_no_laplacian(monkeypatch):
    """K and the largest Delta phi are kept per mesh and metric: the first
    cap case evaluates Delta phi once for the cap record and once for the
    flat one of the trace's depth cap, and a second case on the warm mesh
    with the same metric evaluates it nowhere."""
    spec = Disk(1.0)
    mesh = build_mesh(spec, 0.1)
    laplacians = _count_laplacians(monkeypatch)
    first = run_case(spec, CAP, 3.0, 0.1, mesh=mesh)
    assert sorted(m.kind for m in laplacians) == ["flat", "poly"]
    laplacians.clear()
    second = run_case(spec, CAP, 1.5, 0.1, mesh=mesh)
    assert laplacians == []
    assert "subharmonicity" in first.report.sections
    assert "subharmonicity" in second.report.sections


def test_a_skipped_check_keeps_no_case_array_alive():
    """A skipped check's error is kept without its traceback, whose frames
    would hold the case's bundle in a reference cycle until the cyclic
    collector ran."""
    mesh = build_mesh(Disk(1.0), 0.2)
    u = solve(mesh, CAP, 2.0).u
    bundle = recover_derivatives(mesh, u, CAP)
    alive = weakref.ref(bundle)
    gc.disable()
    try:
        report = build_report(u, bundle, boundary_trace(bundle, 2.0))
        del bundle
        assert "flags" in report.sections["skipped"]
        assert alive() is None
    finally:
        gc.enable()


def test_report_by_hand_matches_run_case():
    """The stages compose by hand: solve, recover, trace and report on the cap
    metric give run_case's report bit for bit."""
    spec, p = Disk(1.0), 3.0
    mesh = build_mesh(spec, 0.1)
    case = run_case(spec, CAP, p, 0.1, mesh=mesh)
    u = solve(mesh, CAP, p).u
    bundle = recover_derivatives(mesh, u, CAP)
    report = build_report(u, bundle, boundary_trace(bundle, p))
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


def test_mesh_section_reads_the_minimum_angle_of_the_build(monkeypatch):
    """`build_mesh` evaluates the minimum angle for its bound; the report's
    mesh section reads that value and does not evaluate it again."""
    original, calls = geometry.TriMesh._min_angle_deg, []
    monkeypatch.setattr(geometry.TriMesh, "_min_angle_deg",
                        lambda mesh: calls.append(1) or original(mesh))
    spec = Disk(1.0)
    mesh = build_mesh(spec, 0.2)
    case = run_case(spec, None, 2.0, 0.2, mesh=mesh)
    assert len(calls) == 1
    assert case.report.sections["mesh"] == {"n_vertices": mesh.n_vertices,
                                            "n_triangles": mesh.n_triangles,
                                            "min_angle_deg": original(mesh)}


ELLIPSE_ORACLE = ["perimeter", "t3", "volume"]
DISK_ORACLE = sorted(ELLIPSE_ORACLE + ["p_function_spread", "u_err_l2", "u_err_max",
                                       "u_nu_err_max"])
# the oracle keys of each verify config's cases: only the flat disk and the
# flat ellipse have closed forms
ORACLE_KEYS = {
    "disk_verify": DISK_ORACLE,
    "disk_coarse_verify": DISK_ORACLE,
    "ellipse_verify": ELLIPSE_ORACLE,
    "ellipse_sweep": ELLIPSE_ORACLE,
    "conformal_disk_verify": None,
    "annulus_verify": None,
    "polar_star_verify": None,
    "bump_ellipse_sweep": None,
}
VERIFY_CONFIGS = {path.stem: path for path in sorted([
    *(ROOT / "configs").glob("*.json"), *(ROOT / "scripts" / "compare_configs").glob("*.json")])
    if json.loads(path.read_text())["command"] == "verify"}


def test_oracle_table_lists_every_verify_config():
    assert sorted(ORACLE_KEYS) == sorted(VERIFY_CONFIGS)


@pytest.mark.parametrize("stem", sorted(ORACLE_KEYS))
def test_oracle_section_only_where_a_closed_form_exists(stem):
    # one case of the config's domain and metric, at p = 2 on a coarse mesh
    cfg = json.loads(VERIFY_CONFIGS[stem].read_text())
    spec = geometry.spec_from_json(cfg["domain"])
    metric = ConformalMetric.from_json(cfg.get("metric", {"kind": "flat"}))
    oracle = run_case(spec, metric, 2.0, 0.1).report.sections.get("oracle")
    assert (None if oracle is None else sorted(oracle)) == ORACLE_KEYS[stem]


def test_disk_oracle_by_hand():
    """On the flat unit disk at h = 0.1, p = 3, the oracle's values are the
    closed forms evaluated here with numpy: u = C (1 - r^q) and u_nu = -C q
    on r = 1, with q = p/(p-1) and C = (p-1)/p n^{-1/(p-1)}, and the ball's
    P-function constant P0 = (p-1)/p n^{-q}."""
    spec, p, n, q = Disk(1.0), 3.0, 2, 1.5
    case = run_case(spec, None, p, 0.1)
    oracle, mesh = case.report.sections["oracle"], case.mesh
    bundle = recover_derivatives(mesh, case.solution.u, ConformalMetric.flat())
    trace = boundary_trace(bundle, p)
    assert not trace.flagged.any()
    c = (p - 1.0) / p * n ** (-1.0 / (p - 1.0))
    pf = (p - 1.0) / p * bundle.gnorm ** p + bundle.u / n
    p0 = (p - 1.0) / p * n ** -q
    expected = {
        "u_nu_err_max": np.abs(trace.u_nu + c * q).max(),
        "p_function_spread": np.std(pf[~bundle.mask]) / p0,
        "volume": np.pi, "perimeter": 2.0 * np.pi, "t3": 0.0,
    }
    r = np.minimum(np.linalg.norm(mesh.points, axis=1), 1.0)
    expected["u_err_max"] = np.abs(case.solution.u - c * (1.0 - r ** q)).max()
    # R = 1, so each closed form is the oracle's own arithmetic, bit for bit
    assert {key: oracle[key] for key in expected} == expected


# sha256 of the post-solve arrays of one solved case, in this order:
# `recover_derivatives`' grad, hess, gnorm and mask, `lu_p`'s values and
# integral, and `boundary_trace`'s u_nu, u_nunu and gnorm (see
# _post_solve_digest).  `tests/values.json` compares within 1e-8 relative;
# these pin the arrays bit for bit.  They were recorded before the fit's
# right-hand sides became per-mesh sparse products, K a per-(mesh, metric)
# record and the frame algebra column-wise, none of which moved a bit
POST_SOLVE_DIGESTS = {
    ("disk", 0.1, "flat", 1.5): "e7b997f2b3ce4a614cea412da65912f292be525177678d285de883e9a4366aca",
    ("disk", 0.1, "flat", 3.0): "3cb68ba9cc494e215fe670ce25b47ae258eede4f2594ca7dd2f6b32e8f9127b8",
    ("disk", 0.1, "cap", 1.5): "220061d9a7839856cb4631e9c0bc3186d69a3913f719c642cd0d111804b41aae",
    ("disk", 0.1, "cap", 3.0): "3021747226982860a235ddb8dc980cceae4ad62ce32f26fcb22ca1ceee8a1f1f",
    ("ellipse", 0.14, "flat", 1.5): "db30e7d8abedd654c56bdc2ddcf95aa777b2c7d967bbef10fbea457f752ab17d",
    ("ellipse", 0.14, "flat", 3.0): "624134764bbf7c0c7cbb2e3eaf623b5546152b3ef6cc8fb3277841ac0a2bd32d",
    ("ellipse", 0.14, "cap", 1.5): "19e5f99baeb1fb425bf327c084674f434f47112ceab8c2df6b2c417f5883c8d7",
    ("ellipse", 0.14, "cap", 3.0): "295a00ade8da70d1f0d248d70c244903af9fb6ab4b1485e44fc28f2a5dd91bf0",
}


def _post_solve_digest(mesh, solution, p):
    bundle = recover_derivatives(mesh, solution.u, solution.metric)
    vals, integral = lu_p(bundle, p)
    trace = boundary_trace(bundle, p)
    parts = (bundle.grad, bundle.hess, bundle.gnorm, bundle.mask, vals, np.float64(integral),
             trace.u_nu, trace.u_nunu, trace.gnorm)
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts)).hexdigest()


@pytest.mark.parametrize("domain, h, metric, p", list(POST_SOLVE_DIGESTS))
def test_post_solve_arrays_match_recorded_digest(lab, domain, h, metric, p):
    solution = lab.solution(domain, p, h, metric)
    assert _post_solve_digest(lab.mesh(domain, h), solution, p) == POST_SOLVE_DIGESTS[
        domain, h, metric, p]
