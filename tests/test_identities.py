import numpy as np
import pytest

from plap_lab import (ConformalMetric, Disk, PreconditionError,
                      boundary_trace, build_mesh, build_report,
                      domain_measures, equivalence_suite, identities,
                      integral_identities, lu_p, subharmonicity_scan)
from plap_lab.cli import _flatten
from plap_lab.fields import recover_derivatives
from plap_lab.errors import MeshGenerationError
from plap_lab.geometry import Annulus, TriMesh
from plap_lab.identities import BoundaryTrace, scan_tolerance
from plap_lab.oracles import radial_exact

FLAT = ConformalMetric.flat()

DISK_SCALE = np.pi / 2          # |Omega|/n for the unit disk
ELL_T3 = 3.375 * np.pi          # int 1/H ds - n |Omega| for the 2:1 ellipse
ELL_PERIMETER = 9.688448220547677


# ----------------------------------------------------------------- traces

def test_disk_trace_values_p2(lab):
    tr = lab.case("disk", 2.0).trace
    assert np.abs(tr.u_nu + 0.5).max() <= 0.01
    assert np.abs(tr.u_nunu + 0.5).max() <= 0.02
    assert np.abs(tr.eq_curvature_residual()).max() <= 0.02
    assert (tr.u_nu < 0).all()


def test_disk_trace_values_p3(lab):
    tr = lab.case("disk", 3.0).trace
    assert np.abs(tr.u_nu + 1 / np.sqrt(2)).max() <= 0.02 / np.sqrt(2)
    assert np.abs(tr.u_nunu + np.sqrt(2) / 4).max() <= 0.02
    assert np.abs(tr.eq_curvature_residual()).max() <= 0.02


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_disk_u_nunu_trace_converges(lab, p):
    """On the mapped disk mesh the u_nunu trace error against the radial
    profile falls from h = 0.05 to 0.025: by 1.9x at p = 2 and by 2.7-3.2x
    at the other p.  The relaxed mesh's error grew there, by 1.3-2.5x."""
    exact = radial_exact(2, p, 1.0).d2u(1.0)
    err = [np.abs(lab.case("disk", p, h).trace.u_nunu - exact).max() for h in (0.05, 0.025)]
    assert err[1] <= err[0] / 1.5


@pytest.mark.parametrize("h", [0.05, 0.035])
def test_ellipse_u_nunu_trace_matches_the_quadratic_at_p2(lab, h):
    """At p = 2 the torsion function of the ellipse is the quadratic
    (1 - x^2/a^2 - y^2/b^2) / (2 (1/a^2 + 1/b^2)), so u_nunu is
    -(nu_x^2/a^2 + nu_y^2/b^2) / (1/a^2 + 1/b^2).  The mapped mesh's trace
    is within 0.19% (h = 0.05) and 0.15% (h = 0.035) of its largest size;
    the relaxed mesh's was within 1.4% and 2.4%."""
    a, b = 2.0, 1.0
    case = lab.case("ellipse", 2.0, h)
    nu = case.mesh.boundary.normal
    exact = -(nu[:, 0] ** 2 / a**2 + nu[:, 1] ** 2 / b**2) / (1 / a**2 + 1 / b**2)
    assert np.abs(case.trace.u_nunu - exact).max() <= 0.004 * np.abs(exact).max()


@pytest.mark.parametrize("domain,metric", [("ellipse", "flat"), ("disk", "cap")])
def test_trace_weights_are_the_measures_boundary_weights(lab, domain, metric):
    case = lab.case(domain, 2.0, metric=metric)
    meas = domain_measures(case.mesh, case.solution.metric)
    assert np.array_equal(case.trace.weight, meas.boundary_weights)


def test_trace_site_in_no_triangle_raises(monkeypatch):
    # a clipped sample would give a trace value the field does not take
    locate = TriMesh.locate

    def miss_one(self, pts):
        tri, bary, found = locate(self, pts)
        found[0] = False
        return tri, bary, found

    monkeypatch.setattr(TriMesh, "locate", miss_one)
    mesh = build_mesh(Disk(1.0), 0.2)
    bundle = recover_derivatives(mesh, np.zeros(mesh.n_vertices), FLAT)
    with pytest.raises(MeshGenerationError, match="1 of .* trace samples"):
        boundary_trace(bundle, 2.0)


def test_ellipse_trace_curvature_relation(lab):
    tr = lab.case("ellipse", 2.0).trace
    assert np.abs(tr.eq_curvature_residual()).max() <= 0.05


# ----------------------------------------------------------- flux balance

@pytest.mark.parametrize("p", [2.0, 3.0])
def test_flux_balance_disk(lab, p):
    case = lab.case("disk", p)
    entry = case.report.sections["flux"]
    assert entry["rel_residual"] <= 0.01
    # the boundary integral itself is -pi for the unit disk at p in {2, 3}
    assert entry["boundary_integral"] == pytest.approx(-np.pi, rel=0.01)


def test_flux_balance_flags_non_solution(lab):
    mesh = lab.mesh("disk", 0.1)
    bundle = recover_derivatives(mesh, np.zeros(mesh.n_vertices), FLAT)
    entry = integral_identities(boundary_trace(bundle, 2.0), bundle, lu_p(bundle, 2.0)[1])["flux"]
    assert entry["rel_residual"] == pytest.approx(1.0, abs=1e-9)
    assert not entry["pass"]


# ---------------------------------------------------- fundamental identity

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_fundamental_identity_disk_vanishes(lab, p):
    # equality case: every route stays within 2% of |Omega|/n of zero
    case = lab.case("disk", p)
    vals = case.report.sections["fundamental"]
    for key in ("lhs_volume", "lhs_boundary", "rhs"):
        assert abs(vals[key]) <= 0.02 * DISK_SCALE


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_fundamental_identity_ellipse_consistency(lab, p):
    case = lab.case("ellipse", p, h=0.035)
    vals = case.report.sections["fundamental"]
    assert vals["rel_residual_volume"] <= 0.02
    assert vals["rel_residual_boundary"] <= 0.02
    assert vals["divergence_check"] <= 0.02


def test_fundamental_identity_conformal(lab):
    case = lab.case("disk", 2.0, metric="cap")
    vals = case.report.sections["fundamental"]
    assert vals["rel_residual_volume"] <= 0.03
    assert vals["rel_residual_boundary"] <= 0.03


# ------------------------------------------------------- Heintze-Karcher

def test_hk_disk_equality_case(lab):
    case = lab.case("disk", 2.0)
    vals = case.report.sections["hk"]
    for key in ("t1", "t2", "t3"):
        assert abs(vals[key]) <= 0.02 * 2 * np.pi
    assert vals["hk_inequality_holds"]


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_hk_ellipse(lab, p):
    case = lab.case("ellipse", p, h=0.035)
    vals = case.report.sections["hk"]
    # geometric term is p-independent and matches the quadrature oracle
    assert vals["t3"] == pytest.approx(ELL_T3, rel=0.01)
    assert abs(vals["t1"] + vals["t2"] - vals["t3"]) <= 0.02 * 4 * np.pi
    assert vals["t2"] >= 0.0


def test_hk_conformal_disk(lab):
    case = lab.case("disk", 2.0, metric="cap")
    vals = case.report.sections["hk"]
    assert vals["t3"] >= 0.0
    assert vals["t3"] == pytest.approx(0.9651235041574271, rel=0.02)
    volume = case.report.sections["constants"]["volume"]
    assert abs(vals["t1"] + vals["t2"] - vals["t3"]) <= 0.03 * 2 * volume


def test_hk_rejects_nonpositive_curvature():
    mesh = build_mesh(Annulus(0.5, 1.0), 0.1)
    from plap_lab import solve

    sol = solve(mesh, FLAT, 2.0)
    bundle = recover_derivatives(mesh, sol.u, FLAT)
    skip = integral_identities(boundary_trace(bundle, 2.0), bundle, lu_p(bundle, 2.0)[1])["hk"]
    assert isinstance(skip, PreconditionError)
    assert str(skip) == "nonpositive mean curvature on part of the boundary"


# ------------------------------------------------------------ soap bubble

def test_sbt_disk_equality_case(lab):
    case = lab.case("disk", 2.0)
    vals = case.report.sections["sbt"]
    for key in ("lhs1", "lhs2", "rhs"):
        assert abs(vals[key]) <= 0.02 * DISK_SCALE
    assert vals["max_h_deviation"] <= 0.01


@pytest.mark.parametrize("p,h", [(2.0, 0.035), (1.5, 0.05)])
def test_sbt_ellipse(lab, p, h):
    case = lab.case("ellipse", p, h=h)
    entry = case.report.sections["sbt"]
    tol = 0.02 if p == 2.0 else 0.03
    assert entry["rel_residual"] <= tol
    # curvature ranges over [1/4, 2] while H0 = 0.771: max deviation 1.229
    assert entry["max_h_deviation"] == pytest.approx(1.2290177874, rel=1e-3)


# ------------------------------------- overdetermined (Serrin) condition
# hk.t2 is the deficit int (1 + n H |u_nu|^{p-2} u_nu)^2 / H, and
# hk.max_node_residual its largest nodewise residual

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_serrin_disk_nodewise(lab, p):
    case = lab.case("disk", p)
    vals = case.report.sections["hk"]
    assert vals["max_node_residual"] <= 0.03
    assert vals["t2"] <= 1e-3 * 2 * np.pi


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_serrin_ellipse_strictly_positive(lab, p):
    case = lab.case("ellipse", p)
    assert case.report.sections["hk"]["t2"] >= 0.05 * ELL_PERIMETER


def test_serrin_definitional_zero(lab):
    # inject u_nu := -(1/(nH))^{1/(p-1)} so the overdetermined condition holds exactly
    bg = lab.bg("ellipse", 0.05)
    p, n = 3.0, 2
    u_nu = -((1.0 / (n * bg.curvature)) ** (1.0 / (p - 1.0)))
    tr = BoundaryTrace(p=p, curvature=bg.curvature, weight=bg.weight, u_nu=u_nu,
                       u_nunu=np.zeros_like(u_nu), gnorm=np.abs(u_nu),
                       flagged=np.zeros(len(u_nu), dtype=bool))
    bundle = recover_derivatives(lab.mesh("ellipse", 0.05), lab.solution("ellipse", p).u, FLAT)
    hk = integral_identities(tr, bundle, lu_p(bundle, p)[1])["hk"]
    assert hk["t2"] <= 1e-12
    assert hk["max_node_residual"] <= 1e-12


# --------------------------------------------------------- subharmonicity

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_scan_ellipse_nonnegative(lab, p):
    case = lab.case("ellipse", p)
    scan = case.report.sections["subharmonicity"]
    assert scan["min"] >= -scan["tol_scan"]
    assert scan["integral"] > 0.0


@pytest.mark.parametrize("h", [0.035, 0.025])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_scan_disk_passes_on_fine_meshes(lab, p, h):
    """The flat disk's scan minimum stays within its tolerance at fine h:
    with no interior degree defect the recovered Hessian does not spike
    near the boundary (the relaxed mesh gave -0.023 to -0.145 here, every
    case failing)."""
    scan = lab.case("disk", p, h).report.sections["subharmonicity"]
    assert scan["min"] >= -scan["tol_scan"]


def test_scan_disk_concentrates_at_zero(lab):
    case = lab.case("disk", 2.0)
    scan = case.report.sections["subharmonicity"]
    counts, edges = case.report.histogram
    centers = 0.5 * (edges[:-1] + edges[1:])
    within = counts[np.abs(centers) <= 2 * scan["tol_scan"]].sum()
    assert within / counts.sum() >= 0.9
    assert scan["min"] >= -scan["tol_scan"]


def test_scan_requires_nonnegative_ricci(lab):
    sol = lab.solution("disk", 2.0)
    bad = ConformalMetric.gaussian_bump(0.5, 0.0, 0.0, 1.0)  # undeclared
    bundle = recover_derivatives(sol.mesh, sol.u, bad)
    with pytest.raises(PreconditionError, match="metric not declared nonnegative_ricci"):
        subharmonicity_scan(bundle, 2.0, lu_p(bundle, 2.0))


def test_build_report_evaluates_lu_p_once(lab, monkeypatch):
    # the integral identities and the scan share one L_u P evaluation
    original, calls = identities.linearized_on_p, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "linearized_on_p", counted)
    sol = lab.solution("disk", 2.0)
    bundle = recover_derivatives(sol.mesh, sol.u, FLAT)
    report = build_report(bundle, boundary_trace(bundle, 2.0))
    assert len(calls) == 1
    assert "fundamental" in report.sections and "subharmonicity" in report.sections


def test_scan_tolerance_formula():
    assert scan_tolerance(0.05, 2.0) == pytest.approx(0.025)
    assert scan_tolerance(0.05, 3.0) == pytest.approx(0.05)


# ------------------------------------------------------------ equivalence

@pytest.mark.parametrize("p,e_val", [(1.5, 0.25), (2.0, 0.5), (3.0, 1 / np.sqrt(2))])
def test_equivalence_flags_disk(lab, p, e_val):
    case = lab.case("disk", p)
    flags = case.report.sections["flags"]
    assert flags["serrin_b"] and flags["cmc_d"] and flags["gradient_e"]
    assert flags["domain_is_disk"]
    assert flags["e_reference_value"] == pytest.approx(e_val, rel=1e-3)


def test_equivalence_flags_ellipse(lab):
    case = lab.case("ellipse", 2.0)
    flags = case.report.sections["flags"]
    assert not (flags["serrin_b"] or flags["cmc_d"] or flags["gradient_e"])
    assert not flags["domain_is_disk"]


@pytest.mark.parametrize("domain", ["disk", "ellipse"])
def test_hk_and_flags_read_one_overdetermined_residual(lab, domain):
    case = lab.case(domain, 2.0)
    rep = case.report.sections
    worst = case.trace.max_overdetermined_residual()
    assert rep["hk"]["max_node_residual"] == rep["flags"]["b_deviation"] == worst


def test_overdetermined_residual_where_only_one_section_runs(lab):
    # the annulus skips hk (H < 0 on its inner loop), the cap metric skips
    # the Euclidean flags; the other section still reports the residual
    annulus = lab.case("annulus", 2.0, h=0.1)
    rep = annulus.report.sections
    assert "hk" in rep["skipped"]
    assert rep["flags"]["b_deviation"] == annulus.trace.max_overdetermined_residual()
    cap = lab.case("disk", 2.0, metric="cap")
    rep = cap.report.sections
    assert "flags" in rep["skipped"]
    assert rep["hk"]["max_node_residual"] == cap.trace.max_overdetermined_residual()


def test_every_node_flagged_gives_nan_deviations():
    # u = 0 has no gradient, so the trace flags every boundary node
    mesh = build_mesh(Disk(1.0), 0.2)
    bundle = recover_derivatives(mesh, np.zeros(mesh.n_vertices), FLAT)
    trace = boundary_trace(bundle, 2.0)
    assert trace.flagged.all()
    report = build_report(bundle, trace).sections
    flags = report["flags"]
    assert np.isnan(flags["b_deviation"]) and np.isnan(flags["e_deviation"])
    assert not (flags["serrin_b"] or flags["gradient_e"])
    assert np.isnan(report["hk"]["max_node_residual"])
    assert np.isnan(report["eq_curvature"]["max_node_residual"])


def test_equivalence_requires_flat(lab):
    case = lab.case("disk", 2.0, metric="cap")
    with pytest.raises(PreconditionError, match="equivalence statements are Euclidean"):
        equivalence_suite(case.trace, recover_derivatives(case.mesh, case.solution.u,
                                                          case.solution.metric))


# ----------------------------------------------------------------- report

def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    else:
        yield obj


@pytest.mark.parametrize("domain,h,metric,skipped", [
    ("disk", 0.05, "flat", set()),
    ("disk", 0.05, "cap", {"flags"}),
    ("annulus", 0.1, "flat", {"hk"}),
    ("disk", 0.2, "flat", {"subharmonicity"}),
])
def test_report_leaves_are_plain_json_types(lab, domain, h, metric, skipped):
    # sweep.csv keeps only bool, int, float and str leaves (a numpy.bool_
    # would vanish from it), so every leaf must have exactly one of them
    rep = lab.case(domain, 2.0, h=h, metric=metric).report.to_json_dict()
    assert skipped <= set(rep["skipped"])
    leaves = list(_leaves(rep))
    assert {type(v) for v in leaves} <= {bool, int, float, str}
    flat: dict = {}
    _flatten("", rep, flat)
    assert len(flat) == len(leaves)


# ------------------------------------------- discrete algebraic regrouping

@pytest.mark.parametrize("domain,p,h,metric", [
    ("disk", 2.0, 0.05, "flat"),
    ("ellipse", 3.0, 0.05, "flat"),
    ("disk", 2.0, 0.05, "cap"),
    ("annulus", 3.0, 0.1, "flat"),     # H < 0 on the inner loop: hk is skipped
], ids=["disk-2.0", "ellipse-3.0", "disk-2.0-cap", "annulus-3.0"])
def test_reports_are_algebraically_dependent(lab, domain, p, h, metric):
    """The report gaps are one identity regrouped.  With F = sum(p_flux *
    weight) + |Omega| the signed flux residual and e the signed nodal
    eq_curvature residual, the sections of one trace satisfy, to round-off,

        sbt_gap - fund_gap = (2/n) F
        hk_gap = n^2 fund_gap + 2n F                    (where hk runs)
        lhs_boundary - rhs = (1/(n-1)) sum(p_flux * e * weight) - F/n
    """
    case = lab.case(domain, p, h=h, metric=metric)
    n = 2
    rep, tr = case.report.sections, case.trace
    meas = domain_measures(case.mesh, case.solution.metric)
    pf = tr.p_flux()
    flux = float(np.sum(pf * tr.weight)) + meas.volume
    fund, sbt = rep["fundamental"], rep["sbt"]

    fund_gap = fund["lhs_volume"] - fund["rhs"]
    sbt_gap = sbt["lhs1"] + sbt["lhs2"] - sbt["rhs"]
    boundary_gap = fund["lhs_boundary"] - fund["rhs"]
    e_flux = float(np.sum(pf * tr.eq_curvature_residual() * tr.weight))
    scale = max(1.0, meas.volume)
    assert ("hk" in rep["skipped"]) == (domain == "annulus")
    if "hk" in rep:
        hk_gap = rep["hk"]["t1"] + rep["hk"]["t2"] - rep["hk"]["t3"]
        scale = max(scale, abs(hk_gap))
        assert abs(hk_gap - (n**2 * fund_gap + 2 * n * flux)) <= 1e-10 * scale
    assert abs((sbt_gap - fund_gap) - 2.0 / n * flux) <= 1e-10 * scale
    assert abs(boundary_gap - (e_flux / (n - 1) - flux / n)) <= 1e-10 * scale


def test_nonnegative_entries_are_exactly_nonnegative(lab):
    for domain, p in [("disk", 2.0), ("ellipse", 2.0), ("ellipse", 3.0)]:
        case = lab.case(domain, p)
        assert case.report.sections["hk"]["t2"] >= 0.0


def test_ball_deficits_shrink_under_refinement(lab):
    """Every ball-equality deficit obeys an O(h) envelope; the deficits with a
    definite sign (hk T2, the overdetermined deficit) also decreases strictly
    when h halves.
    The volume-route integral cancels internally, so only its envelope is
    asserted."""
    deficits = {}
    for h in (0.1, 0.05):
        r = lab.case("disk", 2.0, h=h).report.sections
        deficits[h] = {
            "fund_volume": abs(r["fundamental"]["lhs_volume"]),
            "t2": r["hk"]["t2"],
            "sbt_gap": abs(r["sbt"]["lhs1"] + r["sbt"]["lhs2"] - r["sbt"]["rhs"]),
        }
        for name, v in deficits[h].items():
            assert v <= 0.2 * h, f"{name} = {v} exceeds the O(h) envelope at h={h}"
    assert deficits[0.05]["t2"] <= deficits[0.1]["t2"]
