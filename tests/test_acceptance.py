"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every expected value is pinned to an oracle independent of the 2-D solver:
exact radial profiles, closed-form ellipse quadratures, or exact-derivative
algebra on analytic fields.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from plap_lab import (ConformalMetric, analytic_bundle, field_catalogue,
                      linearized_on_p, matrix_inequality_gap,
                      matrix_inequality_sweep, p_ball_constant,
                      p_bochner_residual, p_function, radial_exact,
                      recover_derivatives)
from plap_lab.fields import lu_p_two_routes
from plap_lab.metric import geodesic_boundary_curvature
from plap_lab.identities import boundary_trace

FLAT = ConformalMetric.flat()
ELL_T3 = 10.6031                 # 7.375 pi - 4 pi, quadrature-verified
DISK_CASES = [("disk", p, 0.05, "flat") for p in (1.5, 2.0, 3.0, 4.0)]
ELL_CASES = [("ellipse", p, 0.05, "flat") for p in (1.5, 2.0, 3.0)]
ELL_FINE_CASES = [("ellipse", p, 0.035, "flat") for p in (2.0, 3.0)]
CAP_CASES = [("disk", 2.0, 0.05, "cap")]
ALL_CASES = DISK_CASES + ELL_CASES + ELL_FINE_CASES + CAP_CASES


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}  {detail}")
    assert ok, f"criterion {num}: {desc}  {detail}"


def test_criterion_01_radial_oracle_agreement(lab):
    worst = {}
    for p in (1.5, 2.0, 3.0, 4.0):
        sol = lab.solution("disk", p, h=0.05)
        prof = radial_exact(2, p, 1.0)
        r = np.minimum(np.linalg.norm(sol.mesh.points, axis=1), 1.0)
        worst[p] = float(np.abs(sol.u - prof.u(r)).max())
    ok = worst[2.0] <= 1e-3 and all(worst[p] <= 5e-3 for p in (1.5, 3.0, 4.0))
    _report(1, "solve on disk(1), h=0.05 matches the exact radial profile",
            ok, f"Linf errors {({p: f'{e:.1e}' for p, e in worst.items()})}")


def test_criterion_02_p_function_constancy(lab):
    devs = {}
    for p in (1.5, 2.0, 3.0, 4.0):
        sol = lab.solution("disk", p, h=0.05)
        bundle = recover_derivatives(sol.mesh, sol.u, FLAT)
        vals = p_function(bundle.gnorm, bundle.u, p, 2)[~bundle.mask]
        devs[p] = float(np.std(vals) / p_ball_constant(2, p, 1.0))
    ok = all(d <= 1e-2 for d in devs.values())
    _report(2, "P-function constant on the disk (std <= 1% of the ball constant)",
            ok, f"relative std {({p: f'{d:.2e}' for p, d in devs.items()})}")


def test_criterion_03_fundamental_identity(lab):
    rows = []
    ok = True
    for p in (2.0, 3.0):
        vals = lab.case("ellipse", p, h=0.035).report.sections["fundamental"]
        rows.append((p, vals["rel_residual_volume"], vals["rel_residual_boundary"],
                     vals["divergence_check"]))
        ok &= vals["rel_residual_volume"] <= 0.02
        ok &= vals["rel_residual_boundary"] <= 0.02
        ok &= vals["divergence_check"] <= 0.02
    detail = "; ".join(f"p={p}: rel_v={a:.4f} rel_b={b:.4f} div={d:.4f}"
                       for p, a, b, d in rows)
    _report(3, "interior/boundary identity on ellipse(2,1) within 2%", ok, detail)


def test_criterion_04_heintze_karcher(lab):
    ok = True
    details = []
    for p in (2.0, 3.0):
        vals = lab.case("ellipse", p, h=0.035).report.sections["hk"]
        ok &= abs(vals["t3"] - ELL_T3) <= 0.01 * ELL_T3
        ok &= abs(vals["t1"] + vals["t2"] - vals["t3"]) <= 0.02 * 4 * np.pi
        details.append(f"ellipse p={p}: t3={vals['t3']:.4f}")
    vals = lab.case("disk", 2.0).report.sections["hk"]
    ok &= all(abs(vals[k]) <= 0.02 * 2 * np.pi for k in ("t1", "t2", "t3"))
    details.append(f"disk terms <= {max(abs(vals[k]) for k in ('t1', 't2', 't3')):.4f}")
    cap = lab.case("disk", 2.0, metric="cap")
    cv = cap.report.sections["hk"]
    ok &= cv["t3"] >= 0.0
    volume = cap.report.sections["constants"]["volume"]
    ok &= abs(cv["t1"] + cv["t2"] - cv["t3"]) <= 0.03 * 2 * volume
    details.append(f"conformal t3={cv['t3']:.4f}")
    _report(4, "Heintze-Karcher decomposition (flat + conformal)", ok, "; ".join(details))


def test_criterion_05_soap_bubble(lab):
    e = lab.case("ellipse", 2.0, h=0.035).report.sections["sbt"]
    d = lab.case("disk", 2.0).report.sections["sbt"]
    ok = e["rel_residual"] <= 0.02
    ok &= all(abs(d[k]) <= 0.02 * np.pi / 2 for k in ("lhs1", "lhs2", "rhs"))
    _report(5, "constant-curvature identity: ellipse 2%, disk equality case", ok,
            f"ellipse rel={e['rel_residual']:.4f}; disk terms <= "
            f"{max(abs(d[k]) for k in ('lhs1', 'lhs2', 'rhs')):.4f}")


def test_criterion_06_overdetermined_characterization(lab):
    ok = True
    worst = {}
    for p in (1.5, 2.0, 3.0):
        worst[p] = lab.case("disk", p).report.sections["hk"]["max_node_residual"]
        ok &= worst[p] <= 0.03
    deficits = {}
    for p in (1.5, 2.0, 3.0):
        case = lab.case("ellipse", p)
        deficits[p] = case.report.sections["hk"]["t2"]
        ok &= deficits[p] >= 0.05 * case.report.sections["constants"]["perimeter"]
    _report(6, "boundary flux = -1/(nH) on disks only", ok,
            f"disk nodewise {({p: f'{v:.4f}' for p, v in worst.items()})}; "
            f"ellipse deficits {({p: f'{v:.2f}' for p, v in deficits.items()})}")


def test_criterion_07_matrix_inequality():
    start = time.perf_counter()
    sweep = matrix_inequality_sweep(samples=1_000_000, seed=0, n_values=(2, 3, 4),
                                    p_range=(1.1, 6.0))
    elapsed = time.perf_counter() - start
    w1 = matrix_inequality_gap(2, 2.0, np.diag([1.0, 2.0]), np.array([1.0, 0.0]))
    w2 = matrix_inequality_gap(3, 2.0, np.diag([1.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.0]))
    ok = sweep.min_gap >= -1e-12 and abs(w1) <= 1e-12 and abs(w2 - 0.5) <= 1e-12
    ok &= elapsed <= 60.0
    _report(7, "refined Hessian inequality over 1e6 seeded samples", ok,
            f"min gap {sweep.min_gap:.2e}, witnesses ({w1:.1e}, {w2:.3f}), {elapsed:.1f}s")


def test_criterion_08_subharmonicity(lab):
    ok = True
    details = []
    for p in (1.5, 2.0, 3.0):
        scan = lab.case("ellipse", p).report.sections["subharmonicity"]
        ok &= scan["min"] >= -scan["tol_scan"]
        ok &= scan["integral"] > 0.0
        details.append(f"p={p}: min={scan['min']:+.4f} (tol {scan['tol_scan']:.3f}) "
                       f"int={scan['integral']:.3f}")
    disk = lab.case("disk", 2.0).report
    counts, edges = disk.histogram
    centers = 0.5 * (edges[:-1] + edges[1:])
    tol_scan = disk.sections["subharmonicity"]["tol_scan"]
    conc = counts[np.abs(centers) <= 2 * tol_scan].sum() / counts.sum()
    ok &= conc >= 0.9
    details.append(f"disk concentration {conc:.3f}")
    _report(8, "pointwise subharmonicity of the P-function", ok, "; ".join(details))


def test_criterion_09_pointwise_algebra():
    fields = field_catalogue(seed=0)
    assert len(fields) >= 20
    p_cycle = (1.5, 2.0, 2.5, 3.0, 4.0)
    rng = np.random.default_rng(123)
    worst_bochner = 0.0
    worst_cross = 0.0
    checked = 0
    for i, field in enumerate(fields):
        p = p_cycle[i % len(p_cycle)]
        r = np.sqrt(rng.uniform(0.35**2, 1.1**2, 400))
        t = rng.uniform(0, 2 * np.pi, 400)
        pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        bundle = analytic_bundle(field, FLAT, pts)
        pts = pts[bundle.gnorm >= 0.15][:120]
        assert len(pts) >= 100, f"{field.name}: too few non-critical sample points"
        worst_bochner = max(worst_bochner, float(np.abs(
            p_bochner_residual(field, FLAT, p, pts)).max()))
        lhs, rhs = lu_p_two_routes(field, FLAT, p, 2, pts)
        worst_cross = max(worst_cross, float(np.abs(lhs - rhs).max()))
        checked += 1
    ok = worst_bochner <= 1e-10 and worst_cross <= 1e-10
    _report(9, f"p-Bochner and L_u P expansions on {checked} analytic fields", ok,
            f"max |bochner| = {worst_bochner:.2e}, max |cross| = {worst_cross:.2e}")


def test_criterion_10_flux_balance_everywhere(lab):
    worst = 0.0
    for domain, p, h, metric in ALL_CASES:
        case = lab.case(domain, p, h=h, metric=metric)
        worst = max(worst, case.report.sections["flux"]["rel_residual"])
    ok = worst <= 0.01
    _report(10, f"boundary flux balances -|Omega| within 1% on all "
            f"{len(ALL_CASES)} solved cases", ok, f"worst {worst:.4f}")


def test_criterion_11_flat_metric_degeneration(lab):
    zero = ConformalMetric.poly([])
    sol = lab.solution("disk", 3.0)
    mesh, bg = sol.mesh, lab.bg("disk", 0.05)
    from plap_lab import domain_measures, solve

    m_flat = domain_measures(mesh, FLAT)
    m_zero = domain_measures(mesh, zero)
    dev = abs(m_flat.volume - m_zero.volume) + abs(m_flat.perimeter - m_zero.perimeter)

    sol_zero = solve(mesh, zero, 3.0)
    dev = max(dev, float(np.abs(sol.u - sol_zero.u).max()))

    bf = recover_derivatives(mesh, sol.u, FLAT)
    bz = recover_derivatives(mesh, sol.u, zero)
    dev = max(dev, float(np.abs(bf.grad - bz.grad).max()))
    dev = max(dev, float(np.abs(bf.hess - bz.hess).max()))
    dev = max(dev, float(np.nanmax(np.abs(
        linearized_on_p(bf, 3.0, 2) - linearized_on_p(bz, 3.0, 2)))))
    dev = max(dev, float(np.abs(
        geodesic_boundary_curvature(FLAT, bg) - geodesic_boundary_curvature(zero, bg)).max()))
    tf = boundary_trace(bf, 3.0)
    tz = boundary_trace(bz, 3.0)
    dev = max(dev, float(np.abs(tf.u_nu - tz.u_nu).max()))
    dev = max(dev, float(np.abs(tf.u_nunu - tz.u_nunu).max()))
    ok = dev <= 1e-12
    _report(11, "conformal path with phi = 0 equals the Euclidean path", ok,
            f"max deviation {dev:.2e}")
