"""Both sides of every integral identity and inequality, from solved fields.

All boundary quantities are traces in the metric sense: u_nu is the outward
normal derivative with respect to the g-unit normal and curvature carries its
conformal factor; boundary and interior integrals take e^{phi} ds and
e^{2 phi} dx from `domain_measures`.  Traces are obtained by sampling the recovered derivative
fields along the inward normal (beyond the one-ring recovery boundary layer)
and extrapolating linearly back to the boundary.  The dimension n of the
paper's identities is `geometry.DIM`: every domain is planar.

A report is its JSON sections: each check returns its section as a dict, with
``residual``, ``rel_residual``, ``tolerance`` and ``pass`` beside its values,
and ``IdentityReport.sections`` is the published report, key for key.  The
five integral sections come from one computation, `integral_identities`.  A
check outside its preconditions (H > 0 for ``hk``, Ric >= 0 measured at every
quadrature point for the scan, the flat metric for the flags) gives a
PreconditionError, and `build_report` records its message under
``skipped``.  The ``mesh`` section and, where the case has closed forms, the
``oracle`` section (`oracle_section`) are data with no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sparse import Compressed
from .errors import MeshGenerationError, PreconditionError
from .fields import DerivativeBundle, frame_from_scalar, linearized_on_p, p_function
from .geometry import DIM, QUAD_BARY, Disk, Ellipse, TriMesh, domain_measures
from .metric import ConformalMetric, check_nonnegative_ricci, geodesic_boundary_curvature
from .oracles import ellipse_boundary_integrals, p_ball_constant, radial_exact

# the tolerances of the checks: relative residual of ``fundamental``, ``sbt``
# and ``hk``, relative flux residual, largest nodewise ``eq_curvature``
# residual, and the deviation that sets each equivalence flag
IDENTITY_REL = 0.02
FLUX_REL = 0.01
EQ_CURVATURE_NODEWISE = 0.05
FLAGS_TOL = 0.03


# --------------------------------------------------------------------------
# Boundary traces
# --------------------------------------------------------------------------


@dataclass
class BoundaryTrace:
    """Per boundary node: normal derivative data, curvature and metric weights.

    The node positions, normals and arc lengths are the mesh's
    ``mesh.boundary``; the trace holds only what u and the metric add.
    """

    p: float
    curvature: np.ndarray        # H_g (equals Euclidean H when flat)
    weight: np.ndarray           # `Measures.boundary_weights`, e^{phi} ds
    u_nu: np.ndarray             # g-normal derivative (negative for torsion fields)
    u_nunu: np.ndarray           # second normal derivative nu . hess_g u . nu
    gnorm: np.ndarray            # |grad u|_g trace
    flagged: np.ndarray          # nodes excluded from pointwise statistics

    def eq_curvature_residual(self) -> np.ndarray:
        """Nodewise residual of |u_nu|^{p-2}((p-1) u_nunu + (n-1) H u_nu) + 1."""
        p = self.p
        return np.abs(self.u_nu) ** (p - 2.0) * (
            (p - 1.0) * self.u_nunu + (DIM - 1.0) * self.curvature * self.u_nu
        ) + 1.0

    def p_flux(self) -> np.ndarray:
        """|u_nu|^{p-2} u_nu per node."""
        return np.abs(self.u_nu) ** (self.p - 2.0) * self.u_nu

    def overdetermined_residual(self) -> np.ndarray:
        """Nodewise residual of the overdetermined condition, n H |u_nu|^{p-2} u_nu + 1."""
        return DIM * self.curvature * self.p_flux() + 1.0

    def max_overdetermined_residual(self) -> float:
        """The largest |1 + n H |u_nu|^{p-2} u_nu| off the flagged nodes, or
        NaN: both ``hk.max_node_residual`` and ``flags.b_deviation``."""
        return _max_or_nan(np.abs(self.overdetermined_residual())[~self.flagged])


def _extrapolate_to_boundary(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Linear least-squares fit of per-node samples q (B, D) over depths d, at 0."""
    A = np.stack([np.ones_like(d), d], axis=1)
    coef, *_ = np.linalg.lstsq(A, q.T, rcond=None)
    return coef[0]


# sample depths along the inward normal, in units of h
_DEPTHS_GRAD = (1.2, 1.8, 2.4, 3.0)
_DEPTHS_HESS = (2.5, 3.5, 4.5, 5.5)


def _trace_sites(mesh: TriMesh) -> tuple[np.ndarray, ...]:
    """Where the traces sample, which depends on the mesh alone.

    Returns the sample depths ``d_all``, the indices ``ig`` and ``ih`` of the
    gradient and Hessian depths among them, the sample points x_b - d_k nu,
    stacked per node, and the matrix that interpolates nodal data at them.
    A sample point in no triangle would be clipped, so it raises.
    """
    bg = mesh.boundary
    meas = domain_measures(mesh, ConformalMetric.flat())
    # keep sample segments well inside the domain on coarse meshes
    cap = 0.5 * meas.volume / meas.perimeter
    scale = min(1.0, cap / (max(max(_DEPTHS_GRAD), max(_DEPTHS_HESS)) * mesh.h))
    dg = np.asarray(_DEPTHS_GRAD) * mesh.h * scale
    dh = np.asarray(_DEPTHS_HESS) * mesh.h * scale
    d_all = np.unique(np.concatenate([dg, dh]))
    pts = bg.position[:, None, :] - d_all[None, :, None] * bg.normal[:, None, :]
    flat_pts = pts.reshape(-1, 2)
    tri, bary, found = mesh.locate(flat_pts)
    if not found.all():
        raise MeshGenerationError(f"{(~found).sum()} of {len(found)} trace samples are in no triangle")
    return (d_all, np.searchsorted(d_all, dg), np.searchsorted(d_all, dh), flat_pts,
            mesh.interpolation(tri, bary))


def boundary_trace(bundle: DerivativeBundle, p: float) -> BoundaryTrace:
    """Extrapolated normal-derivative traces at every boundary node.

    Gradient traces are fit over shallow samples (the recovered gradient is
    reliable one ring in); second-derivative traces use deeper samples, past
    the boundary layer of the recovered Hessian.  Mesh, boundary geometry and
    metric are the recovered bundle's; the sample sites are located once per
    mesh, and the arc weights are the metric's `Measures.boundary_weights`.
    """
    mesh, bg, metric = bundle.mesh, bundle.mesh.boundary, bundle.metric
    d_all, ig, ih, flat_pts, interp = mesh.derived("trace_sites", lambda: _trace_sites(mesh))
    # one interpolation for both fields: gradient and Hessian stacked as (N, 6)
    at = interp @ np.concatenate([bundle.nodal_grad, bundle.nodal_hess.reshape(-1, 4)], axis=1)
    G, S = frame_from_scalar(metric, flat_pts, at[:, :2], at[:, 2:].reshape(-1, 2, 2))

    nd = len(d_all)
    nu_rep = np.repeat(bg.normal, nd, axis=0)
    q_nu = np.einsum("ni,ni->n", G, nu_rep).reshape(-1, nd)
    q_nunu = np.einsum("ni,nij,nj->n", nu_rep, S, nu_rep).reshape(-1, nd)
    q_gn = np.linalg.norm(G, axis=1).reshape(-1, nd)

    u_nu = _extrapolate_to_boundary(q_nu[:, ig], d_all[ig])
    gnorm = _extrapolate_to_boundary(q_gn[:, ig], d_all[ig])
    u_nunu = _extrapolate_to_boundary(q_nunu[:, ih], d_all[ih])

    flagged = (q_gn <= bundle.delta_crit).any(axis=1)

    return BoundaryTrace(p=p, curvature=geodesic_boundary_curvature(metric, bg),
                         weight=domain_measures(mesh, metric).boundary_weights,
                         u_nu=u_nu, u_nunu=u_nunu, gnorm=gnorm, flagged=flagged)


# --------------------------------------------------------------------------
# Report sections
# --------------------------------------------------------------------------


def _check(values: dict, residual: float, rel_residual: float, tolerance: float,
           passed: bool) -> dict:
    """A report section with a verdict: its values, residuals, tolerance and pass."""
    return {**values, "residual": residual, "rel_residual": rel_residual,
            "tolerance": tolerance, "pass": bool(passed)}


def _rel(lhs: float, rhs: float, floor: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)


def _max_or_nan(values: np.ndarray) -> float:
    """The largest value, or NaN when there is none (every node flagged)."""
    return float(values.max()) if values.size else np.nan


def lu_p(bundle: DerivativeBundle, p: float) -> tuple[np.ndarray, float]:
    """Pointwise L_u P (NaN where masked) and its metric volume integral (on
    `Measures.volume_weights`) over the unmasked quadrature points.

    `build_report` evaluates them once per case and hands the integral to
    `integral_identities` and the pair to `subharmonicity_scan`.
    """
    vals, keep = linearized_on_p(bundle, p, DIM), ~bundle.mask
    weights = domain_measures(bundle.mesh, bundle.metric).volume_weights
    return vals, float(np.sum(weights[keep] * vals[keep]))


def integral_identities(trace: BoundaryTrace, bundle: DerivativeBundle,
                        lu_integral: float) -> dict:
    """The ``fundamental``, ``sbt``, ``flux``, ``eq_curvature`` and ``hk``
    sections, from one set of boundary and interior sums.

    ``fundamental`` sets the interior L_u P mass ``lu_integral`` (from
    `lu_p`) against the curvature flux three ways: lhs_volume integrates the
    pointwise expansion, lhs_boundary converts the same integral to a
    boundary form through the divergence theorem, and rhs is |Omega|/n minus
    the curvature-weighted flux integral; the volume vs boundary discrepancy
    is the discrete divergence-theorem check.  ``sbt`` is the
    constant-mean-curvature form (interior mass plus the H0-deficit equals
    the curvature-deviation flux integral), ``flux`` the boundary p-flux
    against -|Omega|, ``eq_curvature`` the largest
    nodewise `BoundaryTrace.eq_curvature_residual`, and ``hk`` the
    Heintze-Karcher decomposition T1 + T2 = T3 with T3 = int 1/H - n |Omega|.
    T2 = int (1 + n H |u_nu|^{p-2} u_nu)^2 / H is the overdetermined-condition
    deficit; ``hk.max_node_residual`` is
    `BoundaryTrace.max_overdetermined_residual`, and only the decomposition
    and T3 >= 0 carry its verdict.  ``hk`` needs H > 0 on the whole boundary;
    where it is not, its entry is the PreconditionError that skips it.

    The sections are regroupings of one identity.  Write F = sum(p_flux *
    weight) + |Omega| for the signed flux residual, R_v and R_b for the signed
    volume and boundary residuals of ``fundamental`` (lhs - rhs), and e for
    the signed nodal `BoundaryTrace.eq_curvature_residual`.  The shared sums
    then give, to round-off:

        sbt:         lhs1 + lhs2 - rhs = R_v + (2/n) F
        hk:          t1 + t2 - t3 = n^2 (R_v + (2/n) F)
        fundamental: R_b = (1/(n-1)) sum(p_flux * e * weight) - F/n

    so ``sbt`` and ``hk`` fail only through ``fundamental``'s volume route
    and ``flux``.
    """
    p, n = trace.p, DIM
    measures = domain_measures(bundle.mesh, bundle.metric)
    volume, h0, weight, curv = measures.volume, measures.h0, trace.weight, trace.curvature
    pf = trace.p_flux()
    gpow = np.abs(trace.u_nu) ** (2.0 * p - 2.0)
    floor = volume / n

    lhs_volume = lu_integral / ((p - 1.0) * (n - 1.0))
    lhs_boundary = float(
        np.sum(pf * ((p - 1.0) * np.abs(trace.u_nu) ** (p - 2.0) * trace.u_nunu + 1.0 / n)
               * weight)
    ) / (n - 1.0)
    rhs = floor - float(np.sum(curv * gpow * weight))
    rel_v = _rel(lhs_volume, rhs, floor)
    rel_b = _rel(lhs_boundary, rhs, floor)
    rel_div = _rel(lhs_volume, lhs_boundary, floor)
    sections = {"fundamental": _check(
        {"lhs_volume": lhs_volume, "lhs_boundary": lhs_boundary, "rhs": rhs,
         "rel_residual_volume": rel_v, "rel_residual_boundary": rel_b,
         "divergence_check": rel_div},
        abs(lhs_volume - rhs), max(rel_v, rel_b), IDENTITY_REL,
        rel_v <= IDENTITY_REL and rel_b <= IDENTITY_REL and rel_div <= IDENTITY_REL)}

    lhs2 = float(np.sum((n * pf * h0 + 1.0) ** 2 * weight)) / (n * n * h0)
    rhs_sbt = float(np.sum((h0 - curv) * gpow * weight))
    rel = _rel(lhs_volume + lhs2, rhs_sbt, floor)
    sections["sbt"] = _check(
        {"lhs1": lhs_volume, "lhs2": lhs2, "rhs": rhs_sbt,
         "max_h_deviation": float(np.abs(curv - h0).max())},
        abs(lhs_volume + lhs2 - rhs_sbt), rel, IDENTITY_REL, rel <= IDENTITY_REL)

    flux = float(np.sum(pf * weight))
    rel = abs(flux + volume) / volume
    sections["flux"] = _check({"boundary_integral": flux}, abs(flux + volume), rel,
                              FLUX_REL, rel <= FLUX_REL)

    eq_max = _max_or_nan(np.abs(trace.eq_curvature_residual())[~trace.flagged])
    sections["eq_curvature"] = _check({"max_node_residual": eq_max}, eq_max, eq_max,
                                      EQ_CURVATURE_NODEWISE, eq_max <= EQ_CURVATURE_NODEWISE)

    if not (curv > 0).all():
        sections["hk"] = PreconditionError("nonpositive mean curvature on part of the boundary")
        return sections
    t1 = n * n / ((p - 1.0) * (n - 1.0)) * lu_integral
    t2 = float(np.sum(trace.overdetermined_residual()**2 / curv * weight))
    t3 = float(np.sum(weight / curv)) - n * volume
    rel = _rel(t1 + t2, t3, n * volume)
    holds = bool(t3 >= -IDENTITY_REL * (n * volume))
    sections["hk"] = _check({"t1": t1, "t2": t2, "t3": t3, "hk_inequality_holds": holds,
                             "max_node_residual": trace.max_overdetermined_residual()},
                            abs(t1 + t2 - t3), rel, IDENTITY_REL, rel <= IDENTITY_REL and holds)
    return sections


# --------------------------------------------------------------------------
# Subharmonicity scan
# --------------------------------------------------------------------------


def scan_tolerance(h: float, p: float) -> float:
    """Recovery-noise allowance for the pointwise subharmonicity scan."""
    return h * (p - 1.0) / DIM


# element rings excluded around the critical set and inside the boundary
_SCAN_RINGS = 2


def _incidence(mesh) -> Compressed:
    """The (triangles, vertices) incidence E of the mesh as a boolean CSR
    matrix, built once per mesh: E @ vmark marks the triangles with a marked
    corner and E.T @ tmark the corners of the marked triangles."""
    m = mesh.n_triangles
    return mesh.derived("incidence", lambda: Compressed(
        "csr", np.ones(3 * m, dtype=bool), mesh.triangles.ravel(),
        np.arange(0, 3 * m + 1, 3), (m, mesh.n_vertices)))


def _ring_mask(mesh, vmark: np.ndarray, rings: int) -> np.ndarray:
    """Quadrature points of the elements within `rings` element rings of the
    marked vertices (rings = 0: the elements touching them)."""
    incidence = _incidence(mesh)
    for _ in range(rings):
        vmark = incidence.T @ (incidence @ vmark)
    return np.repeat(incidence @ vmark, len(QUAD_BARY))


def _near_critical_exclusion(bundle: DerivativeBundle, p: float) -> np.ndarray:
    """Quadrature points within a few element rings of the discrete critical set.

    Near a critical point of the torsion solution the flux balance forces
    |grad u| ~ (dist / n)^{1/(p-1)}, so thresholding the recovered gradient at
    (3 h / n)^{1/(p-1)} excises an O(h) neighborhood whose measure vanishes
    under refinement; two element rings are added around it.
    """
    mesh = bundle.mesh
    delta_scan = max(bundle.delta_crit, (3.0 * mesh.h / DIM) ** (1.0 / (p - 1.0)))
    near = (bundle.gnorm <= delta_scan) | bundle.mask
    vmark = _incidence(mesh).T @ near.reshape(-1, len(QUAD_BARY)).any(axis=1)
    return near | _ring_mask(mesh, vmark, _SCAN_RINGS)


def _boundary_ring_exclusion(mesh) -> np.ndarray:
    """Quadrature points within a few element rings of the domain boundary,
    where recovered second derivatives carry the solution's own edge noise;
    built once per mesh, and read-only."""
    vmark = np.zeros(mesh.n_vertices, dtype=bool)
    vmark[mesh.boundary_vertices] = True
    mask = _ring_mask(mesh, vmark, _SCAN_RINGS - 1)
    mask.flags.writeable = False
    return mask


_SCAN_BINS = 60


def subharmonicity_scan(bundle: DerivativeBundle, p: float,
                        lu: tuple[np.ndarray, float]) -> tuple[dict, tuple[np.ndarray, np.ndarray]]:
    """Minimum and distribution of the pointwise L_u P values ``lu`` (`lu_p`:
    values and integral; requires Ric >= 0 at every quadrature point
    (`check_nonnegative_ricci` of the `domain_measures` record) and at least
    one point left after the exclusions).

    Returns the report section and the histogram of the scanned values.
    """
    mesh = bundle.mesh
    check_nonnegative_ricci(domain_measures(mesh, bundle.metric).laplacian_max)
    vals, integral = lu
    excl = _near_critical_exclusion(bundle, p) | mesh.derived(
        "boundary_rings", lambda: _boundary_ring_exclusion(mesh))
    excluded = float(excl.mean())
    kept_vals = vals[~excl & ~bundle.mask & np.isfinite(vals)]
    if not len(kept_vals):
        raise PreconditionError(
            f"no quadrature point left to scan (excluded fraction {excluded:.4g}; "
            f"masked fraction {bundle.masked_fraction:.4g})")
    tol = scan_tolerance(mesh.h, p)
    mn = float(kept_vals.min())
    section = {"min": mn, "integral": integral, "tol_scan": tol,
               "excluded_fraction": excluded, "pass": bool(mn >= -tol)}
    return section, np.histogram(kept_vals, bins=_SCAN_BINS)


# --------------------------------------------------------------------------
# Equivalence flags
# --------------------------------------------------------------------------


def equivalence_suite(trace: BoundaryTrace, bundle: DerivativeBundle) -> dict:
    """Tolerance flags for the ball-characterization statements (flat metric).

    B: boundary p-flux equals -1/(nH) pointwise; D: H is the constant H0;
    E: boundary gradient norm equals (1/(n H0))^{1/(p-1)}.  Whether the domain
    spec is literally a disk is reported as metadata, never inferred.  The
    flags come with the deviations they threshold.
    """
    if not bundle.metric.is_flat:
        raise PreconditionError("equivalence statements are Euclidean")
    p, n = trace.p, DIM
    measures = domain_measures(bundle.mesh, bundle.metric)
    h0 = measures.h0
    b_dev = trace.max_overdetermined_residual()
    d_dev = float((np.abs(trace.curvature - h0) / h0).max())
    e_ref = (1.0 / (n * h0)) ** (1.0 / (p - 1.0))
    e_dev = _max_or_nan((np.abs(trace.gnorm - e_ref) / e_ref)[~trace.flagged])
    return {
        "serrin_b": bool(b_dev <= FLAGS_TOL),
        "cmc_d": bool(d_dev <= FLAGS_TOL),
        "gradient_e": bool(e_dev <= FLAGS_TOL),
        "domain_is_disk": isinstance(bundle.mesh.spec, Disk),
        "e_reference_value": e_ref,
        "b_deviation": b_dev, "d_deviation": d_dev, "e_deviation": e_dev,
    }


# --------------------------------------------------------------------------
# Closed-form oracles
# --------------------------------------------------------------------------


def _oracle_geometry(mesh: TriMesh) -> tuple:
    """What the closed forms of `oracle_section` read of a flat disk or
    ellipse mesh alone, once per mesh: its `ellipse_boundary_integrals` and,
    on a disk, the read-only vertex radii |x| clipped to R (None on an
    ellipse)."""
    spec = mesh.spec
    if not isinstance(spec, Disk):
        return ellipse_boundary_integrals(spec.a, spec.b), None
    radii = np.minimum(np.linalg.norm(mesh.points, axis=1), spec.radius)
    radii.flags.writeable = False
    return ellipse_boundary_integrals(spec.radius, spec.radius), radii


def oracle_section(u: np.ndarray, bundle: DerivativeBundle, trace: BoundaryTrace) -> dict | None:
    """The case against its closed forms, as data with no verdict; None
    where the domain and metric have none.

    A flat `Ellipse`, or a flat `Disk` as the ellipse a = b = R, has
    `ellipse_boundary_integrals`: ``volume``, ``perimeter`` and the
    Heintze-Karcher ``t3`` = int 1/H - n |Omega|.  A flat `Disk` also has the
    radial torsion profile F of `radial_exact`.  Against it, ``u_err_max`` and
    ``u_err_l2`` are the max over the vertices and the quadrature L2 norm of
    the nodal error u - F(|x|), ``u_nu_err_max`` the largest |u_nu - F'(R)|
    off the flagged nodes, and ``p_function_spread`` std(P) / P0 at the
    unmasked quadrature points, where the P-function is the ball's constant
    P0 (`p_ball_constant`).
    """
    mesh, spec = bundle.mesh, bundle.mesh.spec
    if not bundle.metric.is_flat or not isinstance(spec, (Disk, Ellipse)):
        return None
    ei, radii = mesh.derived("oracle_geometry", lambda: _oracle_geometry(mesh))
    section = {"volume": ei.volume, "perimeter": ei.perimeter,
               "t3": ei.inv_curvature_integral - DIM * ei.volume}
    if radii is not None:
        p, radius = trace.p, spec.radius
        profile = radial_exact(DIM, p, radius)
        err = u - profile.u(radii)
        eq = np.abs(mesh.quad_interpolation() @ err)
        spread = p_function(bundle.gnorm, bundle.u, p, DIM)[~bundle.mask]
        section.update({
            "u_err_max": float(np.abs(err).max()),
            "u_err_l2": float(np.sqrt(np.sum(mesh.quad_weights * eq**2))),
            "u_nu_err_max": _max_or_nan(np.abs(trace.u_nu - profile.du(radius))[~trace.flagged]),
            "p_function_spread": (float(np.std(spread)) / p_ball_constant(DIM, p, radius)
                                  if spread.size else np.nan),
        })
    return section


# --------------------------------------------------------------------------
# Full report
# --------------------------------------------------------------------------


@dataclass
class IdentityReport:
    """One case's report: its JSON sections, and the scan's histogram.

    ``sections`` is the report as published (``p``, ``n``, ``constants``,
    ``mesh``, ``skipped``, one section per check, ``subharmonicity``,
    ``flags`` and, where the case has closed forms, ``oracle``); a section
    with a ``pass`` key is a check.  The histogram is None when the
    scan is skipped and is not part of the JSON.
    """

    sections: dict
    histogram: tuple[np.ndarray, np.ndarray] | None

    def all_passed(self) -> bool:
        return all(sec["pass"] for sec in self.sections.values()
                   if isinstance(sec, dict) and "pass" in sec)

    def to_json_dict(self) -> dict:
        return dict(self.sections)


def build_report(u: np.ndarray, bundle: DerivativeBundle, trace: BoundaryTrace) -> IdentityReport:
    """Run every applicable identity check for one solved case from its
    nodal values u, its recovered derivatives (which carry mesh and metric)
    and its boundary trace (which carries p), and compare it with its closed
    forms (`oracle_section`)."""
    mesh = bundle.mesh
    measures = domain_measures(mesh, bundle.metric)
    skipped = {}
    sections = {
        "p": trace.p,
        "n": DIM,
        "constants": {"volume": measures.volume, "perimeter": measures.perimeter,
                      "h0": measures.h0, "masked_fraction": bundle.masked_fraction},
        "mesh": {"n_vertices": mesh.n_vertices, "n_triangles": mesh.n_triangles,
                 "min_angle_deg": mesh.min_angle_deg()},
        "skipped": skipped,
    }
    oracle = oracle_section(u, bundle, trace)
    if oracle is not None:
        sections["oracle"] = oracle
    lu = lu_p(bundle, trace.p)
    checks = integral_identities(trace, bundle, lu[1])
    histogram = None
    # a caught error is kept without its traceback, whose frames (this one
    # among them) would hold the case's arrays in a reference cycle
    try:
        checks["subharmonicity"], histogram = subharmonicity_scan(bundle, trace.p, lu)
    except PreconditionError as exc:
        checks["subharmonicity"] = exc.with_traceback(None)
    try:
        checks["flags"] = equivalence_suite(trace, bundle)
    except PreconditionError as exc:
        checks["flags"] = exc.with_traceback(None)
    # a check outside its preconditions is the PreconditionError that skips it
    for name, section in checks.items():
        if isinstance(section, PreconditionError):
            skipped[name] = str(section)
        else:
            sections[name] = section
    return IdentityReport(sections, histogram)
