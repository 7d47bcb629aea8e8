"""Discrete and analytic scalar fields and their pointwise differential algebra.

A run takes three things from here: derivative recovery on a mesh
(`recover_derivatives`), the P-function (`p_function`) and the closed form of
L_u P (`linearized_on_p`), which feeds the interior side of every identity
and the subharmonicity scan.  A bundle holds u, its frame gradient and
Hessian and the mask; `linearized_on_p` derives its terms from them, and the
metric's weights and curvature are `geometry.domain_measures`'.  The
recovery is the weighted quadratic patch fit of Zienkiewicz and Zhu (Int.
J. Numer. Meth. Eng. 33, 1992).  Its normal matrices and weighted basis
products depend on the mesh alone, so they are formed once per mesh: the
matrices factored all n together, entry by entry on n-vectors (the batched
factorization of many tiny systems: Dongarra et al., Procedia Comput. Sci.
108, 2017), and the products kept as six sparse matrices W_k; a fit is six
products W_k @ u and one forward and back substitution.  The acceptance
gate's exact-algebra checks (`p_bochner_residual`, `lu_p_two_routes`) run on
analytic fields with exact derivatives through third order; there Delta_p u
is evaluated in divergence form (`_p_laplacian_with_gradient`),
independently of the frame route.

All pointwise quantities are stored in components of a local g-orthonormal
frame (e_i = e^{-phi} d_i for a conformal metric g = e^{2 phi} delta): for a
scalar u the frame gradient is G = e^{-phi} grad(u) and the frame Hessian is

    S = e^{-2 phi} (hess(u) - dphi (x) du - du (x) dphi + <dphi, du> I).

The flat metric is phi = 0 and runs the same code: every conformal factor is
then exp(0) = 1 exactly, so the formulas give the Euclidean values bit for
bit.  Only the exact-algebra reference oracles below keep a flat shortcut, so
that they stay independent of the frame route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._poly import Coeffs, PolynomialField
from ._sparse import Compressed, csr_pattern, csr_square
from .errors import ValidationError
from .geometry import DIM, TriMesh, domain_measures
from .metric import ConformalMetric, gaussian_curvature
from .oracles import radial_exact

_EYE2 = np.eye(2)


# --------------------------------------------------------------------------
# Derivative data
# --------------------------------------------------------------------------


@dataclass
class DerivativeBundle:
    """Frame-component derivative data at sample points.

    grad and hess are components in a g-orthonormal frame, gnorm is the metric
    gradient norm |grad u|_g and mask marks the near-critical points.
    """

    points: np.ndarray
    u: np.ndarray
    grad: np.ndarray            # (Q, 2) frame components
    hess: np.ndarray            # (Q, 2, 2) frame components, symmetric
    gnorm: np.ndarray
    mask: np.ndarray
    delta_crit: float
    metric: ConformalMetric
    mesh: TriMesh | None = None
    nodal_grad: np.ndarray | None = None       # Euclidean components at vertices
    nodal_hess: np.ndarray | None = None

    @property
    def masked_fraction(self) -> float:
        return float(self.mask.mean()) if len(self.mask) else 0.0


def _frame(metric: ConformalMetric, pts: np.ndarray,
           df: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame factor e^{-phi} at pts and the frame gradient e^{-phi} df."""
    e = np.exp(-metric.phi(pts))
    return e, e[:, None] * df


def frame_gradient(metric: ConformalMetric, pts: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Frame gradient of a scalar from its Euclidean gradient."""
    return _frame(metric, pts, df)[1]


def frame_from_scalar(metric: ConformalMetric, pts: np.ndarray,
                      df: np.ndarray, d2f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame gradient and covariant frame Hessian of a scalar from Euclidean data.

    Each entry is built as a 1-D array, ((d2f_ij - dphi_i df_j) - dphi_j df_i)
    + <dphi, df> delta_ij, then symmetrised as 0.5 (s_ij + s_ji) and scaled by
    e^{-2 phi}.  The shipped outputs depend on this order of operations.  The
    (Q, 2, 2) Hessian is a view of a (2, 2, Q) array, so that each entry is
    a contiguous 1-D array, and so is each component of df and d2f when they
    are views of component-major arrays, as `recover_derivatives` passes them.
    """
    e, G = _frame(metric, pts, df)
    dphi = np.ascontiguousarray(metric.grad_phi(pts).T)
    dot = dphi[0] * df[:, 0] + dphi[1] * df[:, 1]
    s = [[d2f[:, i, j] - dphi[i] * df[:, j] - dphi[j] * df[:, i] + dot * _EYE2[i, j]
          for j in range(DIM)] for i in range(DIM)]
    e2 = e**2
    S = np.empty((DIM, DIM, len(e2)))
    for i in range(DIM):
        for j in range(DIM):
            S[i, j] = e2 * (0.5 * (s[i][j] + s[j][i]))
    return G, S.transpose(2, 0, 1)


def _make_bundle(metric, pts, u, df, d2f, delta_crit, mesh=None,
                 nodal_grad=None, nodal_hess=None) -> DerivativeBundle:
    G, S = frame_from_scalar(metric, pts, df, d2f)
    gnorm = np.sqrt(G[:, 0] ** 2 + G[:, 1] ** 2)
    if delta_crit is None:
        delta_crit = default_delta_crit(mesh.h, float(gnorm.max()) if len(gnorm) else 0.0)
    return DerivativeBundle(
        points=pts, u=u, grad=G, hess=S, gnorm=gnorm, mask=gnorm <= delta_crit,
        delta_crit=delta_crit, metric=metric, mesh=mesh,
        nodal_grad=nodal_grad, nodal_hess=nodal_hess,
    )


# --------------------------------------------------------------------------
# Derivative recovery on meshes
# --------------------------------------------------------------------------


def _two_ring(mesh: TriMesh) -> Compressed:
    """The vertex pairs within graph distance two, self included, as the
    pattern of an (n, n) CSR matrix: row v holds the pairs (v, w).  It is
    the square of the one-ring pattern (sorted, without duplicates, the
    diagonal included), whose product keeps scipy.sparse's pair order."""
    tri = mesh.triangles
    n = mesh.n_vertices
    v = np.arange(n)
    i = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2], tri[:, 1], tri[:, 2], tri[:, 0], v])
    j = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0], tri[:, 0], tri[:, 1], tri[:, 2], v])
    return csr_square(csr_pattern(i, j, (n, n)))


def _normal_equations(mesh: TriMesh) -> tuple[list, list]:
    """The part of the patch fit that does not depend on the nodal values:
    the six weighted basis products W_k (`_patch_basis`) as (n, n) CSR
    matrices on the two-ring pattern, so that row v of W_k @ u sums
    w b_k u_w over v's pairs (v, w) in pair order, and the Cholesky factor
    (`_normal_factor`) of each vertex's normal matrix sum w b b^T, whose
    entries sum the products (w b_i) b_j over the same pairs."""
    two = _two_ring(mesh)
    n, n_pairs = mesh.n_vertices, two.nnz
    pw = two.indices
    pv = np.repeat(np.arange(n, dtype=pw.dtype), np.diff(two.indptr))
    # the per-pair sums over each vertex's pairs, used only here
    gather = Compressed("csr", np.ones(n_pairs), np.arange(n_pairs, dtype=pw.dtype),
                        two.indptr, (n, n_pairs))
    dx, dy = ((mesh.points[pw, k] - mesh.points[pv, k]) / mesh.h for k in range(2))
    w = np.exp(-(dx * dx + dy * dy))
    basis = _patch_basis(dx, dy)
    # the 21 distinct entries (w b_i) b_j, i >= j; one product at a time keeps
    # the temporaries small
    products, entries = [], []
    for i in range(6):
        wb = w * basis[i]
        wb.flags.writeable = False          # shared by every fit on the mesh
        products.append(Compressed("csr", wb, pw, two.indptr, (n, n)))
        entries.append([gather @ (wb * basis[j]) for j in range(i + 1)])
    factor = _normal_factor(entries)
    for row in factor:
        for e in row:
            e.flags.writeable = False
    return products, factor


def _patch_basis(dx: np.ndarray, dy: np.ndarray) -> list:
    """The quadratic basis 1, dx, dy, dx^2/2, dx dy, dy^2/2 at each pair."""
    return [1.0, dx, dy, 0.5 * dx ** 2, dx * dy, 0.5 * dy ** 2]


def _cholesky(m: list) -> tuple[list, np.ndarray]:
    """The Cholesky factors L L^T = M of n symmetric 6 x 6 matrices at once,
    entry by entry on n-vectors: m[i][j] (j <= i) is entry (i, j) of every
    matrix, and so is L[i][j] of the factors.  Also returns the mask of the
    matrices whose six pivots are all positive; elsewhere L is not a
    factor."""
    L = [[None] * (i + 1) for i in range(6)]
    ok = np.ones(len(m[0][0]), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(6):
            pivot = m[j][j] - sum(L[j][k] * L[j][k] for k in range(j))
            ok &= pivot > 0.0
            L[j][j] = np.sqrt(pivot)
            for i in range(j + 1, 6):
                L[i][j] = (m[i][j] - sum(L[i][k] * L[j][k] for k in range(j))) / L[j][j]
    return L, ok


def _normal_factor(m: list) -> list:
    """The Cholesky factor of each vertex's normal matrix, entries m[i][j]
    (j <= i) as n-vectors (`_cholesky`).  A vertex with a pivot that is not
    positive is factored again with its diagonal shifted by 1e-12 tr(M);
    every other vertex keeps its own factor."""
    L, ok = _cholesky(m)
    bad = ~ok
    if bad.any():
        shifted = [[e[bad] for e in row] for row in m]
        shift = 1e-12 * sum(shifted[k][k] for k in range(6))
        for k in range(6):
            shifted[k][k] = shifted[k][k] + shift
        for row, fixed in zip(L, _cholesky(shifted)[0]):
            for e, f in zip(row, fixed):
                e[bad] = f
    return L


def _cholesky_solve(L: list, b: list) -> list:
    """x with L L^T x = b for the factors L of `_cholesky`: b and x are six
    n-vectors, one per entry, solved by forward and back substitution."""
    y = []
    for i in range(6):
        y.append((b[i] - sum(L[i][k] * y[k] for k in range(i))) / L[i][i])
    x = [None] * 6
    for i in reversed(range(6)):
        x[i] = (y[i] - sum(L[k][i] * x[k] for k in range(i + 1, 6))) / L[i][i]
    return x


def _quadratic_fit(mesh: TriMesh, nodal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodal gradient and Hessian of scalar nodal values by weighted local
    quadratic regression.

    Fits a full quadratic to the nodal values over each vertex's two-ring
    patch (Gaussian distance weights, vertex-centered coordinates scaled by
    h); reproduces quadratic fields exactly up to the boundary, which plain
    averaging of element gradients does not.  The Hessian is symmetric by
    construction: both off-diagonal entries are the one xy coefficient.
    The weighted basis products W_k and the Cholesky factors of the normal
    matrices are built once per mesh (`_normal_equations`); a fit forms its
    six right-hand sides as the products W_k @ u and solves the n 6 x 6
    systems with those factors, entry by entry (`_cholesky_solve`).
    """
    products, factor = mesh.derived("recovery", lambda: _normal_equations(mesh))
    h = mesh.h
    c = _cholesky_solve(factor, [wb @ nodal for wb in products])
    hess = np.stack([c[3], c[4], c[4], c[5]], axis=1).reshape(-1, 2, 2)
    return np.stack([c[1], c[2]], axis=1) / h, hess / (h * h)


def default_delta_crit(h: float, gnorm_max: float) -> float:
    return max(1e-8, 1e-3 * h * gnorm_max)


def recover_derivatives(mesh: TriMesh, u: np.ndarray, metric: ConformalMetric) -> DerivativeBundle:
    """Gradient and Hessian recovery by local quadratic patch regression.

    The nodal values u (one finite value per vertex) are fit with a quadratic
    over two-ring vertex patches, giving gradient and (symmetric) Hessian in
    one consistent pass; both are then interpolated to the interior
    quadrature points.  The critical-set threshold is `default_delta_crit` of
    the mesh and the gradient scale.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ValidationError(f"field has {u.shape} values for {mesh.n_vertices} vertices")
    if not np.isfinite(u).all():
        raise ValidationError("field contains non-finite values")

    nodal_g, nodal_h = _quadratic_fit(mesh, u)

    # u, gradient and Hessian stacked as (N, 7): one interpolation for all
    # three, transposed once so that each of the seven is a contiguous row
    # (`frame_from_scalar`); u is copied out, so that the bundle does not
    # keep all seven
    at = np.ascontiguousarray((mesh.quad_interpolation() @ np.concatenate(
        [u[:, None], nodal_g, nodal_h.reshape(-1, 4)], axis=1)).T)
    return _make_bundle(metric, mesh.quad_points, at[0].copy(), at[1:3].T,
                        at[3:].T.reshape(-1, 2, 2), None,
                        mesh=mesh, nodal_grad=nodal_g, nodal_hess=nodal_h)


# --------------------------------------------------------------------------
# Analytic fields with exact derivatives through third order
# --------------------------------------------------------------------------


class RadialField:
    """u(x) = F(|x|) with exact radial derivatives F', F'', F'''."""

    def __init__(self, f: Callable, f1: Callable, f2: Callable, f3: Callable, name: str):
        self.f, self.f1, self.f2, self.f3 = f, f1, f2, f3
        self.name = name

    def _r(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.linalg.norm(pts, axis=-1)

    def value(self, pts):
        return self.f(self._r(pts))

    def grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = self._r(pts)
        return pts * (self.f1(r) / r)[..., None]

    def hess(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = self._r(pts)
        g1 = self.f1(r) / r
        g2 = (self.f2(r) - g1) / r**2
        outer = pts[..., :, None] * pts[..., None, :]
        return g2[..., None, None] * outer + g1[..., None, None] * _EYE2

    def third(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = self._r(pts)
        g1 = self.f1(r) / r
        a = self.f2(r) - g1
        g2 = a / r**2
        da = self.f3(r) - (self.f2(r) - g1) / r
        g2p = da / r**2 - 2.0 * a / r**3
        x = pts
        cubic = x[..., :, None, None] * x[..., None, :, None] * x[..., None, None, :]
        sym = (
            _EYE2[None, :, :, None] * x[..., None, None, :]
            + _EYE2[None, :, None, :] * x[..., None, :, None]
            + _EYE2[None, None, :, :] * x[..., :, None, None]
        )
        return (g2p / r)[..., None, None, None] * cubic + g2[..., None, None, None] * sym


AnalyticField = Union[PolynomialField, RadialField]


def torsion_profile_field(p: float) -> RadialField:
    """Exact radial torsion function of the unit disk (`radial_exact`) as an
    analytic field, with its third derivative."""
    prof = radial_exact(DIM, p, 1.0)
    q = p / (p - 1.0)
    C = (p - 1.0) / p * DIM ** (-1.0 / (p - 1.0))

    def f3(r):
        return -C * q * (q - 1.0) * (q - 2.0) * r ** (q - 3.0)

    return RadialField(prof.u, prof.du, prof.d2u, f3, name=f"torsion_p{p}")


def gaussian_radial_field(amplitude: float, sigma: float) -> RadialField:
    s2 = sigma * sigma

    def f(r):
        return amplitude * np.exp(-r * r / (2 * s2))

    def f1(r):
        return -amplitude * r / s2 * np.exp(-r * r / (2 * s2))

    def f2(r):
        return amplitude * (r * r / s2 - 1.0) / s2 * np.exp(-r * r / (2 * s2))

    def f3(r):
        return amplitude * r * (3.0 - r * r / s2) / s2**2 * np.exp(-r * r / (2 * s2))

    return RadialField(f, f1, f2, f3, name="gaussian")


_N_RANDOM = 15


def field_catalogue(seed: int = 0) -> list[AnalyticField]:
    """Named analytic test fields plus `_N_RANDOM` seeded random polynomials."""
    fields: list[AnalyticField] = [
        PolynomialField({(4, 0): 1 / 12, (0, 2): 1 / 2}, name="quartic_ridge"),
        PolynomialField({(2, 0): 0.5, (0, 2): 0.5}, name="paraboloid"),
        PolynomialField({(2, 0): 0.5}, name="x_parabola"),
        PolynomialField({(1, 1): 1.0}, name="saddle"),
        PolynomialField({(3, 0): 1 / 6, (0, 3): 1 / 6}, name="cubic_mix"),
        PolynomialField({(1, 0): 0.4, (0, 1): 0.9}, name="tilt"),
        torsion_profile_field(1.5),
        torsion_profile_field(2.0),
        torsion_profile_field(3.0),
        torsion_profile_field(4.0),
        gaussian_radial_field(1.0, 1.2),
    ]
    rng = np.random.default_rng(seed)
    for k in range(_N_RANDOM):
        deg = 2 + k % 3
        coeffs: Coeffs = {(1, 0): rng.uniform(0.3, 1.0), (0, 1): rng.uniform(0.3, 1.0)}
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                if i + j >= 2:
                    coeffs[(i, j)] = rng.uniform(-1.0, 1.0) / math.factorial(i + j)
        fields.append(PolynomialField(coeffs, name=f"rand_deg{deg}_{k}"))
    return fields


# critical-set threshold of exact derivative data
_ANALYTIC_DELTA_CRIT = 1e-8


def analytic_bundle(field: AnalyticField, metric: ConformalMetric, pts: np.ndarray) -> DerivativeBundle:
    """Bundle with exact (rather than recovered) derivative data at the points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _make_bundle(metric, pts, field.value(pts), field.grad(pts), field.hess(pts),
                        _ANALYTIC_DELTA_CRIT)


# --------------------------------------------------------------------------
# Pointwise operations on bundles
# --------------------------------------------------------------------------


def p_function(gnorm: np.ndarray, u: np.ndarray, p: float, n: int) -> np.ndarray:
    """P = ((p-1)/p) |grad u|_g^p + u/n from the metric gradient norm and the
    values of u at the same points."""
    if not (p > 1.0):
        raise ValidationError(f"p must exceed 1, got {p}")
    if n < 2:
        raise ValidationError(f"n must be at least 2, got {n}")
    return (p - 1.0) / p * gnorm**p + u / n


def linearized_on_p(bundle: DerivativeBundle, p: float, n: int) -> np.ndarray:
    """Pointwise value of the linearized operator applied to the P-function.

    Assumes the field solves the unit-source torsion equation, for which the
    source-gradient term drops and

        L_u P = (p-1)|g|^{2(p-2)} (|hess|^2 + (p-2)^2 A^2 + Ric(g, g))
                + 2(p-1)(p-2)|g|^{2(p-2)} |grad|g||^2 - (p-1)/n,

    with A = g.S.g / |g|^2, |grad|g|| = |S g| / |g| and Ric(g, g) = K |g|^2
    from the frame gradient g and Hessian S.  NaN at masked points.  K of a
    recovered bundle, whose points are its mesh's quadrature points, is the
    one `domain_measures` keeps per mesh and metric.
    """
    G, S, gn, mask = bundle.grad, bundle.hess, bundle.gnorm, bundle.mask
    safe = np.where(mask, 1.0, np.maximum(gn, 1e-300))
    # entry by entry; the shipped outputs depend on the order of each sum
    (s00, s01), (s10, s11) = S[:, 0].T, S[:, 1].T
    g0, g1 = G.T
    hess_frob = np.sqrt((s00**2 + s10**2) + (s01**2 + s11**2))
    sg0, sg1 = s00 * g0 + s01 * g1, s10 * g0 + s11 * g1
    a_u = (g0 * sg0 + g1 * sg1) / safe**2
    grad_gnorm = np.sqrt(sg0**2 + sg1**2) / safe
    K = (gaussian_curvature(bundle.metric, bundle.points) if bundle.mesh is None
         else domain_measures(bundle.mesh, bundle.metric).curvature)
    ric = K * gn**2
    with np.errstate(invalid="ignore"):
        amp = safe ** (2.0 * (p - 2.0))
        val = (p - 1.0) * amp * (hess_frob**2 + (p - 2.0) ** 2 * a_u**2 + ric)
        val += 2.0 * (p - 1.0) * (p - 2.0) * amp * grad_gnorm**2
        val -= (p - 1.0) / n
    val[mask] = np.nan
    return val


# --------------------------------------------------------------------------
# Exact pointwise algebra on analytic fields
# --------------------------------------------------------------------------


def _u_derivs(field: AnalyticField, pts: np.ndarray):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return field.value(pts), field.grad(pts), field.hess(pts), field.third(pts)


def _phi_derivs(metric: ConformalMetric, pts: np.ndarray):
    n = len(pts)
    if metric.is_flat:
        return np.zeros(n), np.zeros((n, 2)), np.zeros((n, 2, 2))
    return metric.phi(pts), metric.grad_phi(pts), metric.hess_phi(pts)


def _p_laplacian_with_gradient(field, metric, p, pts):
    """Delta_p u and the metric inner product <grad Delta_p u, grad u>_g, exactly."""
    _, du, d2u, d3u = _u_derivs(field, pts)
    phi, dphi, d2phi = _phi_derivs(metric, pts)
    m = np.einsum("ni,ni->n", du, du)
    dm = 2.0 * np.einsum("nij,nj->ni", d2u, du)
    B = np.einsum("nij,ni,nj->n", d2u, du, du)
    dB = np.einsum("nkli,nk,nl->ni", d3u, du, du) + 2.0 * np.einsum("nkl,nki,nl->ni", d2u, d2u, du)
    T = np.einsum("nii->n", d2u)
    dT = np.einsum("nkki->ni", d3u)
    c = np.einsum("ni,ni->n", dphi, du)
    dc = np.einsum("nki,nk->ni", d2phi, du) + np.einsum("nki,nk->ni", d2u, dphi)
    V = T + (p - 2.0) * (B / m - c)
    dV = dT + (p - 2.0) * ((dB * m[:, None] - B[:, None] * dm) / m[:, None] ** 2 - dc)
    W = m ** ((p - 2.0) / 2.0) * V
    dW = ((p - 2.0) / 2.0) * (m ** ((p - 4.0) / 2.0) * V)[:, None] * dm + m[:, None] ** ((p - 2.0) / 2.0) * dV
    ep = np.exp(-p * phi)
    D = ep * W
    dD = ep[:, None] * (-p * dphi * W[:, None] + dW)
    inner = np.exp(-2.0 * phi) * np.einsum("ni,ni->n", dD, du)
    return D, inner


def _gradnorm_power_derivs(field, metric, p, pts):
    """Euclidean derivatives of eta = |grad u|_g^p = e^{-p phi} m^{p/2}."""
    _, du, d2u, d3u = _u_derivs(field, pts)
    phi, dphi, d2phi = _phi_derivs(metric, pts)
    m = np.einsum("ni,ni->n", du, du)
    dm = 2.0 * np.einsum("nij,nj->ni", d2u, du)
    d2m = 2.0 * (np.einsum("nki,nkj->nij", d2u, d2u) + np.einsum("nk,nkij->nij", du, d3u))
    w = m ** (p / 2.0)
    dw = (p / 2.0) * (m ** (p / 2.0 - 1.0))[:, None] * dm
    d2w = (p / 2.0) * (
        (p / 2.0 - 1.0) * (m ** (p / 2.0 - 2.0))[:, None, None] * dm[:, :, None] * dm[:, None, :]
        + (m ** (p / 2.0 - 1.0))[:, None, None] * d2m
    )
    if metric.is_flat:
        return w, dw, d2w
    ep = np.exp(-p * phi)
    eta = ep * w
    deta = ep[:, None] * (dw - p * dphi * w[:, None])
    d2eta = ep[:, None, None] * (
        d2w
        - p * (dphi[:, :, None] * dw[:, None, :] + dphi[:, None, :] * dw[:, :, None])
        - p * d2phi * w[:, None, None]
        + p * p * dphi[:, :, None] * dphi[:, None, :] * w[:, None, None]
    )
    return eta, deta, d2eta


def p_bochner_residual(field: AnalyticField, metric: ConformalMetric, p: float,
                       pts: np.ndarray) -> np.ndarray:
    """Residual of the p-Bochner formula at non-critical points (exact algebra).

    (1/p) L_u^II(|grad u|^p) minus the right-hand side built from
    <grad Delta_p u, grad u>, A_u, |hess u|^2 and Ric(grad u, grad u);
    identically zero in exact arithmetic.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _, du, d2u, _ = _u_derivs(field, pts)
    G, S = frame_from_scalar(metric, pts, du, d2u)
    gn = np.linalg.norm(G, axis=1)
    if (gn < 1e-12).any():
        raise ValidationError("p-Bochner residual requested at a critical point")
    A = np.einsum("ni,nij,nj->n", G, S, G) / gn**2
    hf2 = np.einsum("nij,nij->n", S, S)
    K = gaussian_curvature(metric, pts)
    _, deta, d2eta = _gradnorm_power_derivs(field, metric, p, pts)
    Ge, Se = frame_from_scalar(metric, pts, deta, d2eta)
    lhs = (1.0 / p) * (
        gn ** (p - 2.0) * np.einsum("nii->n", Se)
        + (p - 2.0) * gn ** (p - 4.0) * np.einsum("ni,nij,nj->n", G, Se, G)
    )
    D, inner = _p_laplacian_with_gradient(field, metric, p, pts)
    rhs = gn ** (2.0 * (p - 2.0)) * (
        gn ** (2.0 - p) * (inner - (p - 2.0) * A * D)
        + hf2 + p * (p - 2.0) * A**2 + K * gn**2
    )
    return lhs - rhs


def lu_p_two_routes(field: AnalyticField, metric: ConformalMetric, p: float, n: int,
                    pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L_u P two ways: linearized operator applied to P vs. the expanded formula.

    The expansion keeps the <grad Delta_p u, grad u> term, so both routes are
    valid for fields that do not solve the torsion equation.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _, du, d2u, _ = _u_derivs(field, pts)
    G, S = frame_from_scalar(metric, pts, du, d2u)
    gn = np.linalg.norm(G, axis=1)
    if (gn < 1e-12).any():
        raise ValidationError("L_u P requested at a critical point")
    A = np.einsum("ni,nij,nj->n", G, S, G) / gn**2
    hf2 = np.einsum("nij,nij->n", S, S)
    sg = np.einsum("nij,nj->ni", S, G)
    gg2 = np.einsum("ni,ni->n", sg, sg) / gn**2
    K = gaussian_curvature(metric, pts)
    D, inner = _p_laplacian_with_gradient(field, metric, p, pts)

    _, deta, d2eta = _gradnorm_power_derivs(field, metric, p, pts)
    dP = (p - 1.0) / p * deta + du / n
    d2P = (p - 1.0) / p * d2eta + d2u / n
    Gp, Sp = frame_from_scalar(metric, pts, dP, d2P)
    ghat = G / gn[:, None]
    w = Gp - ghat * np.einsum("ni,ni->n", ghat, Gp)[:, None]
    via_linearized = (
        gn ** (p - 2.0) * np.einsum("nii->n", Sp)
        + (p - 2.0) * gn ** (p - 4.0) * np.einsum("ni,nij,nj->n", G, Sp, G)
        + (p - 2.0) * np.einsum("ni,ni->n", G, Gp) / gn**2 * D
        + 2.0 * (p - 2.0) * gn ** (p - 4.0) * np.einsum("ni,nij,nj->n", G, S, w)
    )
    amp = gn ** (2.0 * (p - 2.0))
    via_expansion = (
        (p - 1.0) * amp * (gn ** (2.0 - p) * inner + hf2 + (p - 2.0) ** 2 * A**2 + K * gn**2)
        + 2.0 * (p - 1.0) * (p - 2.0) * amp * gg2
        + (p - 1.0) * D / n
    )
    return via_linearized, via_expansion
