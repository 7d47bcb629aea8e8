import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from plap_lab import fields
from plap_lab import (ConformalMetric, PolynomialField, ValidationError,
                      analytic_bundle, build_mesh, field_catalogue, linearized_on_p,
                      p_bochner_residual, p_function, recover_derivatives)
from plap_lab.fields import (_p_laplacian_with_gradient, gaussian_radial_field,
                             lu_p_two_routes, torsion_profile_field)
from plap_lab.metric import gaussian_curvature

from conftest import DOMAINS

FLAT = ConformalMetric.flat()
RNG = np.random.default_rng(0)


def _sample_points(count=80, rmin=0.35, rmax=1.1, seed=5):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(rmin**2, rmax**2, count))
    t = rng.uniform(0, 2 * np.pi, count)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def _c_ordered(bundle):
    """The bundle's frame gradient and Hessian as C-ordered arrays: a
    recovered bundle's are views of component-major arrays, and einsum's
    order of summation follows the memory layout of its operands."""
    return np.ascontiguousarray(bundle.grad), np.ascontiguousarray(bundle.hess)


def _direction_terms(bundle):
    """A_u = g.S.g / |g|^2 and |grad |grad u||_g = |S g| / |g| from the
    bundle's frame gradient g and Hessian S; NaN where masked."""
    safe = np.where(bundle.mask, 1.0, bundle.gnorm)
    grad, hess = _c_ordered(bundle)
    sg = np.einsum("nij,nj->ni", hess, grad)
    a_u = np.einsum("ni,ni->n", grad, sg) / safe**2
    grad_gnorm = np.linalg.norm(sg, axis=1) / safe
    a_u[bundle.mask] = grad_gnorm[bundle.mask] = np.nan
    return a_u, grad_gnorm


# --------------------------------------------------------------- recovery

@settings(max_examples=15, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-1, 1))
def test_recovery_exact_on_linear_fields(lab, a, b, c):
    mesh = lab.mesh("disk", 0.1)
    u = a * mesh.points[:, 0] + b * mesh.points[:, 1] + c
    bundle = recover_derivatives(mesh, u, FLAT)
    scale = max(abs(a), abs(b), 1.0)
    assert np.abs(bundle.grad - [a, b]).max() <= 1e-10 * scale
    assert np.abs(bundle.hess).max() <= 1e-10 * scale


def test_recovery_exact_on_quadratics(lab):
    mesh = lab.mesh("disk", 0.05)
    u = 0.5 * (mesh.points**2).sum(axis=1)
    bundle = recover_derivatives(mesh, u, FLAT)
    assert np.abs(bundle.nodal_grad - mesh.points).max() <= 1e-10
    assert np.abs(bundle.nodal_hess - np.eye(2)).max() <= 1e-10


def _patch_sums(mesh, u):
    """Each vertex's normal matrix (n, 6, 6) and right-hand sides (n, 6) of
    the nodal values u, summed over its two-ring pairs by bincount in pair
    order, and the pairs' neighbours."""
    n = mesh.n_vertices
    ring = fields._two_ring(mesh)
    two = sp.csr_matrix((ring.data, ring.indices, ring.indptr), shape=ring.shape).tocoo()
    pv, pw = two.row, two.col
    d = (mesh.points[pw] - mesh.points[pv]) / mesh.h
    basis = np.stack([np.ones(len(pv)), d[:, 0], d[:, 1],
                      0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1], 0.5 * d[:, 1] ** 2], axis=1)
    wb = np.exp(-(d * d).sum(axis=1))[:, None] * basis
    mat = np.stack([np.bincount(pv, weights=wb[:, i] * basis[:, j], minlength=n)
                    for i in range(6) for j in range(6)], axis=1).reshape(n, 6, 6)
    rhs = np.stack([np.bincount(pv, weights=wb[:, k] * u[pw], minlength=n) for k in range(6)],
                   axis=1)
    return mat, rhs, pw


def _recorded(monkeypatch, name):
    """Record the arguments and result of each call of fields.<name>."""
    calls, call = [], getattr(fields, name)
    monkeypatch.setattr(fields, name, lambda *args: calls.append((args, call(*args))) or
                        calls[-1][1])
    return calls


def _wavy(mesh):
    return np.sin(1.3 * mesh.points[:, 0]) * np.cos(0.7 * mesh.points[:, 1])


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.05), ("annulus", 0.1)])
def test_recovery_sums_match_bincount_formulas(lab, monkeypatch, domain, h):
    """The 21 gathered entries of each normal matrix and a fit's right-hand
    sides, the products W_k @ u, equal, bit for bit, the per-pair sums
    scattered by bincount in pair order; the entrywise factor reproduces the
    matrices to rounding, and a fit solves each vertex's system as
    np.linalg.solve does, within 1e-11 of its largest coefficient."""
    mesh = build_mesh(DOMAINS[domain], h)      # a fresh mesh: its factor is built here
    n = mesh.n_vertices
    u = _wavy(mesh)
    mat, rhs, pw = _patch_sums(mesh, u)
    built, factors = _recorded(monkeypatch, "_normal_equations"), _recorded(monkeypatch,
                                                                           "_normal_factor")
    solves = _recorded(monkeypatch, "_cholesky_solve")
    grad, hess = fields._quadratic_fit(mesh, u)
    [(_, (products, _))] = built
    [((entries,), L)] = factors
    [((_, b), c)] = solves
    # the six products W_k are CSR matrices on the two-ring pattern
    ring = fields._two_ring(mesh)
    assert len(products) == 6
    for wb in products:
        assert wb.shape == (n, n) and np.array_equal(wb.indices, pw)
        assert np.array_equal(wb.indptr, ring.indptr)
    dense = np.zeros((n, 6, 6))
    for i in range(6):
        for j in range(i + 1):
            assert np.array_equal(entries[i][j], mat[:, i, j]), (i, j)
            dense[:, i, j] = L[i][j]
    product = dense @ dense.transpose(0, 2, 1)
    assert (np.abs(product - mat).max(axis=(1, 2)) <= 1e-13 * np.abs(mat).max(axis=(1, 2))).all()
    assert np.array_equal(np.stack(b, axis=1), rhs)
    coef = np.stack(c, axis=1)
    ref = np.linalg.solve(mat, rhs[:, :, None])[..., 0]
    assert (np.abs(coef - ref).max(axis=1) <= 1e-11 * np.abs(ref).max(axis=1)).all()
    assert np.array_equal(grad, coef[:, 1:3] / mesh.h)
    assert np.array_equal(hess, coef[:, [3, 4, 4, 5]].reshape(n, 2, 2) / (mesh.h * mesh.h))


def test_a_singular_patch_shifts_only_its_own_normal_matrix(lab, monkeypatch):
    """A vertex whose normal matrix has a pivot that is not positive is
    factored with its diagonal shifted by 1e-12 tr(M); every other vertex
    fits as it does on a mesh with no such vertex, bit for bit."""
    ref = fields._quadratic_fit(lab.mesh("disk", 0.1), _wavy(lab.mesh("disk", 0.1)))
    mesh = build_mesh(DOMAINS["disk"], 0.1)
    vertex = 7
    normal_factor = fields._normal_factor

    def singular(m):
        # row and column 5 of the vertex's matrix vanish: its last pivot is 0
        for j in range(6):
            m[5][j][vertex] = 0.0
        return normal_factor(m)

    monkeypatch.setattr(fields, "_normal_factor", singular)
    choleskys = _recorded(monkeypatch, "_cholesky")
    grad, hess = fields._quadratic_fit(mesh, _wavy(mesh))
    # all the matrices, then the one shifted
    assert [len(m[0][0]) for (m,), _ in choleskys] == [mesh.n_vertices, 1]
    assert not choleskys[0][1][1][vertex] and choleskys[1][1][1].all()
    others = np.arange(mesh.n_vertices) != vertex
    assert np.array_equal(grad[others], ref[0][others])
    assert np.array_equal(hess[others], ref[1][others])
    assert np.isfinite(grad[vertex]).all() and np.isfinite(hess[vertex]).all()


def test_recovery_hessian_order_on_cubics():
    from plap_lab import Disk, build_mesh

    errs = []
    for h in (0.2, 0.1):
        mesh = build_mesh(Disk(1.0), h)
        u = mesh.points[:, 0] ** 3 / 6.0
        bundle = recover_derivatives(mesh, u, FLAT)
        exact = np.zeros((mesh.n_vertices, 2, 2))
        exact[:, 0, 0] = mesh.points[:, 0]
        r = np.linalg.norm(mesh.points, axis=1)
        errs.append(np.abs(bundle.nodal_hess - exact).max(axis=(1, 2))[r < 0.8].max())
    assert errs[1] <= max(errs[0] / 1.4, 5e-4)


def test_hessian_symmetry_and_cauchy_schwarz(lab):
    sol = lab.solution("disk", 3.0)
    bundle = recover_derivatives(sol.mesh, sol.u, FLAT)
    assert np.abs(bundle.hess - np.swapaxes(bundle.hess, 1, 2)).max() <= 1e-12
    ok = ~bundle.mask
    a_u, grad_gnorm = _direction_terms(bundle)
    assert np.nanmax(a_u[ok] ** 2 - grad_gnorm[ok] ** 2) <= 1e-12


def test_field_size_mismatch():
    from plap_lab import Disk, build_mesh

    mesh = build_mesh(Disk(1.0), 0.2)
    with pytest.raises(ValidationError):
        recover_derivatives(mesh, np.zeros(mesh.n_vertices + 1), FLAT)
    with pytest.raises(ValidationError):
        recover_derivatives(mesh, np.full(mesh.n_vertices, np.nan), FLAT)


# ----------------------------------------------------------- P-function

def test_p_function_zero_field(lab):
    mesh = lab.mesh("disk", 0.1)
    bundle = recover_derivatives(mesh, np.zeros(mesh.n_vertices), FLAT)
    assert np.all(p_function(bundle.gnorm, bundle.u, 2.0, 2) == 0.0)


@pytest.mark.parametrize("p,expected", [(2.0, 0.125), (3.0, 0.23570226039551584)])
def test_p_function_constant_on_exact_torsion(p, expected):
    field = torsion_profile_field(p)
    pts = _sample_points(rmax=0.95)
    bundle = analytic_bundle(field, FLAT, pts)
    vals = (p - 1) / p * bundle.gnorm**p + bundle.u / 2
    assert np.abs(vals - expected).max() <= 1e-12


def test_p_function_validation(lab):
    mesh = lab.mesh("disk", 0.1)
    bundle = recover_derivatives(mesh, np.zeros(mesh.n_vertices), FLAT)
    with pytest.raises(ValidationError):
        p_function(bundle.gnorm, bundle.u, 1.0, 2)
    with pytest.raises(ValidationError):
        p_function(bundle.gnorm, bundle.u, 2.0, 1)


# ---------------------------------------------------------- p-Laplacian

def _p_laplacian(bundle, p):
    """Pointwise Delta_p u = |g|^{p-2} (tr S + (p-2) A_u) from the frame data;
    NaN where masked."""
    with np.errstate(invalid="ignore"):
        out = bundle.gnorm ** (p - 2.0) * (np.einsum("nii->n", bundle.hess)
                                           + (p - 2.0) * _direction_terms(bundle)[0])
    out[bundle.mask] = np.nan
    return out


def test_p_laplacian_exact_disk_torsion_p2():
    pts = _sample_points(rmax=0.95)
    bundle = analytic_bundle(torsion_profile_field(2.0), FLAT, pts)
    assert np.abs(_p_laplacian(bundle, 2.0) + 1.0).max() <= 1e-12


def test_p_laplacian_discrete_interior(lab):
    sol = lab.solution("disk", 3.0)
    bundle = recover_derivatives(sol.mesh, sol.u, FLAT)
    r = np.linalg.norm(bundle.points, axis=1)
    sel = (r > 0.2) & (r < 0.8) & ~bundle.mask
    vals = _p_laplacian(bundle, 3.0)[sel]
    assert np.abs(vals + 1.0).max() <= 10 * sol.mesh.h


def test_p_laplacian_constant_field_all_masked(lab):
    mesh = lab.mesh("disk", 0.1)
    bundle = recover_derivatives(mesh, np.full(mesh.n_vertices, 0.7), FLAT)
    assert bundle.mask.all()
    assert bundle.masked_fraction == 1.0
    assert np.isnan(_p_laplacian(bundle, 2.5)).all()


def test_p_laplacian_dual_route_agreement():
    # frame-component formula against the divergence-form expansion
    pts = _sample_points()
    for metric in (FLAT, ConformalMetric.gaussian_bump(0.3, 0.1, -0.2, 1.1)):
        for field in (PolynomialField({(3, 0): 1 / 6, (0, 2): 0.5, (1, 1): 0.3}),
                      torsion_profile_field(3.0)):
            bundle = analytic_bundle(field, metric, pts)
            via_frame = _p_laplacian(bundle, 2.7)
            via_div = _p_laplacian_with_gradient(field, metric, 2.7, pts)[0]
            assert np.abs(via_frame - via_div).max() <= 1e-10


def test_a_u_on_exact_disk_torsion(lab):
    # radial p=2 torsion has hess = -I/2, so A_u = -1/2
    sol = lab.solution("disk", 2.0)
    bundle = recover_derivatives(sol.mesh, sol.u, FLAT)
    r = np.linalg.norm(bundle.points, axis=1)
    sel = (r > 0.2) & (r < 0.8)
    assert np.abs(_direction_terms(bundle)[0][sel] + 0.5).max() <= 5 * sol.mesh.h


# -------------------------------------------------------- L_u P algebra

def test_lu_p_zero_on_exact_disk_torsion():
    pts = _sample_points(rmax=0.95)
    for p in (1.5, 2.0, 3.0):
        bundle = analytic_bundle(torsion_profile_field(p), FLAT, pts)
        vals = linearized_on_p(bundle, p, 2)
        assert np.abs(vals).max() <= 1e-10


def test_lu_p_cross_check_polynomials():
    pts = _sample_points(count=60)
    field = PolynomialField({(4, 0): 1 / 12, (0, 2): 0.5})
    for p in (1.5, 2.0, 2.5, 4.0):
        lhs, rhs = lu_p_two_routes(field, FLAT, p, 2, pts)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_lu_p_cross_check_conformal():
    pts = _sample_points(count=40)
    metric = ConformalMetric.poly([(2, 0, -0.25), (0, 2, -0.25)])
    field = PolynomialField({(3, 0): 1 / 6, (0, 2): 0.5, (1, 0): 0.4})
    lhs, rhs = lu_p_two_routes(field, metric, 2.5, 2, pts)
    assert np.abs(lhs - rhs).max() <= 1e-10


def _lu_p_reference(bundle, p, n):
    """L_u P from the bundle's frame gradient and Hessian and the Gaussian
    curvature K, term by term as the closed form writes it."""
    a_u, grad_gnorm = _direction_terms(bundle)
    hess = _c_ordered(bundle)[1]
    hess_frob = np.sqrt(np.einsum("nij,nij->n", hess, hess))
    ric = gaussian_curvature(bundle.metric, bundle.points) * bundle.gnorm**2
    amp = np.where(bundle.mask, 1.0, bundle.gnorm) ** (2.0 * (p - 2.0))
    val = (p - 1.0) * amp * (hess_frob**2 + (p - 2.0) ** 2 * a_u**2 + ric)
    val += 2.0 * (p - 1.0) * (p - 2.0) * amp * grad_gnorm**2
    val -= (p - 1.0) / n
    val[bundle.mask] = np.nan
    return val


@pytest.mark.parametrize("domain,p,metric", [("ellipse", 3.0, "flat"), ("disk", 2.0, "cap")])
def test_lu_p_on_recovered_bundles_matches_reference(lab, domain, p, metric):
    sol = lab.solution(domain, p, metric=metric)
    bundle = recover_derivatives(sol.mesh, sol.u, sol.metric)
    for q in (1.5, p, 4.0):
        assert np.array_equal(linearized_on_p(bundle, q, 2), _lu_p_reference(bundle, q, 2),
                              equal_nan=True)


# ------------------------------------------------------------ p-Bochner

def test_bochner_zero_for_quadratic_p2():
    field = PolynomialField({(2, 0): 0.8, (1, 1): 0.3, (0, 2): -0.4, (1, 0): 1.0})
    res = p_bochner_residual(field, FLAT, 2.0, _sample_points(count=40))
    assert np.abs(res).max() <= 1e-13


def test_bochner_quartic_example():
    field = PolynomialField({(4, 0): 1 / 12, (0, 2): 0.5})
    res = p_bochner_residual(field, FLAT, 3.0, np.array([[1.0, 1.0]]))
    assert abs(res[0]) <= 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_bochner_radial_at_half(p):
    field = torsion_profile_field(3.0)
    pts = np.array([[0.3, 0.4]])  # r = 1/2
    res = p_bochner_residual(field, FLAT, p, pts)
    assert abs(res[0]) <= 1e-10


def test_bochner_rejects_critical_points():
    field = PolynomialField({(2, 0): 0.5, (0, 2): 0.5})
    with pytest.raises(ValidationError):
        p_bochner_residual(field, FLAT, 2.0, np.array([[0.0, 0.0]]))


# -------------------------------------------------------- analytic fields

def test_catalogue_size_and_names():
    fields = field_catalogue(seed=0)
    assert len(fields) >= 20
    names = [f.name for f in fields]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("maker", [
    lambda: PolynomialField({(4, 0): 1 / 12, (0, 2): 0.5, (2, 1): 0.1}),
    lambda: torsion_profile_field(3.0),
    lambda: torsion_profile_field(1.5),
    lambda: gaussian_radial_field(0.8, 1.3),
])
def test_analytic_derivatives_match_finite_differences(maker):
    field = maker()
    pts = _sample_points(count=20, rmin=0.4, rmax=1.0, seed=9)
    errs = []
    for step in (1e-3, 5e-4):
        fd_g = np.empty((len(pts), 2))
        fd_h = np.empty((len(pts), 2, 2))
        fd_t = np.empty((len(pts), 2, 2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            fd_g[:, k] = (field.value(pts + e) - field.value(pts - e)) / (2 * step)
            fd_h[:, :, k] = (field.grad(pts + e) - field.grad(pts - e)) / (2 * step)
            fd_t[:, :, :, k] = (field.hess(pts + e) - field.hess(pts - e)) / (2 * step)
        errs.append((
            np.abs(fd_g - field.grad(pts)).max(),
            np.abs(fd_h - field.hess(pts)).max(),
            np.abs(fd_t - field.third(pts)).max(),
        ))
    # central differences: each error is O(step^2), so halving step gains ~4x
    for e_big, e_small in zip(errs[0], errs[1]):
        assert e_small <= e_big / 2.0 + 1e-12
