import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import ks_2samp

from plap_lab import (PreconditionError, ValidationError,
                      ellipse_boundary_integrals, matrix_inequality_gap,
                      matrix_inequality_sweep, p_ball_constant, radial_exact,
                      radial_fd_solve)
from plap_lab import oracles


# ----------------------------------------------------------------- radial

def test_radial_exact_center_values():
    assert radial_exact(2, 2.0, 1.0).u(0.0) == pytest.approx(0.25)
    assert radial_exact(3, 2.0, 1.0).u(0.0) == pytest.approx(1 / 6)
    prof = radial_exact(2, 3.0, 1.0)
    assert prof.u(0.0) == pytest.approx(2 / (3 * np.sqrt(2)))
    assert prof.du(1.0) == pytest.approx(-1 / np.sqrt(2))


def test_radial_boundary_derivative_formula():
    # u'(R) = -(R/n)^{1/(p-1)}
    for n, p, R in [(2, 1.5, 1.0), (2, 4.0, 2.0), (4, 2.5, 0.7)]:
        prof = radial_exact(n, p, R)
        assert prof.du(R) == pytest.approx(-((R / n) ** (1 / (p - 1))), rel=1e-12)
        assert prof.u(R) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), p=st.floats(1.1, 6.0), R=st.floats(0.3, 3.0))
def test_radial_profile_satisfies_ode(n, p, R):
    prof = radial_exact(n, p, R)
    r = np.linspace(R / 1000, R, 1000)
    assert np.abs(prof.ode_residual(r)).max() <= 1e-10


def test_p_ball_constant_values():
    assert p_ball_constant(2, 2.0, 1.0) == pytest.approx(0.125)
    assert p_ball_constant(2, 3.0, 1.0) == pytest.approx(0.23570226039551584)
    assert p_ball_constant(2, 2.0, 1e-8) < 1e-15


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), p=st.floats(1.2, 5.0), R=st.floats(0.5, 2.0),
       frac=st.floats(0.01, 0.999))
def test_p_function_constant_along_radius(n, p, R, frac):
    # ((p-1)/p)|u'|^p + u/n is the same at every radius of the exact profile
    prof = radial_exact(n, p, R)
    r = frac * R
    value = (p - 1) / p * np.abs(prof.du(r)) ** p + prof.u(r) / n
    assert value == pytest.approx(p_ball_constant(n, p, R), rel=1e-12)


def test_radial_fd_matches_exact():
    for n, p in [(2, 2.0), (3, 4.0), (2, 1.5)]:
        fd = radial_fd_solve(n, p, 1.0, 10_000)
        exact = radial_exact(n, p, 1.0)
        r = np.linspace(0, 1, 500)
        assert np.abs(fd.u(r) - exact.u(r)).max() <= 1e-6


def test_radial_fd_boundary_slope_p15():
    fd = radial_fd_solve(2, 1.5, 1.0, 10_000)
    # u'(R) = -(R/n)^{1/(p-1)} = -(1/2)^2
    assert fd.du(1.0) == pytest.approx(-0.25, abs=1e-5)


def test_radial_fd_grid_precondition():
    with pytest.raises(PreconditionError):
        radial_fd_solve(2, 2.0, 1.0, 50)


# ----------------------------------------------------------------- ellipse

def test_ellipse_integrals_circle_degenerates():
    ei = ellipse_boundary_integrals(1.0, 1.0)
    assert ei.volume == pytest.approx(np.pi)
    assert ei.perimeter == pytest.approx(2 * np.pi)
    assert ei.inv_curvature_integral == pytest.approx(2 * np.pi)


def test_ellipse_integrals_two_one():
    ei = ellipse_boundary_integrals(2.0, 1.0)
    # int 1/H ds = (1/(ab)) ((3 pi/4)(a^4 + b^4) + (pi/2) a^2 b^2) = 7.375 pi
    assert ei.inv_curvature_integral == pytest.approx(7.375 * np.pi, rel=1e-10)
    assert ei.inv_curvature_integral >= 2 * ei.volume  # Heintze-Karcher
    assert ei.perimeter == pytest.approx(9.688448220547677, abs=1e-6)


@pytest.mark.parametrize("a, b, perimeter, inv_h", [
    # recorded from scipy.integrate.quad (limit=200) of speed and speed^4/(ab)
    (2.0, 1.0, 9.688448220547677, 23.169245820224727),
    (1.0, 1.0, 6.283185307179586, 6.283185307179586),
    (3.0, 0.5, 12.450039795015162, 129.68887173100367),
])
def test_ellipse_integrals_match_adaptive_quadrature(a, b, perimeter, inv_h):
    ei = ellipse_boundary_integrals(a, b)
    assert ei.perimeter == pytest.approx(perimeter, rel=2e-15, abs=0)
    assert ei.inv_curvature_integral == pytest.approx(inv_h, rel=2e-15, abs=0)


def test_ellipse_integrals_validation():
    with pytest.raises(ValidationError):
        ellipse_boundary_integrals(1.0, 2.0)


# ------------------------------------------------------ matrix inequality

def test_matrix_gap_hand_witnesses():
    # n=2, p=2, H=diag(1,2), g=e1: both sides equal 7
    gap = matrix_inequality_gap(2, 2.0, np.diag([1.0, 2.0]), np.array([1.0, 0.0]))
    assert abs(gap) <= 1e-12
    # n=3, p=2, H=diag(1,1,2), g=e1: LHS 8, RHS 7.5
    gap = matrix_inequality_gap(3, 2.0, np.diag([1.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.0]))
    assert gap == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 5.5])
def test_matrix_gap_identity_hessian(p):
    gap = matrix_inequality_gap(2, p, np.eye(2), np.array([1.0, 0.0]))
    assert abs(gap) <= 1e-12


def test_matrix_gap_preconditions():
    with pytest.raises(PreconditionError):
        matrix_inequality_gap(2, 2.0, np.eye(2), np.zeros(2))
    with pytest.raises(PreconditionError):
        matrix_inequality_gap(7, 2.0, np.eye(7), np.ones(7))
    with pytest.raises(PreconditionError):
        matrix_inequality_gap(2, 0.9, np.eye(2), np.ones(2))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 6),
    p=st.floats(1.05, 6.0),
    data=st.data(),
)
def test_matrix_gap_nonnegative_property(n, p, data):
    h = data.draw(arrays(float, (n, n), elements=st.floats(-3, 3)))
    g = data.draw(arrays(float, (n,), elements=st.floats(-2, 2)))
    if np.linalg.norm(g) < 1e-6:
        g = np.eye(n)[0]
    g = g / np.linalg.norm(g)
    assert matrix_inequality_gap(n, p, h, g) >= -1e-12


def _dense_gaps(n, p, hess, gvec):
    """Both gaps for batched symmetric H (k,n,n), unit g (k,n), p (k,), by
    dense contraction; the reference for the per-entry kernel."""
    A = np.einsum("ki,kij,kj->k", gvec, hess, gvec)
    hf2 = np.einsum("kij,kij->k", hess, hess)
    hg = np.einsum("kij,kj->ki", hess, gvec)
    hg2 = np.einsum("ki,ki->k", hg, hg)
    tr = np.einsum("kii->k", hess)
    dp = tr + (p - 2.0) * A
    rhs_core = dp**2 / n + n / (n - 1.0) * (dp / n - (p - 1.0) * A) ** 2
    gap = hf2 + (p**2 - 2.0 * p + 2.0) * A**2 - rhs_core - 2.0 * hg2
    gap_loose = hf2 + p * (p - 2.0) * A**2 - rhs_core
    return gap, gap_loose, hf2 + A**2 + hg2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gap_kernel_matches_dense_reference(n):
    rng = np.random.default_rng(100 + n)
    k = 2000
    p = rng.uniform(1.05, 6.0, size=k)
    b = rng.standard_normal((k, n, n)) * rng.uniform(0.1, 10.0, size=(k, 1, 1))
    hess = 0.5 * (b + np.swapaxes(b, 1, 2))
    e1 = np.broadcast_to(np.eye(n)[0], (k, n))
    gap, loose, size = _dense_gaps(n, p, hess, e1)
    rows, cols = np.triu_indices(n)
    new_gap, new_loose = oracles._gaps(n, p, hess[:, rows, cols].T)
    assert np.all(np.abs(new_gap - gap) <= 1e-12 * size)
    assert np.all(np.abs(new_loose - loose) <= 1e-12 * size)
    # the scalar oracle symmetrizes H and reflects g of any nonzero length
    # onto e_1 before it calls the same kernel
    for i in range(20):
        h = rng.standard_normal((n, n))
        gv = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
        gn = np.linalg.norm(gv)
        hs = 0.5 * (h + h.T)
        ref, _, ref_size = _dense_gaps(n, p[i:i + 1], hs[None], (gv / gn)[None])
        scale = gn ** (2.0 * (p[i] - 2.0))
        assert abs(matrix_inequality_gap(n, p[i], h, gv) - scale * ref[0]) \
            <= 1e-12 * scale * ref_size[0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweep_at_e1_has_the_law_of_uniform_gradients(n):
    # H = (B + B^T)/2 has a rotation-invariant law and the gap is invariant
    # under (H, g) -> (Q H Q^T, Q g), so the sweep's gaps at g = e_1 and the
    # dense reference's gaps at g uniform on the sphere share one law.  The
    # bound is the two-sample KS critical value at level about 1e-3.  In the
    # plane gap is 0 up to rounding, so only gap_loose is compared there.
    k, p_range = 100_000, (1.1, 6.0)
    p, z = oracles._draw_shard(np.random.default_rng(40 + n), n, k, p_range,
                               np.empty(n * (n + 1) // 2 * k))
    sweep_gap, sweep_loose = oracles._gaps(n, p, z)
    rng = np.random.default_rng(50 + n)
    p_ref = rng.uniform(*p_range, size=k)
    b = rng.standard_normal((k, n, n))
    g = rng.standard_normal((k, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    ref_gap, ref_loose, _ = _dense_gaps(n, p_ref, 0.5 * (b + np.swapaxes(b, 1, 2)), g)
    bound = 1.95 * np.sqrt(2.0 / k)
    assert ks_2samp(sweep_loose, ref_loose).statistic < bound
    if n > 2:
        assert ks_2samp(sweep_gap, ref_gap).statistic < bound


def test_shard_draw_law():
    # H = (B + B^T)/2 for standard normal B: independent entries, N(0, 1) on
    # the diagonal and N(0, 1/2) off it; p uniform
    n, k, p_range = 4, 200_000, (1.1, 6.0)
    p, z = oracles._draw_shard(np.random.default_rng(3), n, k, p_range,
                               np.empty(n * (n + 1) // 2 * k))
    assert p.shape == (k,) and z.shape == (n * (n + 1) // 2, k)
    rows, cols = np.triu_indices(n)
    var = np.where(rows == cols, 1.0, 0.5)
    # five standard errors: sqrt(2/k) var for a variance, sqrt(var_i var_j / k)
    # for a covariance and sqrt(var_i / k) for a mean
    tol = 5.0 * np.sqrt(np.outer(var, var) / k)
    tol[np.diag_indices_from(tol)] *= np.sqrt(2.0)
    assert np.all(np.abs(np.cov(z) - np.diag(var)) <= tol)
    assert np.all(np.abs(z.mean(axis=1)) <= 5.0 * np.sqrt(var / k))
    assert p.min() >= p_range[0] and p.max() < p_range[1]


def test_sweep_needs_a_sample_per_dimension():
    with pytest.raises(ValidationError):
        matrix_inequality_sweep(samples=2, seed=0, n_values=(2, 3, 4), p_range=(1.1, 6.0))
    assert matrix_inequality_sweep(samples=3, seed=0, n_values=(2, 3, 4),
                                   p_range=(1.1, 6.0)).samples == 3


def test_sweep_small_deterministic(monkeypatch):
    a = matrix_inequality_sweep(samples=20_000, seed=11, n_values=(2, 3, 4), p_range=(1.1, 6.0))
    b = matrix_inequality_sweep(samples=20_000, seed=11, n_values=(2, 3, 4), p_range=(1.1, 6.0))
    assert a.min_gap == b.min_gap
    assert a.min_gap >= -1e-12
    assert a.min_gap_loose >= -1e-12
    assert a.samples == 20_000
    w = a.witness
    # the reported witness reproduces its gap through the scalar oracle
    assert matrix_inequality_gap(w.n, w.p, w.hess, w.gvec) == pytest.approx(w.gap, abs=1e-12)
    # so does every shard minimum, also when each dimension takes several shards
    monkeypatch.setattr(oracles, "_SHARD_SIZE", 3000)
    c = matrix_inequality_sweep(samples=20_000, seed=11, n_values=(2, 3, 4), p_range=(1.1, 6.0))
    budgets = {2: 6666, 3: 6666, 4: 6668}
    for result, size in ((a, 100_000), (c, 3000)):
        assert [s.n for s in result.shard_minima] == [
            n for n, budget in budgets.items() for _ in range(math.ceil(budget / size))]
        assert min(s.gap for s in result.shard_minima) == result.min_gap
        for s in result.shard_minima:
            assert s.hess.shape == (s.n, s.n) and np.array_equal(s.hess, s.hess.T)
            assert np.array_equal(s.gvec, np.eye(s.n)[0])
            assert 1.1 <= s.p < 6.0
            assert (matrix_inequality_gap(s.n, s.p, s.hess, s.gvec)
                    == pytest.approx(s.gap, abs=1e-12))


def _same_sweep(a, b):
    assert (a.samples, a.min_gap, a.min_gap_loose) == (b.samples, b.min_gap, b.min_gap_loose)
    assert len(a.shard_minima) == len(b.shard_minima)
    for s, t in zip(a.shard_minima, b.shard_minima):
        assert (s.n, s.p, s.gap) == (t.n, t.p, t.gap)
        assert np.array_equal(s.hess, t.hess) and np.array_equal(s.gvec, t.gvec)


@pytest.mark.parametrize("shard_size", [oracles._SHARD_SIZE, 3000])
def test_sweep_is_independent_of_worker_count(monkeypatch, shard_size):
    # shards run concurrently, each drawing into its worker's own buffer, and
    # are reduced in shard order; the kernel runs over column blocks with a
    # running argmin.  Neither the worker count nor the block size (one
    # block per shard is one kernel call) may change a bit of the result.
    # Four workers on fewer cores, with a short switch interval, would show
    # two shards sharing a buffer.
    monkeypatch.setattr(oracles, "_SHARD_SIZE", shard_size)
    default_block = oracles._BLOCK

    def sweep(workers, block):
        monkeypatch.setattr(oracles, "_cpus", lambda: workers)
        monkeypatch.setattr(oracles, "_BLOCK", block)
        return matrix_inequality_sweep(samples=60_000, seed=7, n_values=(2, 3, 4),
                                       p_range=(1.1, 6.0))

    reference = sweep(1, shard_size)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, block in ((1, default_block), (4, default_block), (4, 1000)):
            _same_sweep(sweep(workers, block), reference)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2])
def test_threaded_sweep_memory(monkeypatch, workers):
    # four n=4 shards of 100k samples: each worker holds one draw buffer for
    # z and its shard's p, and the blocked kernel's k-vectors are small
    monkeypatch.setattr(oracles, "_cpus", lambda: workers)
    k = 100_000
    shard_bytes = (1 + 10) * k * 8
    tracemalloc.start()
    try:
        matrix_inequality_sweep(samples=4 * k, seed=0, n_values=(4,), p_range=(1.1, 6.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * workers * shard_bytes


def test_one_shard_sweep_memory():
    # one n=4 shard of 100k samples holds p (k) and z (10k) floats; the peak
    # stays within 2.5 times those arrays, which a (k, n, n) stack of H and
    # its dense contractions (about 4.5 times) would exceed
    k = 100_000
    shard_bytes = (1 + 10) * k * 8
    tracemalloc.start()
    try:
        matrix_inequality_sweep(samples=k, seed=0, n_values=(4,), p_range=(1.1, 6.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * shard_bytes
