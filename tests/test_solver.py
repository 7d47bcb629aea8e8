import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plap_lab import (AssemblyError, ConformalMetric, Disk, Ellipse, SolverError,
                      ValidationError, build_mesh, domain_measures, solve)
import scipy.sparse as sp

from plap_lab import _band, _sparse, solver
from plap_lab._sparse import Compressed
from plap_lab.cli import main
from plap_lab.oracles import radial_exact
from plap_lab.solver import _Assembler

from conftest import DOMAINS, METRICS

FLAT = ConformalMetric.flat()


def _scaled(K, s):
    """The program's sparse matrix K times the number s, on K's pattern."""
    return dataclasses.replace(K, data=s * K.data)


def _dense(K):
    """The program's sparse matrix K as a dense array, read from its arrays
    by scipy.sparse."""
    layout = sp.csr_matrix if K.layout == "csr" else sp.csc_matrix
    return layout((K.data, K.indices, K.indptr), shape=K.shape).toarray()


def _disk_error(lab, p, h=0.05):
    sol = lab.solution("disk", p, h=h)
    prof = radial_exact(2, p, 1.0)
    r = np.minimum(np.linalg.norm(sol.mesh.points, axis=1), 1.0)
    return np.abs(sol.u - prof.u(r)).max()


def test_disk_p2_accuracy(lab):
    assert _disk_error(lab, 2.0) <= 1e-3


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_disk_degenerate_accuracy(lab, p):
    assert _disk_error(lab, p) <= 5e-3


@pytest.mark.parametrize("metric", [ConformalMetric.flat(), METRICS["cap"],
                                    ConformalMetric.gaussian_bump(0.3, 0.1, -0.2, 1.1)],
                         ids=["flat", "cap", "bump"])
def test_load_integrates_the_metric_volume_weights(lab, metric):
    # the load is int e^{2 phi} lambda_i and the lambda_i sum to 1
    mesh = lab.mesh("ellipse", 0.1)
    load = _Assembler(mesh, metric, 3.0).load
    assert load.sum() == pytest.approx(domain_measures(mesh, metric).volume, rel=1e-12)


def test_config_validation(lab, monkeypatch):
    with pytest.raises(ValidationError):
        solve(lab.mesh("disk", 0.1), FLAT, 0.9)
    # solve() checks eps0, which it derives from the domain and the metric:
    # e^{2 phi} = e^{800} overflows the volume, so eps0 is inf and the ladder
    # could never reach eps_min
    metric = ConformalMetric.poly([(0, 0, 400.0)])
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="volume is inf"):
        solve(lab.mesh("disk", 0.1), metric, 2.0)
    monkeypatch.setattr(solver, "_EPS0_SCALE", 1e-9)
    with pytest.raises(ValidationError, match="eps_min"):
        solve(lab.mesh("disk", 0.1), FLAT, 2.0)


def test_forced_newton_failure_carries_history(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITER", 1)
    mesh = build_mesh(Ellipse(2.0, 1.0), 0.14)
    with pytest.raises(SolverError) as err:
        solve(mesh, FLAT, 4.0)
    assert len(err.value.history) >= 1


def test_zero_field_residual_is_negated_load(lab):
    mesh = lab.mesh("disk", 0.1)
    u = np.zeros(mesh.n_vertices)
    asm = _Assembler(mesh, ConformalMetric.flat(), 2.0)
    assert asm.energy(asm.iterate(u, 0.1)) == 0.0
    assert np.allclose(asm.residual(asm.iterate(u, 0.1)), -asm.load)
    # p = 2: the tangent does not depend on eps at all
    K1, K2 = asm.tangent(asm.iterate(u, 0.1)), asm.tangent(asm.iterate(u, 17.3))
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K1, a), getattr(K2, a))


def test_exact_interpolant_residual_small(lab):
    mesh = lab.mesh("disk", 0.05)
    prof = radial_exact(2, 2.0, 1.0)
    r = np.minimum(np.linalg.norm(mesh.points, axis=1), 1.0)
    asm = _Assembler(mesh, ConformalMetric.flat(), 2.0)
    residual = asm.residual(asm.iterate(prof.u(r), 1e-12))
    nb = asm.nb
    assert np.linalg.norm(residual[nb:]) <= 0.5 * mesh.h * np.linalg.norm(asm.load[nb:]) * 10


@pytest.mark.parametrize("metric", ["flat", "cap"])
@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14), ("annulus", 0.1),
                                      ("star", 0.1)])
def test_tangent_spd(lab, domain, h, metric):
    """The tangent is exactly symmetric: the twin entries (k, l) and (l, k)
    of an element take the same products of its basis gradients, and every
    slot sums its elements in the same order."""
    mesh = lab.mesh(domain, h)
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 0.2, mesh.n_vertices)
    for p in (1.5, 3.0):
        asm = _Assembler(mesh, METRICS[metric], p)
        Kf = _dense(asm.tangent(asm.iterate(u, 1e-3)))
        assert np.array_equal(Kf, Kf.T)
        lam = np.linalg.eigvalsh(Kf)
        assert lam.min() > 0


# sha256 of the free vertices and of indptr, indices and data of the tangent
# at _random_field, eps = 1e-3, in the mesh's vertex order (see
# _tangent_digest); at p = 2 the weight int_T e^{(2-p) phi} is the area for
# every metric, so flat and cap agree.  The disk and ellipse rows were
# recorded before the tangent moved from a minimum-degree order to a reverse
# Cuthill-McKee one and then to the mesh's own numbering, none of which moved
# an entry.  The annulus row was recorded when its mesher began numbering its
# interior in a band; its tangent is the earlier one under that vertex
# permutation, entry for entry.  The star rows were recorded when the stars
# became the mapped disk lattice stretched radially, which moved the mesh
TANGENT_DIGESTS = {
    ("disk", 0.1, "flat", 1.5): "65894fc04c76631f99bc5bf57230b76f917ebace79658d63ee033454599e0be0",
    ("disk", 0.1, "flat", 2.0): "18cf810e6ca40da6c96e7336e574286523130c5f42ac5ce2c16d34e254cf1565",
    ("disk", 0.1, "flat", 4.0): "b82c0deed84bc7fe7775d6be5d6d5a6114be552371329925f90b4b0892444928",
    ("disk", 0.1, "cap", 1.5): "6c666585842d87b98dd19a46e48e37ed273edf5b7ca732de4f28c412530b180d",
    ("disk", 0.1, "cap", 2.0): "18cf810e6ca40da6c96e7336e574286523130c5f42ac5ce2c16d34e254cf1565",
    ("disk", 0.1, "cap", 4.0): "f92bb56d1df0c3f9fb8ba70f956c2192623b9f00d8a3f2080a3ad0b613fb4d56",
    ("ellipse", 0.14, "flat", 1.5): "3896324fe3c2083f3897e21ff715c3af59fbf3c2a0ca3454d80bacfe92dba4dc",
    ("ellipse", 0.14, "flat", 2.0): "0967949823ed2e8b19f796d3a7abbab0f9f7a2c01fc420809ce97d9929a7b085",
    ("ellipse", 0.14, "flat", 4.0): "d79d0f9461d8fe1ba99ba826fcc51c7d45ca3b0e9d3ef23aa29cb80b5dbc15e3",
    ("ellipse", 0.14, "cap", 1.5): "13a17df5b907b0e0a6e124586025eb8e4df0a6c511de9c3556e96d933bfe5ed2",
    ("ellipse", 0.14, "cap", 2.0): "0967949823ed2e8b19f796d3a7abbab0f9f7a2c01fc420809ce97d9929a7b085",
    ("ellipse", 0.14, "cap", 4.0): "78bb10acf86e78f3cf69f1b074caccb02c93c2cb3aad62b3ff736e8ca865acb1",
    ("annulus", 0.1, "flat", 1.5): "8330ba932aa76bfc849446da8c1edadc54da298543fcda842140eeb56cd4533c",
    ("annulus", 0.1, "flat", 2.0): "92b052c2dfcb85afa252660413b0d616452699c51a9f16c86dcba5d311646dc0",
    ("annulus", 0.1, "flat", 4.0): "3e91757fce3a0b13958e5e21c6fa2d2470a2d83e039969b9c63bd48ef24ad1aa",
    ("annulus", 0.1, "cap", 1.5): "e4d50fa4b86346b54e25736e7212dc8c0effdd320289092dc0e49d02066ae43b",
    ("annulus", 0.1, "cap", 2.0): "92b052c2dfcb85afa252660413b0d616452699c51a9f16c86dcba5d311646dc0",
    ("annulus", 0.1, "cap", 4.0): "b317d8e8a87910ebdd8604d897814da5d6f61373c8e98302f71bcf4284ffaebc",
    ("star", 0.1, "flat", 1.5): "d800ce90cb9900cbaac3763a8fe2532345d35776c203fa31259a1dc13538a9f1",
    ("star", 0.1, "flat", 2.0): "77291d030bd9a5eebf69e45e957bdad4be25fa0d21bb28e52b1eb6f6fb94cfb8",
    ("star", 0.1, "flat", 4.0): "e1845b78d037b6dbef251293f023a096a1e1d69d422bc8f46d626f66466b5356",
    ("star", 0.1, "cap", 1.5): "255efca0cdae05e7726182735f2046a419f20f6502d5038c2808a2259c6aca4d",
    ("star", 0.1, "cap", 2.0): "77291d030bd9a5eebf69e45e957bdad4be25fa0d21bb28e52b1eb6f6fb94cfb8",
    ("star", 0.1, "cap", 4.0): "c0acb208a6f777c3ffc399cebcb88372c39185e819ec38920c94e50a457633e2",
}


def _tangent_digest(asm, K):
    free = np.arange(asm.nb, asm.mesh.n_vertices, dtype=np.int64)
    parts = (free, K.indptr.astype(np.int64), K.indices.astype(np.int64), K.data)
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


@pytest.mark.parametrize("domain, h, metric, p", list(TANGENT_DIGESTS))
def test_tangent_matches_recorded_digest(lab, domain, h, metric, p):
    mesh = lab.mesh(domain, h)
    asm = _Assembler(mesh, METRICS[metric], p)
    K = asm.tangent(asm.iterate(_random_field(mesh), 1e-3))
    assert _tangent_digest(asm, K) == TANGENT_DIGESTS[domain, h, metric, p]


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14), ("annulus", 0.1),
                                      ("star", 0.1)])
@pytest.mark.parametrize("metric", [FLAT, METRICS["cap"],
                                    ConformalMetric.gaussian_bump(0.3, 0.1, -0.2, 1.1)],
                         ids=["flat", "cap", "bump"])
def test_stiffness_is_the_p2_tangent(lab, domain, h, metric):
    # every solve starts from the stiffness's factor, and a p = 2 solve uses
    # it as its tangent: e^{(2-p) phi} = 1 there, whatever u, eps and phi
    mesh = lab.mesh(domain, h)
    rng = np.random.default_rng(5)
    asm = _Assembler(mesh, metric, 2.0)
    K, lu = asm.stiffness()
    T = asm.tangent(asm.iterate(rng.normal(size=mesh.n_vertices), rng.uniform(1e-8, 1.0)))
    for a in ("indptr", "indices", "data"):
        assert getattr(K, a).tobytes() == getattr(T, a).tobytes()
    assert asm.stiffness()[1] is lu
    b = rng.normal(size=mesh.n_vertices - asm.nb)
    assert np.abs(K @ lu.solve(b) - b).max() <= 1e-12 * np.abs(b).max()


def _reference_gradients(mesh, u):
    """The element gradients, summed element by element."""
    return np.einsum("mki,mk->mi", mesh.basis_grads, u[mesh.triangles])


def _reference_tangent(asm, u, eps):
    """The tangent from per-element 3 x 3 blocks, summed by scipy from COO,
    then sliced to the free vertices, which come after the boundary."""
    g = _reference_gradients(asm.mesh, u)
    denom = eps * eps + np.einsum("mi,mi->m", g, g)
    gstar = denom ** ((asm.p - 2.0) / 2.0)
    outer = g[:, :, None] * g[:, None, :]
    coeff = gstar[:, None, None] * (np.eye(2) + (asm.p - 2.0) * outer / denom[:, None, None])
    bg = asm.mesh.basis_grads
    blocks = np.einsum("mki,mij,mlj->mkl", bg, asm.w_grad[:, None, None] * coeff, bg)
    tri = asm.mesh.triangles
    rows, cols = np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel()
    n = asm.mesh.n_vertices
    K = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K[asm.nb:, asm.nb:]


def _reference_residual(asm, u, eps):
    """The residual, each element's flux scattered to its vertices in turn."""
    g = _reference_gradients(asm.mesh, u)
    gstar = (eps * eps + np.einsum("mi,mi->m", g, g)) ** ((asm.p - 2.0) / 2.0)
    flux = (asm.w_grad * gstar)[:, None] * g
    contrib = np.einsum("mki,mi->mk", asm.mesh.basis_grads, flux)
    r = -asm.load.copy()
    np.add.at(r, asm.mesh.triangles.ravel(), contrib.ravel())
    return r


def _reference_energy(asm, u, eps):
    g = _reference_gradients(asm.mesh, u)
    dens = ((eps * eps + np.einsum("mi,mi->m", g, g)) ** (asm.p / 2.0) - eps**asm.p) / asm.p
    return float(np.sum(asm.w_grad * dens) - asm.load @ u)


def _random_field(mesh):
    u = np.random.default_rng(11).uniform(0, 0.2, mesh.n_vertices)
    u[mesh.boundary_vertices] = 0.0
    return u


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14)])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_ordered_tangent_and_direction(lab, domain, h, p):
    mesh = lab.mesh(domain, h)
    u = _random_field(mesh)
    # the cap metric weighs each element's gradient term unevenly
    for metric in ("flat", "cap"):
        asm = _Assembler(mesh, METRICS[metric], p)
        K = asm.tangent(asm.iterate(u, 1e-3))
        ref = _reference_tangent(asm, u, 1e-3).toarray()
        Kd = _dense(K)
        assert np.abs(Kd - ref).max() <= 1e-14 * np.abs(ref).max()
        # the Newton direction agrees with a dense solve
        b = -asm.residual(asm.iterate(u, 1e-3))[asm.nb:]
        d = solver._factor(K).solve(b)
        d_ref = np.linalg.solve(Kd, b)
        assert np.abs(d - d_ref).max() <= 1e-10 * np.abs(d_ref).max()


# the half-width of each mesh's band in its own vertex numbering.  The star
# is numbered by lattice rows, as the disk is; its longer rim gives its patch
# B = 11 short-side edges against the disk's 10
BAND_HALF_WIDTHS = {("disk", 0.1): 19, ("ellipse", 0.05): 37, ("annulus", 0.1): 15,
                    ("star", 0.1): 21}


@pytest.mark.parametrize("domain, h", list(BAND_HALF_WIDTHS))
def test_the_tangent_is_factored_in_the_vertex_order(lab, domain, h):
    """Unknown i of the tangent is vertex nb + i: its CSC layout is the
    pattern of the unit-weight stiffness on the interior vertices in the
    mesh's numbering, whose half-width kd the band factor stores; the slot
    map is a canonical CSR, as built from COO triplets, and sends C_t = I to
    that stiffness."""
    mesh = lab.mesh(domain, h)
    _, slots, indptr, indices = solver._assembly_maps(mesh)
    nb, tri, bg = len(mesh.boundary_vertices), mesh.triangles, mesh.basis_grads
    blocks = np.einsum("mki,mli->mkl", bg, bg)
    n = mesh.n_vertices
    lap = sp.coo_matrix((blocks.ravel(), (np.repeat(tri, 3, axis=1).ravel(),
                                          np.tile(tri, (1, 3)).ravel())),
                        shape=(n, n)).tocsc()[nb:, nb:]
    lap.sort_indices()
    assert np.array_equal(indptr, lap.indptr)
    assert np.array_equal(indices, lap.indices)
    cols = np.repeat(np.arange(n - nb), np.diff(indptr))
    kd = BAND_HALF_WIDTHS[domain, h]
    assert np.abs(cols - indices).max() == kd
    assert solver._factor(lap).kd == kd
    m = mesh.n_triangles
    assert slots.shape == (len(indices), 3 * m)
    rows = np.repeat(np.arange(slots.shape[0]), np.diff(slots.indptr))
    canonical = sp.csr_matrix((slots.data, (rows, slots.indices)), shape=slots.shape)
    for a, b in ((slots.data, canonical.data), (slots.indices, canonical.indices),
                 (slots.indptr, canonical.indptr)):
        assert np.array_equal(a, b)
    unit = slots @ np.tile([1.0, 0.0, 1.0], m)
    assert np.abs(unit - lap.data).max() <= 1e-14 * np.abs(lap.data).max()


def test_a_mesh_with_its_boundary_numbered_later_is_rejected(lab):
    """The tangent's unknowns are the vertices after the boundary, so the
    assembly refuses a mesh whose boundary vertices are not 0 to nb - 1."""
    mesh = lab.mesh("disk", 0.1)
    shifted = dataclasses.replace(mesh, boundary_loops=[mesh.boundary_loops[0] + 1])
    with pytest.raises(ValidationError, match="numbered first"):
        _Assembler(shifted, FLAT, 3.0)


@pytest.mark.parametrize("metric", ["flat", "cap"])
@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_residual_and_energy_match_element_loops(lab, domain, h, p, metric):
    mesh = lab.mesh(domain, h)
    u = _random_field(mesh)
    asm = _Assembler(mesh, METRICS[metric], p)
    for eps in (1e-3, solver._EPS_MIN):
        ref = _reference_residual(asm, u, eps)
        assert np.abs(asm.residual(asm.iterate(u, eps)) - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = _reference_energy(asm, u, eps)
        assert abs(asm.energy(asm.iterate(u, eps)) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14)])
def test_non_finite_assembly_names_the_first_element(lab, domain, h):
    # NaN at one interior vertex spoils every triangle around it; the error
    # names the lowest-index one
    mesh = lab.mesh(domain, h)
    asm = _Assembler(mesh, ConformalMetric.flat(), 3.0)
    u = _random_field(mesh)
    vertex = mesh.n_vertices - 1
    u[vertex] = np.nan
    first = int(np.flatnonzero((mesh.triangles == vertex).any(axis=1))[0])
    for assemble in (asm.residual, asm.tangent):
        with pytest.raises(AssemblyError) as err:
            assemble(asm.iterate(u, 1e-3))
        assert err.value.element == first


def test_singular_tangent_is_a_solver_error(tmp_path, monkeypatch):
    tangent = _Assembler.tangent
    monkeypatch.setattr(_Assembler, "tangent", lambda self, x: _scaled(tangent(self, x), 0))
    mesh = build_mesh(Disk(1.0), 0.2)
    with pytest.raises(SolverError) as err:
        solve(mesh, FLAT, 3.0)
    assert len(err.value.history) >= 1
    cfg = tmp_path / "config.json"
    cfg.write_text('{"command": "verify", "domain": {"variant": "disk"}, "p": [3.0], "h": [0.2]}')
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_indefinite_tangent_is_a_solver_error(monkeypatch):
    # -K_0 breaks PCG down at once, and its band Cholesky stops at the first
    # pivot, which is negative
    monkeypatch.setattr(_Assembler, "tangent", lambda self, x: _scaled(self.stiffness()[0], -1))
    with pytest.raises(SolverError, match="tangent factorization failed") as err:
        solve(build_mesh(Disk(1.0), 0.2), FLAT, 3.0)
    assert len(err.value.history) == 1


def test_solve_bits_do_not_depend_on_the_blas_threads():
    # the band factors run in BLAS, which may split their work across
    # threads: LAPACK factors the band in blocks on the disk at h = 0.025
    # (kd = 83) and column by column on the 2:1 ellipse at h = 0.035
    # (kd = 55).  The mesh map factors too, so its points are hashed as well
    code = ("import hashlib; from plap_lab import ConformalMetric, Disk, Ellipse, build_mesh, "
            "solve\n"
            "for spec, h in ((Disk(1.0), 0.1), (Disk(1.0), 0.025), (Ellipse(2.0, 1.0), 0.035)):\n"
            "    mesh = build_mesh(spec, h)\n"
            "    u = solve(mesh, ConformalMetric.flat(), 3.0).u\n"
            "    print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in (mesh.points, u)))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 6 and digests[0] == digests[1]


def test_the_band_factor_runs_on_one_thread_and_restores_the_setting(lab, monkeypatch):
    """scipy's OpenBLAS is found, so no factorization falls back to the
    library's threads unnoticed; ``dpbtrf`` runs on one thread, and the
    calling thread's setting reads back what it was after a factorization
    and after one that raises."""
    setter = _band._local_threads()
    assert setter is not None

    def local() -> int:
        """The calling thread's OpenBLAS thread count, read by setting it."""
        value = setter(1)
        setter(value)
        return value

    flapack = _band._flapack()
    seen, dpbtrf = [], flapack.dpbtrf
    monkeypatch.setattr(flapack, "dpbtrf", lambda *a, **k: seen.append(local()) or dpbtrf(*a, **k))
    K0 = _Assembler(lab.mesh("disk", 0.1), FLAT, 3.0).stiffness()[0]
    before = setter(3)
    try:
        solver._factor(K0)
        assert local() == 3
        # -K_0's band Cholesky stops at its first pivot, inside the scope
        monkeypatch.setattr(_Assembler, "tangent", lambda self, x: _scaled(self.stiffness()[0], -1))
        with pytest.raises(SolverError, match="tangent factorization failed"):
            solve(build_mesh(Disk(1.0), 0.2), FLAT, 3.0)
        assert local() == 3
    finally:
        setter(before)
    assert set(seen) == {1}


def _p3_tangent(lab, domain, h):
    """The p = 3 tangent at the bubble 1 - (x/a)^2 - (y/b)^2 of the mesh's
    disk or ellipse, with its upper band in LAPACK's storage."""
    mesh = lab.mesh(domain, h)
    a, b = (2.0, 1.0) if domain == "ellipse" else (1.0, 1.0)
    x, y = mesh.points.T
    asm = _Assembler(mesh, FLAT, 3.0)
    K = asm.tangent(asm.iterate(1.0 - (x / a) ** 2 - (y / b) ** 2, 1e-6))
    n = K.shape[0]
    cols = np.repeat(np.arange(n), np.diff(K.indptr))
    upper = K.indices <= cols
    kd = int((cols - K.indices)[upper].max())
    band = np.zeros((kd + 1, n), order="F")
    band[kd + K.indices[upper] - cols[upper], cols[upper]] = K.data[upper]
    return K, band


@pytest.mark.parametrize("order", ["_flapack first", "scipy.linalg first", "fallback"])
@pytest.mark.parametrize("domain, h", [("disk", 0.025), ("ellipse", 0.035)])
def test_the_band_routines_give_scipy_lapacks_bits(lab, monkeypatch, tmp_path, domain, h, order):
    """The factor and its solves, of one right-hand side and of two (as the
    mesh map solves x and y together), equal scipy.linalg.lapack's bit for
    bit, however ``_flapack`` is found: loaded from its file (this process
    has imported scipy.linalg, so its module is hidden from sys.modules
    first), taken from sys.modules where scipy.linalg has imported it, or
    imported through scipy.linalg where its file is not found."""
    import scipy.linalg
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    name = "scipy.linalg._flapack"
    held = sys.modules[name]
    # an import through scipy.linalg binds the module it makes there
    monkeypatch.setattr(scipy.linalg, "_flapack", held)
    if order != "scipy.linalg first":
        monkeypatch.delitem(sys.modules, name)
    if order == "fallback":
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    _sparse.scipy_extension.cache_clear()
    try:
        flapack = _band._flapack()
        assert (flapack is held) == (order == "scipy.linalg first")
        assert flapack.dpbtrf is held.dpbtrf and flapack.dpbtrs is held.dpbtrs
        K, band = _p3_tangent(lab, domain, h)
        factor = solver._factor(K)
        ref, info = dpbtrf(band)
        assert info == 0 and factor.kd == len(band) - 1
        assert np.array_equal(factor.band, ref)
        rng = np.random.default_rng(7)
        for b in (rng.normal(size=K.shape[0]), rng.normal(size=(K.shape[0], 2))):
            x = factor.solve(b)
            assert x.shape == b.shape and np.array_equal(x, dpbtrs(ref, b)[0])
    finally:
        _sparse.scipy_extension.cache_clear()


def test_a_nonzero_lapack_info_raises(lab):
    """A matrix that is not positive definite gives ``dpbtrf`` an info > 0,
    which the factorization raises."""
    K, _ = _p3_tangent(lab, "disk", 0.1)
    with pytest.raises(RuntimeError, match="the leading minor of order 1 is not positive definite"):
        solver._factor(_scaled(K, -1))


@pytest.mark.parametrize("domain, h", [k for k in BAND_HALF_WIDTHS if k[0] in ("disk", "ellipse")])
def test_the_mesh_map_is_one_band_solve_no_wider_than_the_tangent(monkeypatch, domain, h):
    """The mapped meshes' interior Laplacian and the tangent are factored in
    the same numbering, the lattice's, and have the same band half-width;
    each interior point is the mean of its neighbours."""
    from plap_lab import geometry

    kds, cholesky = [], geometry.band_cholesky

    def recorded(*args):
        factor = cholesky(*args)
        kds.append(factor.kd)
        return factor

    monkeypatch.setattr(geometry, "band_cholesky", recorded)
    mesh = build_mesh(DOMAINS[domain], h)
    kd = BAND_HALF_WIDTHS[domain, h]
    assert kds and set(kds) == {kd}
    assert _Assembler(mesh, FLAT, 2.0).stiffness()[1].kd == kd
    tri, n = mesh.triangles, mesh.n_vertices
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    adj = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    adj = ((adj + adj.T) > 0).astype(float)
    inner = np.setdiff1d(np.arange(n), mesh.boundary_vertices)
    means = (adj @ mesh.points)[inner] / np.asarray(adj.sum(axis=1))[inner]
    assert np.abs(means - mesh.points[inner]).max() <= 1e-13 * np.abs(mesh.points).max()


def test_rung_records_and_solve_count(lab, monkeypatch):
    # pins the numbers of steps, solves, factorizations and PCG iterations,
    # so a change cannot add some unnoticed
    mesh = lab.mesh("disk", 0.05)
    _Assembler(mesh, FLAT, 3.0).stiffness()     # built once per mesh, before the counts
    calls, factors, tangents = [], [], []
    spsolve, factor, tangent = solver.spsolve, solver._factor, _Assembler.tangent
    monkeypatch.setattr(solver, "spsolve", lambda held, K, b, scale: (
        calls.append(1) or spsolve(held, K, b, scale)))
    monkeypatch.setattr(solver, "_factor", lambda K: factors.append(1) or factor(K))
    monkeypatch.setattr(_Assembler, "tangent",
                        lambda self, x: tangents.append(1) or tangent(self, x))
    sol = solve(mesh, FLAT, 3.0)
    # a rung above eps_min ends after a full step from a small decrement; the
    # ladder ends after the first rung that takes no step
    assert [s.iterations for s in sol.steps] == [5, 2, 1, 1, 0]
    # one solve per step, and one on the last rung, which takes no step.  The
    # stiffness's factor preconditions the first rung, and the PCG of more
    # than _CG_REFACTOR iterations that ends it sends the second to a fresh one
    assert len(calls) == sum(s.iterations for s in sol.steps) + 1 == 10
    assert [s.factorizations for s in sol.steps] == [0, 1, 0, 0, 0]
    assert len(factors) == 1
    assert [s.cg_iterations for s in sol.steps] == [26, 3, 3, 4, 5]
    assert sol.final_eps == sol.steps[-1].eps > solver._EPS_MIN
    # p = 2 is linear: one step, one solve to confirm it, one to end the
    # ladder; its tangent is the mesh's stiffness, so it assembles no
    # tangent, and only the first solve on a mesh factors it
    mesh = build_mesh(Disk(1.0), 0.2)
    for factored in (1, 0):
        calls.clear()
        factors.clear()
        tangents.clear()
        sol = solve(mesh, FLAT, 2.0)
        assert [s.iterations for s in sol.steps] == [1, 0]
        assert len(calls) == 3
        assert len(factors) == factored
        assert not tangents
        assert [s.factorizations for s in sol.steps] == [0, 0]
        assert [s.cg_iterations for s in sol.steps] == [0, 0]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_each_iterate_forms_its_element_gradients_once(lab, monkeypatch, p):
    """One element-gradient product per line-search trial and one for u = 0:
    `iterate` alone forms them, and the accepted trial's iterate feeds the
    next residual, the next tangent and the next rung's starting energy."""
    mesh = lab.mesh("disk", 0.05)
    products, energies = [], []
    iterate, energy = _Assembler.iterate, _Assembler.energy
    monkeypatch.setattr(_Assembler, "iterate",
                        lambda self, u, eps: products.append(1) or iterate(self, u, eps))
    monkeypatch.setattr(_Assembler, "energy",
                        lambda self, x: energies.append(1) or energy(self, x))
    sol = solve(mesh, METRICS["cap"], p)
    # every rung starts with its energy; every other energy is a trial's
    trials = len(energies) - len(sol.steps)
    assert trials >= sum(s.iterations for s in sol.steps) > 0
    assert len(products) == trials + 1


def test_solve_does_not_depend_on_the_solve_before_it(lab):
    # a solve's held factor starts from its mesh's stiffness, a function of
    # the mesh alone, so a solve gives the same bits whichever solve built
    # that stiffness and whatever ran between them
    first, second = build_mesh(Disk(1.0), 0.1), build_mesh(Disk(1.0), 0.1)
    flat_p3 = solve(first, FLAT, 3.0).u
    cap_p2 = solve(second, METRICS["cap"], 2.0).u     # builds second's stiffness
    solve(lab.mesh("ellipse", 0.14), FLAT, 4.0)
    assert np.array_equal(solve(second, FLAT, 3.0).u, flat_p3)
    assert np.array_equal(solve(first, METRICS["cap"], 2.0).u, cap_p2)


@pytest.mark.parametrize("metric", ["flat", "cap"])
@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14)])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_inexact_directions_give_the_exact_newton_answer(lab, monkeypatch, p, domain, h, metric):
    # PCG stops each direction at the accuracy its decrement needs; with no
    # PCG iteration allowed, every direction comes from a fresh factor
    sol = lab.solution(domain, p, h=h, metric=metric)
    monkeypatch.setattr(solver, "_CG_MAX_ITER", 0)
    exact = solve(sol.mesh, sol.metric, p)
    assert sol.final_eps == exact.final_eps
    assert np.abs(sol.u - exact.u).max() <= 1e-11 * np.abs(exact.u).max()


@pytest.mark.parametrize("p, metric", [
    pytest.param(p, metric, id=str(p) if metric == "flat" else f"{p}-{metric}")
    for metric in ("flat", "cap") for p in (1.5, 3.0, 4.0)])
def test_pcg_never_reaches_its_cap(lab, monkeypatch, p, metric):
    # far from the solution a direction needs little accuracy, so the held
    # factor, the stiffness's at first, serves it without a PCG run that is
    # thrown away
    runs = []
    pcg = solver._pcg
    monkeypatch.setattr(solver, "_pcg", lambda *args: runs.append(pcg(*args)) or runs[-1])
    solve(lab.mesh("disk", 0.05), METRICS[metric], p)
    assert runs
    assert all(x is not None and its < solver._CG_MAX_ITER for x, its in runs)


def test_pcg_breakdown_is_not_convergence():
    # d.K d = 0 on a zero matrix: PCG stops at once with no solution, and
    # the solve factors the tangent instead (a SolverError if singular)
    zero = Compressed("csc", np.zeros(0), np.zeros(0, dtype=np.int32),
                      np.zeros(5, dtype=np.int32), (4, 4))
    x, its = solver._pcg(zero, np.ones(4), lambda r: r.copy(), 1.0)
    assert x is None and its == 0


@pytest.mark.parametrize("metric", ["flat", "cap"])
@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14), ("annulus", 0.1),
                                       ("three_lobes", 0.1)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_early_ladder_end_is_converged_at_eps_min(lab, p, domain, h, metric):
    # the rungs the ladder skips would stop at once: at eps_min the exact
    # Newton decrement of the returned u, from a fresh factor of its tangent,
    # is already at the energy's rounding level, although the rung that ended
    # the ladder may have taken its decrement from PCG
    sol = lab.solution(domain, p, h=h, metric=metric)
    asm = _Assembler(sol.mesh, sol.metric, p)
    x = asm.iterate(sol.u, solver._EPS_MIN)
    r = asm.residual(x)
    d = solver._factor(asm.tangent(x)).solve(-r[asm.nb:])
    lam2 = -float(r[asm.nb:] @ d)
    assert lam2 <= 1e-15 * (1.0 + abs(asm.energy(x)))


def test_line_search_stagnation_is_a_solver_error(tmp_path, monkeypatch):
    # a flat energy never meets the Armijo condition along a descent direction
    monkeypatch.setattr(_Assembler, "energy", lambda self, x: 0.0)
    mesh = build_mesh(Disk(1.0), 0.2)
    with pytest.raises(SolverError, match="line search stagnated") as err:
        solve(mesh, FLAT, 3.0)
    assert len(err.value.history) >= 1
    cfg = tmp_path / "config.json"
    cfg.write_text('{"command": "verify", "domain": {"variant": "disk"}, "p": [3.0], "h": [0.2]}')
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_regularized_flux_eigenvalue_bound():
    from plap_lab.solver import _Iterate, _sq_norm

    rng = np.random.default_rng(7)
    grads = rng.normal(0, 1.0, (200, 2))
    for p in (1.2, 2.0, 3.5):
        for eps in (1e-8, 1e-2, 1.0):
            c = _Iterate(None, grads, _sq_norm(grads), p, eps).flux_coeff()
            lam = np.linalg.eigvalsh(c[:, [0, 1, 1, 2]].reshape(-1, 2, 2))
            gstar = (eps * eps + np.einsum("mi,mi->m", grads, grads)) ** ((p - 2.0) / 2.0)
            floor = gstar * min(1.0, p - 1.0)
            assert (lam[:, 0] >= floor * (1 - 1e-12)).all()
            assert (lam[:, 0] > 0).all()


def test_energy_monotone_along_continuation(lab):
    sol = lab.solution("disk", 3.0)
    energies = [s.energy for s in sol.steps]
    # warm starts make each rung's final energy no larger than the previous
    assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))


def test_eps_inert_for_p2(lab, monkeypatch):
    mesh = lab.mesh("disk", 0.1)
    # the gradient scale of the unit disk at p = 2 is about 1/2, so eps0 is
    # about 0.3 and then 1e-6
    monkeypatch.setattr(solver, "_EPS0_SCALE", 0.6)
    a = solve(mesh, FLAT, 2.0)
    monkeypatch.setattr(solver, "_EPS0_SCALE", 2e-6)
    b = solve(mesh, FLAT, 2.0)
    assert np.abs(a.u - b.u).max() <= 1e-13


def test_solution_boundary_and_positivity(lab):
    for p in (1.5, 2.0, 3.0, 4.0):
        sol = lab.solution("disk", p)
        assert np.all(sol.u[sol.mesh.boundary_vertices] == 0.0)
        assert sol.diagnostics["positive_interior"]
        assert sol.diagnostics["max_u"] == pytest.approx(radial_exact(2, p, 1.0).u(0.0), rel=0.02)


def test_solution_symmetry_on_symmetric_mesh(lab):
    # the disk mesh is symmetric under y -> -y; the solve must be too
    sol = lab.solution("disk", 2.0)
    mesh = sol.mesh
    from scipy.spatial import cKDTree

    tree = cKDTree(mesh.points)
    mirrored = mesh.points * np.array([1.0, -1.0])
    dist, idx = tree.query(mirrored)
    assert dist.max() <= 1e-9
    assert np.abs(sol.u - sol.u[idx]).max() <= 1e-9


def test_flux_balance_from_solver_trace(lab):
    # boundary p-flux integrates to -|Omega| within 1%
    case = lab.case("disk", 3.0)
    assert case.report.sections["flux"]["rel_residual"] <= 0.01


def test_conformal_solve_runs(lab):
    sol = lab.solution("disk", 2.0, metric="cap")
    assert sol.diagnostics["positive_interior"]
    assert np.all(sol.u[sol.mesh.boundary_vertices] == 0.0)
