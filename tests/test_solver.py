import hashlib

import numpy as np
import pytest

from plap_lab import (AssemblyError, ConformalMetric, Disk, Ellipse, SolverError,
                      ValidationError, build_mesh, domain_measures, solve)
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from plap_lab import solver
from plap_lab.cli import main
from plap_lab.oracles import radial_exact
from plap_lab.solver import _Assembler

from conftest import METRICS

FLAT = ConformalMetric.flat()


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
    metric = ConformalMetric.from_json({"kind": "constant", "params": [400.0]})
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
    assert asm.energy(u, 0.1) == 0.0
    assert np.allclose(asm.residual(u, 0.1), -asm.load)
    # p = 2: the tangent does not depend on eps at all
    assert abs(asm.tangent(u, 0.1) - asm.tangent(u, 17.3)).max() == 0.0


def test_exact_interpolant_residual_small(lab):
    mesh = lab.mesh("disk", 0.05)
    prof = radial_exact(2, 2.0, 1.0)
    r = np.minimum(np.linalg.norm(mesh.points, axis=1), 1.0)
    asm = _Assembler(mesh, ConformalMetric.flat(), 2.0)
    residual = asm.residual(prof.u(r), 1e-12)
    free = asm.free
    assert np.linalg.norm(residual[free]) <= 0.5 * mesh.h * np.linalg.norm(asm.load[free]) * 10


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
        Kf = asm.tangent(u, 1e-3).toarray()
        assert np.array_equal(Kf, Kf.T)
        lam = np.linalg.eigvalsh(Kf)
        assert lam.min() > 0


# sha256 of dofs, indptr, indices and data of the tangent at _random_field,
# eps = 1e-3; at p = 2 the weight int_T e^{(2-p) phi} is the area for every
# metric, so flat and cap agree.  Re-recorded when the meshes took their
# triangles in the relaxation's held order instead of Qhull's: dofs, indptr
# and indices stayed equal, and data moved by rounding (at most 3.1e-16 of
# the tangent's Frobenius norm).  The disk and ellipse entries were
# re-recorded when those domains moved to the mapped lattice mesh
TANGENT_DIGESTS = {
    ("disk", 0.1, "flat", 1.5): "45841ecb03e08db6c8df4e8123bbda17168d1b4d8e6002dba7446ebb1cc3a56d",
    ("disk", 0.1, "flat", 2.0): "c3d36e133398cb96afd2fee920265506adc2fc09e9f3631cfb2244dbb0ecd8dd",
    ("disk", 0.1, "flat", 4.0): "43a95d7b3f7e6444b36092f6d843309f8be186a6f912bd2c350666b5c1f51ac8",
    ("disk", 0.1, "cap", 1.5): "a93f6092b16c5a74fe6e1904f6a51a3d87ec3e0047caa8bd4864e3647f67a0ef",
    ("disk", 0.1, "cap", 2.0): "c3d36e133398cb96afd2fee920265506adc2fc09e9f3631cfb2244dbb0ecd8dd",
    ("disk", 0.1, "cap", 4.0): "a7d527d047805cf097f7d0b370ed8069a6e8cd175cd541a43c0ba04f16c75914",
    ("ellipse", 0.14, "flat", 1.5): "49b5de0f1c20cd81bdfef1c51d2d26a4a4356ffa4426e0ebcf023420970db893",
    ("ellipse", 0.14, "flat", 2.0): "dee138e8c6309e1f43524c77a530d127c141c14f2d205d915d7299a8b42eccd3",
    ("ellipse", 0.14, "flat", 4.0): "2430c7e304ac755afa100385a69ce1c7b16f2c7124cf5eaafc9229a0a0b4006e",
    ("ellipse", 0.14, "cap", 1.5): "d0cc6a98356bb675c17ef6d0fe9e9b1ddc57f53992f44f7ac7b1412424c2d9e0",
    ("ellipse", 0.14, "cap", 2.0): "dee138e8c6309e1f43524c77a530d127c141c14f2d205d915d7299a8b42eccd3",
    ("ellipse", 0.14, "cap", 4.0): "9b3d7e5cc5f0ce0b33c4e00ec818c619454c50e1379681584d3ec29eabd020b0",
    ("annulus", 0.1, "flat", 1.5): "8e742a51c5d58fafad40ecf813ed931fb4517f53a47c0cf35e931d2d9757e7cd",
    ("annulus", 0.1, "flat", 2.0): "265918007032eab40f05af5a3dee28cf334c25c9d1893b420babc724adeee6d4",
    ("annulus", 0.1, "flat", 4.0): "e2ea594c8a8b1edd82ede7221fb8a70c0edf5d0a944f3e3a2c4440d348200279",
    ("annulus", 0.1, "cap", 1.5): "c21ada50aa855cf0567a995993f22e6f428cc9d8c684d718607b2dcb276a14b6",
    ("annulus", 0.1, "cap", 2.0): "265918007032eab40f05af5a3dee28cf334c25c9d1893b420babc724adeee6d4",
    ("annulus", 0.1, "cap", 4.0): "8287e0494ac6b46c2bb86d56bd2265658ea16ed6cabfdf4a54b675ed6343060e",
    ("star", 0.1, "flat", 1.5): "22c2f1ccb9bc1e584f073b55bc293316371293939ecd24448ab4a68b139c04f2",
    ("star", 0.1, "flat", 2.0): "543ea917e2bc4cd78074cfda88c2cf893e98a4bc091dc5687a7197f04853f36e",
    ("star", 0.1, "flat", 4.0): "ca261b1e2c6bd3ceca7e1e1753f6c11a2014a21c34c72c1947075291256f8982",
    ("star", 0.1, "cap", 1.5): "5262380599efd3a081ad140b002b16ad66af3d713578d0b01630dd90e0a280c3",
    ("star", 0.1, "cap", 2.0): "543ea917e2bc4cd78074cfda88c2cf893e98a4bc091dc5687a7197f04853f36e",
    ("star", 0.1, "cap", 4.0): "1c3bd8f8a01cbb8b40bb8455e4ec84dbc698c74fa99b1ce029e846bd66cce371",
}


@pytest.mark.parametrize("domain, h, metric, p", list(TANGENT_DIGESTS))
def test_tangent_matches_recorded_digest(lab, domain, h, metric, p):
    mesh = lab.mesh(domain, h)
    asm = _Assembler(mesh, METRICS[metric], p)
    K = asm.tangent(_random_field(mesh), 1e-3)
    digest = hashlib.sha256(asm.dofs.tobytes() + K.indptr.tobytes() + K.indices.tobytes()
                            + K.data.tobytes()).hexdigest()
    assert digest == TANGENT_DIGESTS[domain, h, metric, p]


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14)])
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
    T = asm.tangent(rng.normal(size=mesh.n_vertices), rng.uniform(1e-8, 1.0))
    for a in ("indptr", "indices", "data"):
        assert getattr(K, a).tobytes() == getattr(T, a).tobytes()
    assert asm.stiffness()[1] is lu
    b = rng.normal(size=len(asm.dofs))
    assert np.abs(K @ lu.solve(b) - b).max() <= 1e-12 * np.abs(b).max()


def _reference_gradients(mesh, u):
    """The element gradients, summed element by element."""
    return np.einsum("mki,mk->mi", mesh.basis_grads, u[mesh.triangles])


def _reference_tangent(asm, u, eps):
    """The tangent from per-element 3 x 3 blocks, summed by scipy from COO,
    then sliced to the free vertices."""
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
    return K[asm.free][:, asm.free]


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
        K = asm.tangent(u, 1e-3)
        # the stored order is a permutation of the free vertices
        order = np.searchsorted(asm.free, asm.dofs)
        assert np.array_equal(np.sort(asm.dofs), asm.free)
        ref = _reference_tangent(asm, u, 1e-3)[order][:, order].toarray()
        Kd = K.toarray()
        assert np.abs(Kd - ref).max() <= 1e-14 * np.abs(ref).max()
        # the Newton direction agrees with a dense solve
        b = -asm.residual(u, 1e-3)[asm.dofs]
        d = solver._factor(K).solve(b)
        d_ref = np.linalg.solve(Kd, b)
        assert np.abs(d - d_ref).max() <= 1e-10 * np.abs(d_ref).max()


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.05), ("annulus", 0.1),
                                      ("star", 0.1)])
def test_fill_reducing_order_is_the_full_factorization_order(lab, monkeypatch, domain, h):
    """The order is the ``perm_c`` of SuperLU's full factorization, and the
    tangent's CSC layout is the pattern of the unit-weight stiffness in that
    order; the slot map is a canonical CSR, as built from COO triplets, and
    sends C_t = I to that stiffness."""
    laps, order = [], solver._fill_reducing_order
    monkeypatch.setattr(solver, "_fill_reducing_order", lambda lap: laps.append(lap) or order(lap))
    mesh = lab.mesh(domain, h)
    free, dofs, _, slots, indptr, indices = solver._assembly_maps(mesh)
    (lap,) = laps
    rank = splu(lap, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).perm_c
    assert np.array_equal(order(lap), rank)
    assert np.array_equal(dofs, free[np.argsort(rank)])
    ordered = lap[np.argsort(rank)][:, np.argsort(rank)].tocsc()
    ordered.sort_indices()
    assert np.array_equal(indptr, ordered.indptr)
    assert np.array_equal(indices, ordered.indices)
    m = mesh.n_triangles
    assert slots.shape == (len(indices), 3 * m)
    rows = np.repeat(np.arange(slots.shape[0]), np.diff(slots.indptr))
    canonical = sp.csr_matrix((slots.data, (rows, slots.indices)), shape=slots.shape)
    for a, b in ((slots.data, canonical.data), (slots.indices, canonical.indices),
                 (slots.indptr, canonical.indptr)):
        assert np.array_equal(a, b)
    unit = slots @ np.tile([1.0, 0.0, 1.0], m)
    assert np.abs(unit - ordered.data).max() <= 1e-14 * np.abs(ordered.data).max()


@pytest.mark.parametrize("metric", ["flat", "cap"])
@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_residual_and_energy_match_element_loops(lab, domain, h, p, metric):
    mesh = lab.mesh(domain, h)
    u = _random_field(mesh)
    asm = _Assembler(mesh, METRICS[metric], p)
    for eps in (1e-3, solver._EPS_MIN):
        ref = _reference_residual(asm, u, eps)
        assert np.abs(asm.residual(u, eps) - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = _reference_energy(asm, u, eps)
        assert abs(asm.energy(u, eps) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.14)])
def test_non_finite_assembly_names_the_first_element(lab, domain, h):
    # NaN at one interior vertex spoils every triangle around it; the error
    # names the lowest-index one
    mesh = lab.mesh(domain, h)
    asm = _Assembler(mesh, ConformalMetric.flat(), 3.0)
    u = _random_field(mesh)
    vertex = asm.free[-1]
    u[vertex] = np.nan
    first = int(np.flatnonzero((mesh.triangles == vertex).any(axis=1))[0])
    for assemble in (asm.residual, asm.tangent):
        with pytest.raises(AssemblyError) as err:
            assemble(u, 1e-3)
        assert err.value.element == first


def test_singular_tangent_is_a_solver_error(tmp_path, monkeypatch):
    tangent = _Assembler.tangent
    monkeypatch.setattr(_Assembler, "tangent", lambda self, u, eps: 0 * tangent(self, u, eps))
    mesh = build_mesh(Disk(1.0), 0.2)
    with pytest.raises(SolverError) as err:
        solve(mesh, FLAT, 3.0)
    assert len(err.value.history) >= 1
    cfg = tmp_path / "config.json"
    cfg.write_text('{"command": "verify", "domain": {"variant": "disk"}, "p": [3.0], "h": [0.2]}')
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_rung_records_and_solve_count(lab, monkeypatch):
    # pins the numbers of steps, solves, factorizations and PCG iterations,
    # so a change cannot add some unnoticed
    mesh = lab.mesh("disk", 0.05)
    _Assembler(mesh, FLAT, 3.0).stiffness()     # built once per mesh, before the counts
    calls, factors, tangents = [], [], []
    spsolve, splu, tangent = solver.spsolve, solver.splu, _Assembler.tangent
    monkeypatch.setattr(solver, "spsolve", lambda held, K, b, scale: (
        calls.append(1) or spsolve(held, K, b, scale)))
    monkeypatch.setattr(solver, "splu", lambda K, permc_spec, **kw: (
        factors.append(1) if permc_spec == "NATURAL" else None) or splu(K, permc_spec, **kw))
    monkeypatch.setattr(_Assembler, "tangent",
                        lambda self, u, eps: tangents.append(1) or tangent(self, u, eps))
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
    x, its = solver._pcg(sp.csc_matrix((4, 4)), np.ones(4), lambda r: r.copy(), 1.0)
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
    eps = solver._EPS_MIN
    r = asm.residual(sol.u, eps)
    d = solver._factor(asm.tangent(sol.u, eps)).solve(-r[asm.dofs])
    lam2 = -float(r[asm.dofs] @ d)
    assert lam2 <= 1e-15 * (1.0 + abs(asm.energy(sol.u, eps)))


def test_line_search_stagnation_is_a_solver_error(tmp_path, monkeypatch):
    # a flat energy never meets the Armijo condition along a descent direction
    monkeypatch.setattr(_Assembler, "energy", lambda self, u, eps: 0.0)
    mesh = build_mesh(Disk(1.0), 0.2)
    with pytest.raises(SolverError, match="line search stagnated") as err:
        solve(mesh, FLAT, 3.0)
    assert len(err.value.history) >= 1
    cfg = tmp_path / "config.json"
    cfg.write_text('{"command": "verify", "domain": {"variant": "disk"}, "p": [3.0], "h": [0.2]}')
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_regularized_flux_eigenvalue_bound():
    from plap_lab.solver import _flux_coeff

    rng = np.random.default_rng(7)
    grads = rng.normal(0, 1.0, (200, 2))
    for p in (1.2, 2.0, 3.5):
        for eps in (1e-8, 1e-2, 1.0):
            c = _flux_coeff(grads, p, eps)
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
