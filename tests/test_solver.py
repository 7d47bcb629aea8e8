import numpy as np
import pytest

from plap_lab import (ConformalMetric, Disk, Ellipse, SolveConfig,
                      SolverError, ValidationError, build_mesh,
                      convergence_study, solve)
from plap_lab.oracles import radial_exact
from plap_lab.solver import _Assembler, variational_p_flux


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


def test_config_validation():
    with pytest.raises(ValidationError):
        SolveConfig(p=0.9).validate()
    with pytest.raises(ValidationError):
        SolveConfig(p=2.0, rho=1.5).validate()
    with pytest.raises(ValidationError):
        SolveConfig(p=2.0, eps0=1e-9, eps_min=1e-8).validate()


def test_forced_newton_failure_carries_history():
    mesh = build_mesh(Ellipse(2.0, 1.0), 0.14)
    with pytest.raises(SolverError) as err:
        solve(mesh, None, SolveConfig(p=4.0, max_newton_iter=1))
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


def test_tangent_spd(lab):
    mesh = lab.mesh("disk", 0.1)
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 0.2, mesh.n_vertices)
    for p in (1.5, 3.0):
        asm = _Assembler(mesh, ConformalMetric.flat(), p)
        free = asm.free
        Kf = asm.tangent(u, 1e-3)[free][:, free].toarray()
        assert np.abs(Kf - Kf.T).max() <= 1e-12 * np.abs(Kf).max()
        lam = np.linalg.eigvalsh(Kf)
        assert lam.min() > 0


def test_regularized_flux_eigenvalue_bound():
    from plap_lab.solver import RegularizedFlux

    rng = np.random.default_rng(7)
    grads = rng.normal(0, 1.0, (200, 2))
    for p in (1.2, 2.0, 3.5):
        for eps in (1e-8, 1e-2, 1.0):
            flux = RegularizedFlux.from_gradients(grads, p, eps)
            lam = np.linalg.eigvalsh(flux.coeff)
            floor = flux.gstar * min(1.0, p - 1.0)
            assert (lam[:, 0] >= floor * (1 - 1e-12)).all()
            assert (lam[:, 0] > 0).all()


def test_energy_monotone_along_continuation(lab):
    sol = lab.solution("disk", 3.0)
    energies = [s.energy for s in sol.steps]
    # warm starts make each rung's final energy no larger than the previous
    assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))


def test_eps_inert_for_p2(lab):
    mesh = lab.mesh("disk", 0.1)
    a = solve(mesh, None, SolveConfig(p=2.0, eps0=0.3, eps_min=1e-8))
    b = solve(mesh, None, SolveConfig(p=2.0, eps0=1e-6, eps_min=1e-8))
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
    entry = case.report.entries["flux"]
    assert entry.rel_residual <= 0.01


def test_variational_flux_exact_sum_and_trace_agreement(lab):
    case = lab.case("disk", 2.0)
    flux = variational_p_flux(case.solution)
    bg = case.bg
    total = float(np.sum(flux * bg.weight))
    vol = case.mesh.quad_weights.sum()
    assert abs(total + vol) <= 1e-9 * vol
    # pointwise agreement with the recovered-trace route at the percent level
    assert np.abs(flux - case.trace.p_flux()).max() <= 0.05


def test_convergence_study_orders():
    rows = convergence_study(Disk(1.0), None, 2.0, [0.2, 0.1, 0.05])
    assert rows[-1].order_l2 is not None and rows[-1].order_l2 >= 1.8
    rows = convergence_study(Disk(1.0), None, 3.0, [0.2, 0.1, 0.05])
    assert rows[-1].order_l2 >= 1.2
    rows = convergence_study(Disk(1.0), None, 1.5, [0.2, 0.1, 0.05])
    errs = [r.err_l2 for r in rows]
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert all(np.isfinite(r.err_max) for r in rows)


def test_convergence_study_requires_radial_oracle():
    with pytest.raises(ValidationError):
        convergence_study(Ellipse(2.0, 1.0), None, 2.0, [0.1])


def test_conformal_solve_runs(lab):
    sol = lab.solution("disk", 2.0, metric="cap")
    assert sol.diagnostics["positive_interior"]
    assert np.all(sol.u[sol.mesh.boundary_vertices] == 0.0)
