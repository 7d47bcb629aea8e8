"""Finite element solver for -Delta_p u = 1, u = 0 on the boundary.

The discrete problem minimizes the strictly convex regularized energy

    J_eps(u) = int (1/p) e^{(2-p) phi} (eps^2 + |grad u|^2)^{p/2} dx
             - int e^{2 phi} u dx

over P1 fields vanishing on the boundary, with a geometric continuation
eps_0 > eps_0 rho > ... > eps_min and damped Newton at each rung, warm-started
from the previous one.  The ladder is fixed by module constants: eps_0 is
``_EPS0_SCALE`` = 0.1 times the domain's gradient scale
(|Omega| / |dOmega|)^{1/(p-1)}, the ratio is ``_RHO`` = 0.1, the last rung is
``_EPS_MIN`` = 1e-8, and a rung takes at most ``_MAX_NEWTON_ITER`` = 50 Newton
steps.  The conformal weights realize the metric form of the p-Laplacian; for
a flat metric both weights are 1.

Each Newton step is an Armijo step along d, the direction with K d = -r, and
-r.d is its squared Newton decrement.  Only the returned u needs a
certificate, so a rung above eps_min ends after a full step (t = 1) whose
decrement was at most 1e-8 (1 + |J_eps|), without a solve to confirm it.
Any rung also stops, before a step, when the decrement has fallen to the
energy's rounding level, 1e-15 (1 + |J_eps|); that is the only rule of the
eps_min rung.  The ladder ends after the first rung that takes no step, so
the u it returns is certified at that rung's eps, ``final_eps``.

Each iterate is evaluated once (``_Iterate``): its element gradients g,
|g|^2 and eps^2 + |g|^2, and the G* = (eps^2 + |g|^2)^{(p-2)/2} that its
residual and tangent share.  A line search forms them for each trial, and
the accepted trial carries them to the next residual, the next tangent and,
at the next rung, the starting energy, for which only eps^2 + |g|^2 is
formed again.  So a solve forms the element gradients once per trial and
once for u = 0.

The Newton tangent is symmetric positive definite on the free (interior)
vertices, and its sparsity pattern is that of the P1 stiffness.  Every
mesher numbers the boundary vertices first and the interior in a narrow band
(``geometry.build_mesh``), so unknown i is vertex nb + i, and the CSC layout
of the free x free matrix depends on the mesh alone: it is built once per
mesh and kept on it, with two linear maps (the vectorised assembly of
Cuvelier, Japhet and Scarella, BIT 56, 2016): the sparse gradient operator
G, so that every energy reads the element gradients G u and every residual
is G^T applied to the element fluxes, less the load; and the sparse map
from the three distinct entries of each element's weighted 2 x 2
coefficient to every slot of the CSC data, so that a tangent is one sparse
product.  The P1 stiffness K_0 on the free vertices, in that layout, and
its factor are kept on the mesh too: K_0 is the p = 2 tangent of every
metric, since e^{(2-p) phi} = 1 there, so a p = 2 solve takes it as its
tangent and assembles and factors none.  Every other solve starts from
K_0's factor: at u = 0 a flat tangent is eps_0^{p-2} K_0, which PCG solves
in one iteration, and a conformal weight e^{(2-p) phi} that varies little
over the domain keeps K_0 a good preconditioner.  K_0 depends on the mesh
alone, so a solve's result does not depend on the solves before it.

The numbering keeps every entry within a band of half-width kd about the
diagonal: kd = 83 on the disk at h = 0.025 (5167 unknowns), 55 on the 2:1
ellipse at h = 0.035 (5349) and 15 to 49 on every other mesh the shipped
configs build.  A factor is LAPACK's banded Cholesky (``_band``):
``dpbtrf`` factors the upper band, read straight from the CSC data into
LAPACK's (kd + 1) x n band storage, on the calling thread alone, and
``dpbtrs`` solves with it.  On the p = 3 tangents at eps_min (medians of
30 rounds, in three runs on a 2-vCPU host) a factorization takes 5.9 to
6.0 ms on that disk and 3.5 to 3.7 ms on that ellipse (7.0 to 7.5 ms and
17.5 to 18.0 ms with 2 BLAS threads), and a solve 0.23 to 0.24 ms and
0.17 ms.  On the disk at h = 0.0125 (20 917 unknowns, kd = 167, 3.5M band
entries) a factorization takes 55 to 80 ms and a solve 4.7 to 8 ms.
Finer meshes are unmeasured, and no shipped config goes there.

A solve holds one factor and finds each direction by conjugate gradients
preconditioned with it, from 0, only as accurately as its decrement needs
(the inexact-Newton forcing term eta_k = O(lambda_k) of Dembo, Eisenstat
and Steihaug, SIAM J. Numer. Anal. 19, 1982, capped as in Eisenstat and
Walker, SIAM J. Sci. Comput. 17, 1996): PCG iterate k, whose relative
decrement is delta_k = b.x_k / (1 + |J_eps|), stops once its preconditioned
residual, relative to the first, is at most max(``_CG_RTOL``,
min(``_CG_FORCING``, delta_k^{1/2})).  Far from the solution one stale
factor serves; near it delta_k is tiny, the stop falls back to
``_CG_RTOL`` and Newton stays quadratic.  It factors the tangent at hand
instead when PCG has not converged in ``_CG_MAX_ITER`` iterations or has
broken down (a tangent that is not positive definite then fails as a
factorization does), and before the next system when the last PCG took
more than ``_CG_REFACTOR`` = 8.  A factorization costs about as much as
c = 13 to 14 PCG iterations (0.26 ms each) on the ellipse at h = 0.035 and
17 to 18 (0.33 ms) on the disk at h = 0.025, timed as above.  Over 24
solves (disk at h = 0.025 and 0.05, flat and cap; the 2:1 ellipse at
h = 0.035, 0.05 and 0.1; the annulus at h = 0.05; each at p = 1.5, 3 and
4), which take 43, 31, 25, 23 and 20 factorizations and 1101, 1294, 1532,
1712 and 2110 PCG iterations for thresholds 6, 8, 10, 12 and 15,
c x factorizations + PCG iterations is

    threshold       6     8    10    12    15
    c = 13       1660  1697  1857  2011  2370
    c = 17       1832  1821  1957  2103  2450

against 1983 (c = 13) and 2203 (c = 17) at 8, and 2683 and 2859 at 15,
for solves that factor their first tangent instead of starting from K_0's
factor (the six meshes' K_0 factorizations add 6c to each seeded total).
So 8 is the least cost at c = 17, and within 2.2% of the least (at 6)
at c = 13.

CG from 0 approaches the decrement from below, but a PCG decrement at the
rounding level is as good as the exact one: PCG stops at iterate k only when
r.M^{-1} r <= max(1e-20, delta_k) r_0.M^{-1} r_0, so the exact decrement
exceeds b.x_k by at most kappa(M^{-1} K) max(1e-20, delta_k) of itself, and
at delta_k <= 1e-15 that gap is itself at the rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._band import BandCholesky, band_cholesky
from ._sparse import Compressed
from .errors import AssemblyError, SolverError, ValidationError
from .geometry import QUAD_BARY, TriMesh, domain_measures
from .metric import ConformalMetric


def _sq_norm(g: np.ndarray) -> np.ndarray:
    """|g|^2 of each row of an (M, 2) array."""
    return g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]


class _Iterate:
    """A nodal field u at one eps and the element terms that its energy,
    residual and tangent share, each formed once: the element gradients g,
    |g|^2, eps^2 + |g|^2 and, once asked for, G* = (eps^2 + |g|^2)^{(p-2)/2}."""

    def __init__(self, u: np.ndarray, g: np.ndarray, sq: np.ndarray, p: float, eps: float):
        self.u, self.g, self.sq, self.p, self.eps = u, g, sq, p, eps
        self.denom = eps * eps + sq

    def at(self, eps: float) -> _Iterate:
        """The same field at eps, with its gradients and |g|^2 kept."""
        return self if eps == self.eps else _Iterate(self.u, self.g, self.sq, self.p, eps)

    @cached_property
    def gstar(self) -> np.ndarray:
        return self.denom ** ((self.p - 2.0) / 2.0)

    def flux_coeff(self) -> np.ndarray:
        """Per element, the distinct entries (c00, c01, c11), as an (M, 3)
        array, of the symmetric positive definite tangent factor
        G* (I + (p-2) g g^T / (eps^2 + |g|^2))."""
        s = (self.p - 2.0) * self.gstar / self.denom
        g0, g1 = self.g[:, 0], self.g[:, 1]
        return np.stack([self.gstar + s * g0 * g0, s * g0 * g1, self.gstar + s * g1 * g1], axis=1)


@dataclass
class EpsStep:
    eps: float
    iterations: int        # Newton steps
    energy: float
    factorizations: int    # tangents the rung factored
    cg_iterations: int     # PCG iterations of its directions


@dataclass
class Solution:
    u: np.ndarray
    mesh: TriMesh
    metric: ConformalMetric
    p: float
    steps: list[EpsStep]
    diagnostics: dict

    @property
    def final_eps(self) -> float:
        """The eps of the last rung, where the ladder stopped."""
        return self.steps[-1].eps


class _Assembler:
    """Caches mesh/metric data shared across Newton iterations."""

    def __init__(self, mesh: TriMesh, metric: ConformalMetric, p: float):
        self.mesh = mesh
        self.p = p
        phi_q = metric.phi(mesh.quad_points)
        w = mesh.quad_weights
        nq = len(QUAD_BARY)
        # per-element weight of the gradient term: int_T e^{(2-p) phi}
        self.w_grad = (w * np.exp((2.0 - p) * phi_q)).reshape(-1, nq).sum(axis=1)
        # load vector: int e^{2 phi} lambda_i, on the metric's volume weights
        elem_load = domain_measures(mesh, metric).volume_weights.reshape(-1, nq) @ QUAD_BARY
        self.load = np.zeros(mesh.n_vertices)
        np.add.at(self.load, mesh.triangles.ravel(), elem_load.ravel())
        # unknown i of the tangent is vertex nb + i: the boundary comes first
        self._grad, self._slots, self._indptr, self._indices = mesh.derived(
            "assembly_maps", lambda: _assembly_maps(mesh))
        self.nb = len(mesh.boundary_vertices)

    def iterate(self, u: np.ndarray, eps: float) -> _Iterate:
        """The nodal field u at eps, with its element gradients formed: the
        one place a nodal array becomes an iterate, which `energy`,
        `residual` and `tangent` take, so each is evaluated once."""
        g = (self._grad @ u).reshape(-1, 2)
        return _Iterate(u, g, _sq_norm(g), self.p, eps)

    def energy(self, x: _Iterate) -> float:
        # the eps^p offset makes J(0) = 0 for every eps without touching
        # derivatives
        dens = (x.denom ** (self.p / 2.0) - x.eps**self.p) / self.p
        return float(np.sum(self.w_grad * dens) - self.load @ x.u)

    def residual(self, x: _Iterate) -> np.ndarray:
        flux = (self.w_grad * x.gstar)[:, None] * x.g
        r = self._grad.T @ flux.ravel() - self.load
        if not np.isfinite(r).all():
            bad = int(np.argmax(~np.isfinite(flux).all(axis=1)))
            raise AssemblyError("non-finite residual during assembly", element=bad)
        return r

    def tangent(self, x: _Iterate) -> Compressed:
        """The free x free tangent, in the mesh's vertex order."""
        c = x.flux_coeff()
        c *= self.w_grad[:, None]
        if not np.isfinite(c).all():
            bad = int(np.argmax(~np.isfinite(c).all(axis=1)))
            raise AssemblyError("non-finite tangent during assembly", element=bad)
        return self._assemble(c)

    def stiffness(self) -> tuple[Compressed, object]:
        """The mesh's P1 stiffness K_0 on the free vertices, in the mesh's
        vertex order, and its factor, built once per mesh and kept on it.  K_0
        is the p = 2 tangent of every metric, bit for bit: there
        e^{(2-p) phi} = exp(0) = 1 and each element coefficient is its
        summed quadrature weight times I, summed by the same ``slots``."""
        def build():
            w = self.mesh.quad_weights.reshape(-1, len(QUAD_BARY)).sum(axis=1)
            K = self._assemble(np.stack([w, np.zeros_like(w), w], axis=1))
            return K, _factor(K)
        return self.mesh.derived("stiffness", build)

    def _assemble(self, c: np.ndarray) -> Compressed:
        """The free x free matrix of the element coefficients (c00, c01, c11)."""
        nf = len(self._indptr) - 1
        return Compressed("csc", self._slots @ c.ravel(), self._indices, self._indptr, (nf, nf))


def _assembly_maps(mesh: TriMesh) -> tuple:
    """(grad, slots, indptr, indices): the linear maps from nodal values and
    element coefficients to the assembled arrays.

    Every mesher numbers the boundary vertices first, 0 to nb - 1, and the
    interior in a narrow band, so unknown i of the free x free tangent is
    vertex nb + i, and its CSC layout is (``indptr``, ``indices``).  A mesh
    whose boundary vertices are not 0 to nb - 1 is a ValidationError.
    ``grad`` (2M x N, CSR) sends nodal values to the element gradients, row
    2t + i holding d/dx_i of triangle t; the residual is its transpose
    applied to the element fluxes.  Element t's tangent block is
    grad(lambda_k) . C_t grad(lambda_l), linear in the three distinct
    entries (c00, c01, c11) of its symmetric 2 x 2 coefficient C_t:
    ``slots`` sends those 3M entries to every slot of the CSC data, one row
    per slot in CSC order, each with its element columns ascending, as a
    canonical CSR.  The twins (k, l) and (l, k) of an element take the same
    products of its basis gradients, so the tangent is exactly symmetric.
    """
    tri, bg = mesh.triangles, mesh.basis_grads
    n, m = mesh.n_vertices, mesh.n_triangles
    boundary = mesh.boundary_vertices
    nb = len(boundary)
    if not np.array_equal(boundary, np.arange(nb)):
        raise ValidationError("the mesh's boundary vertices must be numbered first, 0 to nb - 1")
    # int32 indices, as scipy.sparse keeps them: its kernels read them faster
    grad = Compressed("csr", bg.transpose(0, 2, 1).ravel(),
                      np.repeat(tri, 2, axis=0).ravel().astype(np.int32),
                      np.arange(0, 6 * m + 1, 3, dtype=np.int32), (2 * m, n))
    nf = n - nb
    # int64, so the keys col * nf + row do not wrap past 46340 unknowns
    ltri = tri.astype(np.int64) - nb
    rows, cols = np.repeat(ltri, 3, axis=1).ravel(), np.tile(ltri, (1, 3)).ravel()
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols, elem = rows[keep], cols[keep], keep // 9
    # the weights of (c00, c01, c11) in entry (k, l) of each kept element
    # block; np.take gathers rows faster than indexing does
    corner = bg.reshape(3 * m, 2)
    bk, bl = np.take(corner, keep // 3, axis=0), np.take(corner, 3 * elem + keep % 3, axis=0)
    weights = np.stack([bk[:, 0] * bl[:, 0], bk[:, 0] * bl[:, 1] + bk[:, 1] * bl[:, 0],
                        bk[:, 1] * bl[:, 1]], axis=1)
    key = cols * nf + rows
    # one row per slot, in key (CSC) order; an element meets a slot at most
    # once, so a stable sort leaves each row's columns ascending
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    slots = Compressed("csr", np.take(weights, by_key, axis=0).ravel(),
                       (3 * elem[by_key, None] + np.arange(3)).ravel().astype(np.int32),
                       (3 * np.append(starts, len(key))).astype(np.int32), (len(starts), 3 * m))
    col, indices = key[starts] // nf, key[starts] % nf
    indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=nf))])
    return grad, slots, indptr.astype(np.int32), indices.astype(np.int32)


_BACKTRACK_FACTOR, _MAX_BACKTRACKS = 0.5, 30      # Armijo line search
_EPS0_SCALE, _RHO, _EPS_MIN, _MAX_NEWTON_ITER = 0.1, 0.1, 1e-8, 50   # the eps ladder
# PCG with the held factor: see _pcg and spsolve
_CG_RTOL, _CG_FORCING, _CG_MAX_ITER, _CG_REFACTOR = 1e-10, 0.5, 30, 8
# squared Newton decrements, relative to 1 + |J_eps|: the rounding level, and
# the last full step of a rung above eps_min
_DECREMENT_FLOOR, _DECREMENT_RUNG = 1e-15, 1e-8


class _HeldFactor:
    """The factor one solve holds and the counts of factorizations and PCG
    iterations so far.  It starts from the factor of ``factored``, the
    mesh's stiffness."""

    def __init__(self, factored: Compressed, factor: BandCholesky):
        self.factored = factored     # the matrix `factor` factors
        self.factor = factor
        self.refactor = False    # factor the next tangent instead of PCG
        self.factorizations = self.cg_iterations = 0


def _pcg(K: Compressed, b: np.ndarray, precondition,
         scale: float) -> tuple[np.ndarray | None, int]:
    """Conjugate gradients for K x = b from x = 0, preconditioned by the SPD
    map ``precondition``.  Iterate k stops once its preconditioned residual
    r.M^{-1} r, relative to the first, is at most max(``_CG_RTOL``^2,
    min(``_CG_FORCING``^2, delta_k)), where delta_k = b.x_k / scale is its
    relative decrement: a direction is solved only as accurately as its
    decrement needs.  Returns (x, iterations); x is None when PCG has not
    converged in ``_CG_MAX_ITER`` iterations, or has broken down on a
    direction d with d.K d not positive and finite, as it does when K is
    singular or not positive definite."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    d = z.copy()
    rz = rz0 = float(r @ z)
    for k in range(_CG_MAX_ITER + 1):
        if rz <= max(_CG_RTOL**2, min(_CG_FORCING**2, float(b @ x) / scale)) * rz0:
            return x, k
        if k == _CG_MAX_ITER:
            return None, k
        Kd = K @ d
        dKd = float(d @ Kd)
        if not 0.0 < dKd < np.inf:
            return None, k
        alpha = rz / dKd
        x += alpha * d
        r -= alpha * Kd
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d


def _factor(K: Compressed) -> BandCholesky:
    """The banded Cholesky (``_band``) of an ordered SPD tangent: its upper
    band, of half-width kd, the largest col - row of K's CSC layout, is read
    straight from K's entries.  A matrix that is not positive definite
    raises RuntimeError, which `solve` reports as a SolverError."""
    n = K.shape[0]
    cols = np.repeat(np.arange(n), np.diff(K.indptr))
    upper = K.indices <= cols
    return band_cholesky(K.indices[upper], cols[upper], K.data[upper], n)


def spsolve(held: _HeldFactor, K: Compressed, b: np.ndarray, scale: float) -> np.ndarray:
    """Solve K x = b, for the tangent K of a solve whose decrements are
    relative to ``scale`` = 1 + |J_eps|, with the factor it holds: directly
    when that factor is K's, and otherwise by PCG preconditioned with it,
    unless ``refactor`` is set or PCG has not converged, when K is factored
    and becomes the held one."""
    if held.factored is not K:
        if not held.refactor:
            x, its = _pcg(K, b, held.factor.solve, scale)
            held.cg_iterations += its
            held.refactor = its > _CG_REFACTOR
            if x is not None:
                return x
        # drop the held factor first: the mesh keeps its stiffness's, and a
        # third factor at once would set the peak memory
        held.factor = None
        held.factor = _factor(K)
        held.factored, held.refactor = K, False
        held.factorizations += 1
    return held.factor.solve(b)


def _gradient_scale(mesh: TriMesh, metric: ConformalMetric, p: float) -> float:
    meas = domain_measures(mesh, metric)
    return (meas.volume / meas.perimeter) ** (1.0 / (p - 1.0))


def solve(mesh: TriMesh, metric: ConformalMetric, p: float) -> Solution:
    """Continuation-in-eps damped Newton solve; raises SolverError with history."""
    if not (p > 1.0):
        raise ValidationError(f"p must exceed 1, got {p}")
    # eps0 depends on the domain and the metric, so it is checked here
    eps0 = _EPS0_SCALE * _gradient_scale(mesh, metric, p)
    if not np.isfinite(eps0):
        meas = domain_measures(mesh, metric)
        raise ValidationError(f"eps0 = {eps0} is not finite: the metric volume is "
                              f"{meas.volume:.6g} and the perimeter {meas.perimeter:.6g}")
    if not (_EPS_MIN < eps0):
        raise ValidationError(f"eps_min = {_EPS_MIN:.3e} must be below eps0 = {eps0:.3e}")
    ladder = [eps0]
    while ladder[-1] * _RHO > _EPS_MIN:
        ladder.append(ladder[-1] * _RHO)
    ladder.append(_EPS_MIN)

    asm = _Assembler(mesh, metric, p)
    nb = asm.nb
    K0, factor0 = asm.stiffness()
    held = _HeldFactor(K0, factor0)

    # directions vanish on the boundary, so u stays exactly 0 there.  The
    # accepted trial of a line search is the next iterate, with its gradients
    x = asm.iterate(np.zeros(mesh.n_vertices), ladder[0])
    steps: list[EpsStep] = []
    history: list[tuple[float, int, float]] = []     # (eps, step, residual norm)
    for eps in ladder:
        x = x.at(eps)
        energy = asm.energy(x)
        it = 0
        counts = held.factorizations, held.cg_iterations
        while True:
            try:
                r = asm.residual(x)[nb:]
                rnorm = float(np.linalg.norm(r))
                history.append((eps, it, rnorm))
                # at p = 2 the tangent is the stiffness, whatever u, eps and the metric
                K = K0 if p == 2.0 else asm.tangent(x)
            except AssemblyError as exc:
                exc.history = history
                raise
            scale = 1.0 + abs(energy)
            d = np.zeros(mesh.n_vertices)
            try:
                d[nb:] = spsolve(held, K, -r, scale)
            except RuntimeError as exc:
                raise SolverError(f"tangent factorization failed at eps = {eps:.3e} ({exc})",
                                  history=history) from exc
            slope = float(r @ d[nb:])
            if -slope <= _DECREMENT_FLOOR * scale:
                break
            if it >= _MAX_NEWTON_ITER:
                raise SolverError(f"Newton did not converge at eps = {eps:.3e} "
                                  f"(residual {rnorm:.3e} after {it} iterations)",
                                  history=history)
            last = eps > _EPS_MIN and -slope <= _DECREMENT_RUNG * scale
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                trial = asm.iterate(x.u + t * d, eps)
                e_trial = asm.energy(trial)
                if e_trial <= energy + 1e-4 * t * slope:
                    x, energy = trial, e_trial
                    break
                t *= _BACKTRACK_FACTOR
            else:
                raise SolverError(f"line search stagnated at eps = {eps:.3e} "
                                  f"(residual {rnorm:.3e})", history=history)
            it += 1
            if last and t == 1.0:
                break
        steps.append(EpsStep(eps=eps, iterations=it, energy=energy,
                             factorizations=held.factorizations - counts[0],
                             cg_iterations=held.cg_iterations - counts[1]))
        if it == 0:
            break

    u = x.u
    return Solution(u=u, mesh=mesh, metric=metric, p=p, steps=steps, diagnostics={
        "min_u": float(u.min()),
        "max_u": float(u.max()),
        "min_interior_u": float(u[nb:].min()),
        "positive_interior": bool((u[nb:] > 0).all()),
    })
