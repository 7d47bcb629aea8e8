"""Ground truths independent of the 2-D finite element solver.

Closed-form radial torsion profiles in any dimension, ellipse boundary
quadratures, a conservative 1-D finite-difference radial solver, and a
randomized sampler for the pointwise matrix inequality underlying the
subharmonicity estimate.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError, SolverError, ValidationError


# --------------------------------------------------------------------------
# Radial torsion profiles
# --------------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Radial solution data for -Delta_p u = 1 on a ball of radius R in R^n."""

    n: int
    p: float
    radius: float
    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray]
    d2u: Callable[[np.ndarray], np.ndarray]

    def ode_residual(self, r: np.ndarray) -> np.ndarray:
        """-(r^{n-1} |u'|^{p-2} u')' / r^{n-1} - 1 evaluated from the profile."""
        r = np.asarray(r, dtype=float)
        du = self.du(r)
        d2u = self.d2u(r)
        s = np.abs(du) ** (self.p - 2.0) * du
        flux_prime = (self.n - 1) / r * s + (self.p - 1.0) * np.abs(du) ** (self.p - 2.0) * d2u
        return -flux_prime - 1.0


def radial_exact(n: int, p: float, radius: float) -> RadialProfile:
    """Closed-form radial torsion function u(r) = C (R^q - r^q), q = p/(p-1)."""
    if n < 2:
        raise ValidationError(f"dimension must be at least 2, got {n}")
    if not (p > 1.0):
        raise ValidationError(f"p must exceed 1, got {p}")
    if not (radius > 0.0):
        raise ValidationError(f"radius must be positive, got {radius}")
    q = p / (p - 1.0)
    C = (p - 1.0) / p * n ** (-1.0 / (p - 1.0))

    def u(r):
        return C * (radius**q - np.asarray(r, dtype=float) ** q)

    def du(r):
        return -C * q * np.asarray(r, dtype=float) ** (q - 1.0)

    def d2u(r):
        return -C * q * (q - 1.0) * np.asarray(r, dtype=float) ** (q - 2.0)

    return RadialProfile(n=n, p=p, radius=radius, u=u, du=du, d2u=d2u)


def p_ball_constant(n: int, p: float, radius: float) -> float:
    """Value of the P-function, constant on the ball torsion solution."""
    return (p - 1.0) / p * n ** (-p / (p - 1.0)) * radius ** (p / (p - 1.0))


# --------------------------------------------------------------------------
# Ellipse boundary integrals
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipseIntegrals:
    volume: float
    perimeter: float
    inv_curvature_integral: float


def ellipse_boundary_integrals(a: float, b: float) -> EllipseIntegrals:
    """Boundary integrals of the ellipse x = a cos t, y = b sin t.

    The speed |x'(t)| is periodic and analytic, so the perimeter is its
    512-point periodic trapezoid sum, exact to rounding.  int 1/H ds is
    int speed^4 / (ab) dt = pi (3a^4 + 2a^2b^2 + 3b^4) / (4ab).
    """
    if not (a >= b > 0):
        raise ValidationError(f"ellipse integrals require a >= b > 0, got a={a}, b={b}")
    t = 2.0 * np.pi * np.arange(512) / 512
    speed = np.sqrt(a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2)
    perimeter = float(np.sum(speed)) * (2.0 * np.pi / 512)
    inv_h = np.pi * (3.0 * a**4 + 2.0 * a**2 * b**2 + 3.0 * b**4) / (4.0 * a * b)
    return EllipseIntegrals(volume=np.pi * a * b, perimeter=perimeter, inv_curvature_integral=inv_h)


# --------------------------------------------------------------------------
# Matrix inequality sampler
# --------------------------------------------------------------------------


def matrix_inequality_gap(n: int, p: float, hess: np.ndarray, gvec: np.ndarray) -> float:
    """LHS minus RHS of the refined Hessian estimate; nonnegative for all inputs.

    With H symmetric, g nonzero, A = g.H.g/|g|^2 and the p-Laplacian surrogate
    D = |g|^{p-2}(tr H + (p-2) A):

        |g|^{2(p-2)} (|H|^2 + (p^2-2p+2) A^2)
            >= D^2/n + n/(n-1) (D/n - (p-1)|g|^{p-2} A)^2
               + 2 |g|^{2(p-2)} |H g|^2 / |g|^2.

    H is symmetrized and g may have any nonzero length: every term scales as
    |g|^{2(p-2)} once A and |H g|^2 are normalized by |g|^2.  Both sides are
    unchanged under (H, g) -> (Q H Q^T, Q g) for orthogonal Q, and even in g,
    so with the Householder reflection Q that maps g/|g| onto -sign(g_1) e_1
    the gap is that of (Q H Q, e_1), which the sweep's kernel `_gaps` gives.
    """
    if not (p > 1.0):
        raise PreconditionError(f"p must exceed 1, got {p}")
    if not (2 <= n <= 6):
        raise PreconditionError(f"dimension n must be in [2, 6], got {n}")
    hess = np.asarray(hess, dtype=float)
    gvec = np.asarray(gvec, dtype=float)
    gn = float(np.linalg.norm(gvec))
    if gn == 0.0:
        raise PreconditionError("gradient vector must be nonzero")
    v = gvec / gn
    v[0] += np.copysign(1.0, v[0])   # no cancellation: |v_0| >= 1
    q = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    z = (q @ (0.5 * (hess + hess.T)) @ q)[np.triu_indices(n)]
    gap, _ = _gaps(n, np.array([p]), z[:, None])
    scale = gn ** (2.0 * (p - 2.0))
    return float(scale * gap[0])


@dataclass
class SweepShard:
    n: int
    p: float
    gap: float
    hess: np.ndarray            # at the gradient g = e_1


@dataclass
class SweepResult:
    samples: int
    min_gap: float
    min_gap_loose: float
    shard_minima: list[SweepShard]

    @property
    def witness(self) -> SweepShard:
        return min(self.shard_minima, key=lambda s: s.gap)


def _gaps(n: int, p: np.ndarray, z: np.ndarray):
    """Both inequality gaps for k samples at the unit gradient g = e_1.

    z (n(n+1)/2, k) holds the upper triangle of each symmetric H row by row
    and p (k,) the exponents.  Both sides of the inequality are unchanged
    under (H, g) -> (Q H Q^T, Q g) for orthogonal Q, so any unit g can be
    rotated onto e_1 (see `matrix_inequality_gap`).  There A = g.H.g = H_11
    and |H g|^2 = sum_i H_i1^2, which are the first n rows of z; tr H and
    |H|^2 are accumulated in place, one row of z at a time, so besides its
    inputs the kernel holds a few k-vectors and no (k, n, n) stack.
    """
    rows, cols = np.triu_indices(n)
    k = z.shape[1]
    tr, hf2, hg2, t = np.zeros((4, k))
    for r, (i, j) in enumerate(zip(rows, cols)):
        np.square(z[r], out=t)
        if i == 0:                    # row 1 of H is column 1: H e_1
            hg2 += t
        if i == j:
            tr += z[r]
        else:
            t *= 2.0
        hf2 += t
    A = z[0]
    dp = tr + (p - 2.0) * A          # unit gradient: |g|^{p-2} = 1
    rhs_core = dp**2 / n + n / (n - 1.0) * (dp / n - (p - 1.0) * A) ** 2
    gap = hf2 + (p**2 - 2.0 * p + 2.0) * A**2 - rhs_core - 2.0 * hg2
    gap_loose = hf2 + p * (p - 2.0) * A**2 - rhs_core
    return gap, gap_loose


def _draw_shard(rng: np.random.Generator, n: int, k: int, p_range: tuple[float, float],
                buf: np.ndarray):
    """k samples (p, z) of one shard, drawn in that order from `rng`.

    p (k,) is uniform on p_range.  z (n(n+1)/2, k) is the upper triangle of a
    symmetric H, row by row, with independent entries: N(0, 1) on the
    diagonal and N(0, 1/2) off it, the law of (B + B^T)/2 for a standard
    normal B.  That law is unchanged under H -> Q H Q^T for orthogonal Q
    (the Gaussian orthogonal ensemble), and so are both sides of the
    inequality under (H, g) -> (Q H Q^T, Q g).  So the gap of (H, g) with g
    uniform on the unit sphere has the law of the gap of (H, e_1), and no g
    is drawn: every sample's gradient is e_1.  z is a view of the flat array
    `buf`, which must hold n(n+1)/2 * k floats.
    """
    m = n * (n + 1) // 2
    p = rng.uniform(p_range[0], p_range[1], size=k)
    z = rng.standard_normal(out=buf[:m * k].reshape(m, k))
    rows, cols = np.triu_indices(n)
    for r in np.flatnonzero(rows != cols):
        z[r] *= np.sqrt(0.5)
    return p, z


def _hess_from_upper(n: int, zcol: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix whose upper triangle, row by row, is zcol."""
    h = np.zeros((n, n))
    h[np.triu_indices(n)] = zcol
    return h + np.triu(h, 1).T


# samples per independently seeded stream; changing it changes every sweep
_SHARD_SIZE = 100_000
# columns of a shard per kernel call, so the kernel's own k-vectors stay
# small beside the shard's draw buffer
_BLOCK = 12_500


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_minimum(n: int, p: np.ndarray, z: np.ndarray):
    """The first sample of least gap in one shard and the shard's least loose gap.

    The kernel runs over column blocks with a running first-occurrence
    argmin, so the result is that of one call on the whole shard.
    """
    best, best_gap, loose = 0, np.inf, np.inf
    for s in range(0, len(p), _BLOCK):
        gap, gap_loose = _gaps(n, p[s:s + _BLOCK], z[:, s:s + _BLOCK])
        i = int(np.argmin(gap))
        if gap[i] < best_gap:
            best, best_gap = s + i, float(gap[i])
        loose = min(loose, float(gap_loose.min()))
    shard = SweepShard(n=n, p=float(p[best]), gap=best_gap, hess=_hess_from_upper(n, z[:, best]))
    return shard, loose


def matrix_inequality_sweep(
    samples: int,
    seed: int,
    n_values: tuple[int, ...],
    p_range: tuple[float, float],
) -> SweepResult:
    """Seeded randomized sweep; reports the global minimum gap and its witness.

    The budget is split evenly over n_values (the last n takes the
    remainder), so it must give every n at least one sample.  Each sample
    draws p uniform on p_range and a symmetric H with independent N(0, 1)
    diagonal and N(0, 1/2) off-diagonal entries, and takes g = e_1: the law
    of H is invariant under rotations, and so is the gap under a rotation
    of both H and g, so a uniform g on the unit sphere would give the same
    law of gaps (see `_draw_shard`).  So every witness and shard minimum is
    a gap at e_1, and carries no g.  Samples are sharded with independently
    seeded streams, and the shards run concurrently on a pool of one thread
    per CPU the process may use (at most one per shard), the largest shards
    first.  Each worker draws into one buffer of its own, and the shard
    minima are reduced in shard order, so every output is the same bit for
    bit on any number of CPUs.
    """
    if not n_values or samples < len(n_values):
        raise ValidationError(f"sample budget {samples} must give each of the "
                              f"{len(n_values)} dimensions in n_values (at least one) a sample")
    per_n = [samples // len(n_values)] * len(n_values)
    per_n[-1] += samples - sum(per_n)
    sizes = [(n, min(_SHARD_SIZE, budget - start))
             for n, budget in zip(n_values, per_n) for start in range(0, budget, _SHARD_SIZE)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    floats = [n * (n + 1) // 2 * k for n, k in sizes]   # z of each shard
    workers = min(_cpus(), len(sizes))
    # each running shard draws its z into one of these arrays (one per
    # worker, so get() never waits), and its normals land in memory already
    # paged in rather than in a fresh allocation
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(max(floats)))

    def run(i):
        (n, k), buf = sizes[i], buffers.get()
        try:
            p, z = _draw_shard(np.random.default_rng(children[i]), n, k, p_range, buf)
            return _shard_minimum(n, p, z)
        finally:
            buffers.put(buf)

    # the largest shards start first, so the last one to finish is small and
    # no worker idles long while another ends a big one
    order = sorted(range(len(sizes)), key=lambda i: -floats[i])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        done = dict(zip(order, pool.map(run, order)))
    results = [done[i] for i in range(len(sizes))]
    shards = [shard for shard, _ in results]
    return SweepResult(samples=samples,
                       min_gap=min(s.gap for s in shards),
                       min_gap_loose=min(loose for _, loose in results),
                       shard_minima=shards)


# --------------------------------------------------------------------------
# 1-D radial finite-difference solver
# --------------------------------------------------------------------------


def radial_fd_solve(n: int, p: float, radius: float,
                    grid: int) -> Callable[[np.ndarray], np.ndarray]:
    """Conservative finite-difference solution of (r^{n-1}|u'|^{p-2}u')' = -r^{n-1}.

    The flux form integrates the source exactly, the midpoint flux is inverted
    pointwise and u is recovered by cell-midpoint integration from the u(R)=0
    end.  Returns u as the piecewise linear interpolant of its grid values.
    """
    if grid < 100:
        raise PreconditionError(f"grid size must be at least 100, got {grid}")
    if n < 2 or not (p > 1.0) or not (radius > 0.0):
        raise ValidationError("radial_fd_solve requires n >= 2, p > 1, R > 0")
    r = np.linspace(0.0, radius, grid + 1)
    rm = 0.5 * (r[:-1] + r[1:])
    # r^{n-1} |u'|^{p-2} u' = -r^n / n  at cell midpoints
    flux = -rm / n
    du_mid = np.sign(flux) * np.abs(flux) ** (1.0 / (p - 1.0))
    dr = r[1] - r[0]
    u = np.zeros(grid + 1)
    u[:-1] = -np.cumsum((du_mid * dr)[::-1])[::-1]
    if not np.isfinite(u).all():
        raise SolverError("radial finite-difference integration produced non-finite values")
    return lambda rq: np.interp(np.asarray(rq, dtype=float), r, u)
