"""Planar domains with smooth parametric boundaries and their triangulations.

Domains come from a small catalogue (disk, ellipse, polar star, annulus).
The disk, and the outer loop of the annulus, are the polar star r(theta) = R
with no coefficients.  Every mesh pins its boundary vertices exactly on the
parametric curve, so boundary data (normal, curvature, arc-length weights)
can be evaluated from closed forms instead of the polygon; a node's arc
weight is its trapezoid weight over the node arc lengths.

Meshes come from one of two paths, chosen by the domain.  The disk and the
ellipse map a hexagonal patch of the triangular lattice onto the domain by
one discrete harmonic map (elliptic grid generation; Thompson, Warsi &
Mastin, 1985), so every interior vertex has degree 6 and the recovered
derivatives keep the superconvergence of mildly structured grids (Xu &
Zhang, Math. Comp. 73, 2004); the patch's six corners sit on the boundary,
where graded edges hold the angle bound.  The annulus and the other polar
stars are meshed by a truss-relaxation variant of Delaunay meshing.  As in
DistMesh (Persson & Strang, SIAM Review 46, 2004), relaxation retriangulates
lazily: only after some vertex has moved more than 0.1 h since the last
triangulation.  Only its first triangulation comes from Qhull; each later
one, and the final one of the relaxed points, repairs the triangulation it
holds by Lawson's edge flips, which reach the same Delaunay triangulation.
A relaxed mesh costs one Qhull call, and a mapped one none.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

from .errors import MeshGenerationError, ValidationError

TWO_PI = 2.0 * math.pi
DIM = 2     # every domain is planar: the n of the paper's identities

# --------------------------------------------------------------------------
# Domain specifications and their boundary loops
# --------------------------------------------------------------------------


class BoundaryCurve:
    """One closed C2 boundary loop, parametrized on [0, 2*pi).

    Orientation keeps the domain on the left; normals point out of the domain
    and curvature carries the sign induced by that outward normal.
    """

    def point(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def speed(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def curvature(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError


# Each spec checks its invariants on construction and owns its geometry: its
# `diameter()` and its boundary loops `curves()`, the outer loop first; the
# ellipse and the polar star are their own single loop.  `variant` names the
# spec in a config's `domain` object.

_STAR_SAMPLES = 4096
_STAR_THETA = np.linspace(0.0, TWO_PI, _STAR_SAMPLES, endpoint=False)


@dataclass(frozen=True)
class Disk:
    variant = "disk"
    radius: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValidationError(f"disk radius must be strictly positive, got {self.radius}")

    def diameter(self) -> float:
        return 2.0 * self.radius

    def curves(self) -> list[BoundaryCurve]:
        return [PolarStar(r0=self.radius)]


@dataclass(frozen=True)
class Ellipse(BoundaryCurve):
    variant = "ellipse"
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.b > 0):
            raise ValidationError(f"ellipse semi-axis b must be strictly positive, got {self.b}")
        if not (self.a >= self.b):
            raise ValidationError(f"ellipse requires a >= b > 0, got a={self.a}, b={self.b}")

    def diameter(self) -> float:
        return 2.0 * self.a

    def curves(self) -> list[BoundaryCurve]:
        return [self]

    def point(self, t):
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def speed(self, t):
        return np.sqrt(self.a**2 * np.sin(t) ** 2 + self.b**2 * np.cos(t) ** 2)

    def normal(self, t):
        nu = np.stack([self.b * np.cos(t), self.a * np.sin(t)], axis=-1)
        return nu / np.linalg.norm(nu, axis=-1, keepdims=True)

    def curvature(self, t):
        return self.a * self.b / (self.a**2 * np.sin(t) ** 2 + self.b**2 * np.cos(t) ** 2) ** 1.5


# the m-th derivative of cos and of sin, m = 0, 1, 2: (negated, function)
_COS_DERIVS = ((False, np.cos), (True, np.sin), (True, np.cos))
_SIN_DERIVS = ((False, np.sin), (False, np.cos), (True, np.sin))


@dataclass(frozen=True)
class PolarStar(BoundaryCurve):
    """Boundary r(theta) = r0 + sum_k cos_coeffs[k-1] cos(k theta) + sin_coeffs[k-1] sin(k theta),
    traversed counter-clockwise."""

    variant = "polar_star"
    r0: float = 1.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        r_min = self.r(_STAR_THETA).min()
        if not (r_min > 0):
            raise ValidationError(
                "polar_star radius function must stay strictly positive; "
                f"min r(theta) = {r_min:.6g}"
            )

    def diameter(self) -> float:
        r = self.r(_STAR_THETA)
        half = _STAR_SAMPLES // 2
        return float((r[:half] + r[half:]).max())

    def curves(self) -> list[BoundaryCurve]:
        return [self]

    def r(self, theta: np.ndarray, m: int = 0) -> np.ndarray:
        """The m-th derivative (m <= 2) of r(theta): each term is
        ((+-c) k ... k) trig(k theta), with k repeated m times."""
        theta = np.asarray(theta, dtype=float)
        r = np.full_like(theta, self.r0 if m == 0 else 0.0)
        for coeffs, (negated, trig) in ((self.cos_coeffs, _COS_DERIVS[m]),
                                        (self.sin_coeffs, _SIN_DERIVS[m])):
            for k, c in enumerate(coeffs, start=1):
                a = -c if negated else c
                for _ in range(m):
                    a = a * k
                r += a * trig(k * theta)
        return r

    def point(self, t):
        r = self.r(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def speed(self, t):
        r, dr = (self.r(t, m) for m in range(2))
        return np.sqrt(r ** 2 + dr ** 2)

    def normal(self, t):
        r, dr = (self.r(t, m) for m in range(2))
        ct, st = np.cos(t), np.sin(t)
        # rotate the tangent (x', y') by -90 degrees: (y', -x')
        xp = dr * ct - r * st
        yp = dr * st + r * ct
        nu = np.stack([yp, -xp], axis=-1)
        return nu / np.linalg.norm(nu, axis=-1, keepdims=True)

    def curvature(self, t):
        r, dr, d2r = (self.r(t, m) for m in range(3))
        return (r * r + 2.0 * dr * dr - r * d2r) / (r * r + dr * dr) ** 1.5


class _InnerCircle(BoundaryCurve):
    """Inner loop of an annulus: clockwise traversal, outward normal points inwards."""

    def __init__(self, radius: float):
        self.radius = radius

    def point(self, t):
        return self.radius * np.stack([np.cos(t), -np.sin(t)], axis=-1)

    def speed(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.radius)

    def normal(self, t):
        return -np.stack([np.cos(t), -np.sin(t)], axis=-1)

    def curvature(self, t):
        return np.full_like(np.asarray(t, dtype=float), -1.0 / self.radius)


@dataclass(frozen=True)
class Annulus:
    variant = "annulus"
    r_in: float = 0.5
    r_out: float = 1.0

    def __post_init__(self):
        if not (self.r_in > 0):
            raise ValidationError(f"annulus inner radius must be strictly positive, got {self.r_in}")
        if not (self.r_out > self.r_in):
            raise ValidationError(
                f"annulus requires r_out > r_in, got r_in={self.r_in}, r_out={self.r_out}"
            )

    def diameter(self) -> float:
        return 2.0 * self.r_out

    def curves(self) -> list[BoundaryCurve]:
        return [PolarStar(r0=self.r_out), _InnerCircle(self.r_in)]


DomainSpec = Union[Disk, Ellipse, PolarStar, Annulus]
_VARIANTS = {cls.variant: cls for cls in (Disk, Ellipse, PolarStar, Annulus)}


def spec_to_json(spec: DomainSpec) -> dict:
    return {"variant": spec.variant, **asdict(spec)}


def spec_from_json(obj: dict) -> DomainSpec:
    """Domain spec from a config's `domain` object, already checked against
    the config schema; the spec checks its own invariants."""
    cls = _VARIANTS[obj["variant"]]
    return cls(**{f.name: tuple(map(float, obj[f.name])) if isinstance(f.default, tuple)
                  else float(obj[f.name]) for f in fields(cls) if f.name in obj})


_ARCLENGTH_SAMPLES = 1 << 17


def _arclength_table(curve: BoundaryCurve) -> tuple[np.ndarray, np.ndarray]:
    t = np.linspace(0.0, TWO_PI, _ARCLENGTH_SAMPLES + 1)
    sp = curve.speed(t)
    ds = 0.5 * (sp[1:] + sp[:-1]) * np.diff(t)
    s = np.concatenate([[0.0], np.cumsum(ds)])
    return t, s


def curve_length(curve: BoundaryCurve) -> float:
    return float(_arclength_table(curve)[1][-1])


# --------------------------------------------------------------------------
# Triangle quadrature
# --------------------------------------------------------------------------

# the 3-point rule, exact for quadratics: barycentric points and weights (sum
# 1); every triangle holds its points in this order, so quadrature point k of
# a mesh lies in triangle k // len(QUAD_BARY)
QUAD_BARY = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
_QUAD_WEIGHTS = np.array([1 / 3, 1 / 3, 1 / 3])


# --------------------------------------------------------------------------
# TriMesh
# --------------------------------------------------------------------------


@dataclass
class TriMesh:
    """Triangulated domain with pinned parametric boundary vertices."""

    spec: DomainSpec
    h: float
    points: np.ndarray                  # (N, 2)
    triangles: np.ndarray               # (M, 3), CCW
    boundary_loops: list[np.ndarray]    # vertex indices, ordered, domain on the left
    basis_grads: np.ndarray             # (M, 3, 2): gradient of each P1 basis fn
    quad_points: np.ndarray             # (M*Q, 2), at QUAD_BARY in each triangle
    quad_weights: np.ndarray            # (M*Q,) physical weights
    boundary: "BoundaryGeometry"        # exact geometry at the boundary vertices
    # state that depends on the mesh alone (point locator, measures per
    # metric, recovery normal equations, assembly maps, trace sample
    # sites), built by `derived` on first use and shared by every case
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def boundary_vertices(self) -> np.ndarray:
        return np.concatenate(self.boundary_loops)

    def min_angle_deg(self) -> float:
        """The least interior angle of any triangle: the arccos of the
        largest cosine, as arccos is decreasing."""
        p = np.take(self.points, self.triangles, axis=0)
        e1, e2 = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
        cos = np.einsum("mvi,mvi->mv", e1, e2) / (
            np.linalg.norm(e1, axis=2) * np.linalg.norm(e2, axis=2))
        return float(np.degrees(np.arccos(np.clip(cos.max(), -1.0, 1.0))))

    def derived(self, key, build: Callable[[], object]):
        """The mesh-only state stored under ``key``, built by ``build()`` the
        first time it is asked for."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def interpolation(self, tri: np.ndarray, bary: np.ndarray) -> sp.csr_matrix:
        """The (P, N) matrix of P1 interpolation at points given as (triangle,
        barycentric), as ``locate`` returns them."""
        return sp.csr_matrix((bary.ravel(), self.triangles[tri].ravel(),
                              np.arange(0, 3 * len(tri) + 1, 3)),
                             shape=(len(tri), self.n_vertices))

    def quad_interpolation(self) -> sp.csr_matrix:
        """`interpolation` at the quadrature points, in the order of
        ``quad_points``: every triangle holds them at the same barycentrics
        ``QUAD_BARY``."""
        nq, m = len(QUAD_BARY), self.n_triangles
        return self.interpolation(np.repeat(np.arange(m), nq), np.tile(QUAD_BARY, (m, 1)))

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(triangle, barycentric, found) per point: `_PointLocator.locate`."""
        locator = self.derived("locator", lambda: _PointLocator(self))
        return locator.locate(np.atleast_2d(np.asarray(pts, dtype=float)))


class _PointLocator:
    """Nearest-centroid candidate search plus barycentric membership test."""

    _K = 24     # nearest-centroid candidates per point
    _HEAD = 6   # on a flat disk at h=0.025 no located point lies beyond the sixth candidate

    def __init__(self, mesh: TriMesh):
        from scipy.spatial import cKDTree
        self.mesh = mesh
        cent = mesh.points[mesh.triangles].mean(axis=1)
        self.tree = cKDTree(cent)

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per point, the first candidate triangle that contains it (up to
        1e-12 in barycentric terms), else the first one it is least outside
        of; the coordinates are clipped at 0 and renormalised.  ``found``
        tells the points that a candidate contains from the clipped ones.

        The first ``_HEAD`` candidates are tested for every point and all
        ``_K`` only for the points that none of those contains; the first inside
        hit is the same either way."""
        k = min(self._K, self.mesh.n_triangles)
        _, cand = self.tree.query(pts, k=k)
        cand = np.asarray(cand).reshape(len(pts), k)
        tri, bary, found = self._pick(pts, cand[:, :self._HEAD])
        miss = np.flatnonzero(~found)
        tri[miss], bary[miss], found[miss] = self._pick(pts[miss], cand[miss])
        bary = np.clip(bary, 0.0, None)
        s = bary.sum(axis=1)
        bary[s > 0] /= s[s > 0, None]
        return tri, bary, found

    def _pick(self, pts: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The selected candidate per point, its barycentric coordinates and
        whether it contains the point."""
        corners = self.mesh.points[self.mesh.triangles[cand]]  # (P, k, 3, 2)
        a = corners[:, :, 0]
        m = np.stack([corners[:, :, 1] - a, corners[:, :, 2] - a], axis=-1)
        lam = np.linalg.solve(m, (pts[:, None, :] - a)[..., None])[..., 0]
        bary = np.concatenate([1.0 - lam[..., :1] - lam[..., 1:], lam], axis=-1)
        worst = bary.min(axis=-1)
        inside = worst >= -1e-12
        hit = inside.any(axis=1)
        pick = np.where(hit, inside.argmax(axis=1), worst.argmax(axis=1))
        rows = np.arange(len(pts))
        return cand[rows, pick], bary[rows, pick], hit


# --------------------------------------------------------------------------
# Radial inside tests (all catalogue domains are radial graphs about the origin)
# --------------------------------------------------------------------------


class _RadialDomain:
    """Dense lookup tables for the boundary radius and the ray/normal angle."""

    def __init__(self, spec: DomainSpec):
        curves = spec.curves()
        curve = curves[0]
        t = np.linspace(0.0, TWO_PI, _STAR_SAMPLES + 1)
        pts = curve.point(t)
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI)
        theta[-1] = TWO_PI
        theta[0] = 0.0
        order = np.argsort(theta)
        self._theta = theta[order]
        self._rb = np.linalg.norm(pts, axis=1)[order]
        radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cospsi = np.clip(np.einsum("ij,ij->i", radial, curve.normal(t)), 0.2, 1.0)
        self._cospsi = cospsi[order]
        # a second loop is the annulus's inner circle
        self.annular = len(curves) > 1
        self.r_in = curves[1].radius if self.annular else 0.0

    def inside(self, pts: np.ndarray, margin: float) -> np.ndarray:
        """Points (P, 2) more than ``margin`` inside the domain: below the
        interpolated bound r_b(theta) - margin / cos(psi), and above
        r_in + margin in an annulus."""
        rho = np.linalg.norm(pts, axis=-1)
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI)
        ok = rho < (np.interp(theta, self._theta, self._rb)
                    - margin / np.interp(theta, self._theta, self._cospsi))
        if self.annular:
            ok &= rho > self.r_in + margin
        return ok

    def triangles_inside(self, points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
        """The triangles whose centroid lies inside the domain."""
        return triangles[self.inside(np.take(points, triangles, axis=0).mean(axis=1),
                                     margin=0.0)]


# --------------------------------------------------------------------------
# Mesh generation
# --------------------------------------------------------------------------

_RELAX_ITERS = 120
_RELAX_FSCALE = 1.2     # rest length of the repulsive edge springs, in units of h
_RELAX_DT = 0.2
_MIN_ANGLE_DEG = 20.0   # quality bound every mesh must meet


def build_mesh(spec: DomainSpec, h: float) -> TriMesh:
    """Triangulate the domain with target edge length h.

    Boundary vertices sit exactly on the parametric curve and are pinned.
    Two paths place the rest, chosen by the domain:

    * The disk, the ellipse and the polar star with no coefficients map a
      hexagonal patch of the triangular lattice onto the domain
      (`_lattice_patch`).  The patch's boundary vertices go onto the curve
      in order, at arc lengths graded to shorten the edges at its six
      corners, and the interior vertices solve one discrete harmonic map
      with uniform weights (`_harmonic_map`), which cannot fold on a convex
      domain (Floater, Math. Comp. 72, 2003).  Every interior vertex keeps
      the lattice's degree 6.  The corners pinch the triangles next to them
      as h falls and as the ellipse lengthens (17.5 degrees on the 2:1
      ellipse at h = 0.0125, 19.6 on the 3:1 one at h = 0.025); a mapped
      mesh below the angle bound relaxes instead.
    * The annulus and the other polar stars relax: boundary vertices sit at
      equal arc-length spacing, and interior vertices start on a hexagonal
      lattice and relax under repulsive edge forces until the triangulation
      is near-uniform (`_relaxed_mesh`).

    Either mesh must match its parametric boundary loops edge for edge and
    meet the minimum-angle bound ``_MIN_ANGLE_DEG``.
    """
    diam = spec.diameter()
    if not (0.0 < h < diam / 4.0):
        raise ValidationError(
            f"target edge length must satisfy 0 < h < diameter/4 = {diam / 4.0:.6g}, got {h}"
        )

    # one arc-length table per loop gives its length and, from the node arc
    # lengths, the node parameters
    curves = spec.curves()
    tables = [_arclength_table(curve) for curve in curves]
    lengths = [float(s[-1]) for _, s in tables]

    def mesh_from(loops_arcs: list[np.ndarray], place) -> TriMesh:
        """The mesh whose boundary nodes sit at ``loops_arcs`` and whose
        points and triangles ``place`` makes from the boundary points."""
        loops_params = [np.interp(arcs, s, t) for (t, s), arcs in zip(tables, loops_arcs)]
        bnd_xy = np.concatenate([c.point(t) for c, t in zip(curves, loops_params)])
        points, triangles = place(bnd_xy)
        mesh = _assemble_mesh(spec, h, points, triangles, curves, loops_params, loops_arcs,
                              lengths)
        _check_boundary_edges(mesh)
        return mesh

    aspect = _lattice_aspect(spec)
    if aspect is not None:
        triangles, n_vertices, fractions = _lattice_patch(aspect, lengths[0] / h)
        mesh = mesh_from([lengths[0] * fractions],
                         lambda bnd: (_harmonic_map(triangles, bnd, n_vertices), triangles))
        if mesh.min_angle_deg() >= _MIN_ANGLE_DEG:
            return mesh
        # the corners pinched the mapped mesh below the bound: relax instead
    nodes = [max(8, int(round(L / h))) for L in lengths]
    mesh = mesh_from([L * np.arange(n) / n for L, n in zip(lengths, nodes)],
                     lambda bnd: _relaxed_mesh(spec, h, bnd, len(curves)))
    min_angle = mesh.min_angle_deg()
    if min_angle < _MIN_ANGLE_DEG:
        raise MeshGenerationError(
            f"mesh quality below bound: min angle {min_angle:.2f} deg < {_MIN_ANGLE_DEG} deg",
            achieved_min_angle_deg=min_angle,
        )
    return mesh


# --------------------------------------------------------------------------
# Mapped hexagonal lattice (disk and ellipse)
# --------------------------------------------------------------------------

# boundary edge k of a mapped lattice has the relative length
# 1 - _CORNER_SHRINK * exp(-(d_k / _CORNER_REACH)^2), its midpoint d_k edges
# from the nearest patch corner: the map opens each corner's 120 degrees to
# 180, and stretches the edges there unless they start shorter
_CORNER_SHRINK = 0.6
_CORNER_REACH = 3.0


def _lattice_aspect(spec: DomainSpec) -> float | None:
    """The a/b of the lattice patch mapped onto the domain: a/b for the
    ellipse, 1 for the disk and the polar star with no coefficients (a
    circle), and None for the domains that relax."""
    if isinstance(spec, Ellipse):
        return spec.a / spec.b
    if isinstance(spec, Disk) or (isinstance(spec, PolarStar)
                                  and not any(spec.cos_coeffs + spec.sin_coeffs)):
        return 1.0
    return None


def _lattice_patch(aspect: float, n_rim: float) -> tuple[np.ndarray, int, np.ndarray]:
    """The hexagonal patch of the triangular lattice q e1 + r e2, with
    e1 = (1, 0) and e2 = (1/2, sqrt 3/2): the points with |q| <= A, |r| <= B
    and |q + r| <= A, where A = round(B aspect) and B makes the boundary
    count 4A + 2B nearest ``n_rim``.

    The vertices are numbered boundary first, counter-clockwise from the
    corner (A, 0), then the interior row by row.  Returns the triangles of
    both lattice families, counter-clockwise, from the index grid; the
    vertex count; and the boundary vertices' arc lengths as fractions of the
    loop, from the corner-graded edge lengths.
    """
    bs = np.arange(1, int(n_rim) + 2)
    big = np.rint(bs * aspect).astype(int)
    k = int(np.argmin(np.abs(4 * big + 2 * bs - n_rim)))
    A, B = int(big[k]), int(bs[k])
    q, r = np.meshgrid(np.arange(-A, A + 1), np.arange(-B, B + 1), indexing="ij")
    q, r = q.ravel(), r.ravel()
    active = (np.abs(q) == A).astype(int) + (np.abs(r) == B) + (np.abs(q + r) == A)
    member = np.abs(q + r) <= A
    rim = np.flatnonzero(member & (active > 0))
    rim = rim[np.argsort(np.mod(np.arctan2(math.sqrt(3.0) * r[rim], 2 * q[rim] + r[rim]),
                                TWO_PI))]
    order = np.concatenate([rim, np.flatnonzero(member & (active == 0))])
    index = np.full(len(q), -1)
    index[order] = np.arange(len(order))
    index = index.reshape(2 * A + 1, 2 * B + 1)
    # up triangles (q, r), (q+1, r), (q, r+1); down (q+1, r), (q+1, r+1), (q, r+1)
    v00, v10, v01, v11 = index[:-1, :-1], index[1:, :-1], index[:-1, 1:], index[1:, 1:]
    triangles = np.concatenate([np.stack([v00, v10, v01], axis=-1).reshape(-1, 3),
                                np.stack([v10, v11, v01], axis=-1).reshape(-1, 3)])
    triangles = triangles[(triangles >= 0).all(axis=1)]

    # the six corners are the boundary vertices on two sides of the patch
    n = len(rim)
    corners = np.flatnonzero(active[rim] >= 2)
    gap = np.abs(np.arange(n)[:, None] + 0.5 - corners)
    d = np.minimum(gap, n - gap).min(axis=1)    # from edge k's midpoint, in edges
    edge = 1.0 - _CORNER_SHRINK * np.exp(-(d / _CORNER_REACH) ** 2)
    fractions = np.concatenate([[0.0], np.cumsum(edge[:-1])]) / edge.sum()
    return triangles, len(order), fractions


def _harmonic_map(triangles: np.ndarray, rim: np.ndarray, n: int) -> np.ndarray:
    """The n points of the mesh whose first ``len(rim)`` vertices are pinned
    at ``rim`` and whose others are the mean of their neighbours: one sparse
    solve of the uniform graph Laplacian, with the boundary as Dirichlet
    data.  The Laplacian is symmetric positive definite, so SuperLU factors
    it in symmetric mode on a minimum-degree order.  scipy.sparse.linalg is
    imported here, so only a mesh build loads it."""
    from scipy.sparse.linalg import splu
    keys = _edge_keys(triangles, n)
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    v, w = keys // n, keys % n
    adj = sp.csr_matrix((np.ones(2 * len(keys)), (np.concatenate([v, w]), np.concatenate([w, v]))),
                        shape=(n, n))
    nb = len(rim)
    inner = adj[nb:]
    lap = sp.diags(np.asarray(inner.sum(axis=1)).ravel()) - inner[:, nb:]
    lu = splu(lap.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    return np.concatenate([rim, lu.solve(inner[:, :nb] @ rim)])


# --------------------------------------------------------------------------
# Relaxation (annulus, polar stars, and mapped meshes below the angle bound)
# --------------------------------------------------------------------------


def _relaxed_mesh(spec: DomainSpec, h: float, bnd_xy: np.ndarray,
                  n_loops: int) -> tuple[np.ndarray, np.ndarray]:
    """The points (``bnd_xy`` pinned, then the interior) and triangles of a
    relaxed mesh.

    Relaxation keeps its edge list between steps and retriangulates only
    after some vertex has moved more than 0.1 h since the last
    triangulation, by edge flips on the Delaunay triangulation it holds;
    Qhull triangulates the lattice once before relaxation, and the mesh
    takes its triangles from one more flip repair of the relaxed points, so
    a mesh costs one Qhull call.  Each triangulation keeps the triangles
    whose centroid lies inside the domain; a domain of one loop whose node
    polygon is convex skips that filter, since its triangulations cover the
    polygon and nothing more.  The force loop and the flip repair work on
    coordinate rows, which changes no mesh.  The lattice spans the largest
    radius of the outer loop, and the relaxed interior vertices are checked
    once to lie inside the domain.
    """
    domain = _RadialDomain(spec)
    # a Delaunay triangulation covers the convex hull of its points: when the
    # domain is one loop whose node polygon is convex, that hull is the
    # polygon, and the centroid filter has nothing to remove
    filter_centroids = n_loops > 1 or not _convex_polygon(bnd_xy)
    interior = _hex_lattice(h, domain)
    if not len(interior):
        raise MeshGenerationError(f"no interior vertex at h = {h}; try a smaller h")
    points, triangles = _relax(bnd_xy, interior, h, domain, filter_centroids)
    outside = np.count_nonzero(~domain.inside(points[len(bnd_xy):], margin=0.0))
    if outside:
        raise MeshGenerationError(
            f"vertex outside the domain after relaxation ({outside} of {len(interior)})")
    return points, triangles


def _hex_lattice(h: float, domain: _RadialDomain) -> np.ndarray:
    """The points of a hexagonal lattice of spacing h more than 0.7 h inside
    the domain; the lattice spans the largest radius of the outer loop."""
    lim = domain._rb.max() + h
    dy = h * math.sqrt(3.0) / 2.0
    rows = int(math.ceil(lim / dy))
    cols = int(math.ceil(lim / h))
    ys = dy * np.arange(-rows, rows + 1)
    pts = []
    for r, y in enumerate(ys):
        shift = 0.5 * h if (r - rows) % 2 else 0.0
        xs = h * np.arange(-cols, cols + 1) + shift
        pts.append(np.stack([xs, np.full_like(xs, y)], axis=1))
    pts = np.concatenate(pts)
    return pts[domain.inside(pts, margin=0.7 * h)]


def _convex_polygon(loop: np.ndarray) -> bool:
    """Whether the counter-clockwise node loop (P, 2) turns left at every
    node; a loop of a radial graph winds once, so it is then convex."""
    e = np.roll(loop, -1, axis=0) - loop
    en = np.roll(e, -1, axis=0)
    return bool((e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0] > 0).all())


def _relax(bnd: np.ndarray, interior: np.ndarray, h: float, domain: _RadialDomain,
           filter_centroids: bool) -> tuple[np.ndarray, np.ndarray]:
    """The points (``bnd`` pinned, then the interior) after at most
    ``_RELAX_ITERS`` steps of repulsive edge forces, and their triangles.

    One retriangulation step serves the loop, once some vertex has moved
    0.1 h since the last one (DistMesh's rule), and the relaxed points:
    Qhull the first time, Lawson's flips on the held triangulation after,
    then the centroid filter if ``filter_centroids``.

    The loop holds the points as coordinate rows (x, y) and runs the same
    floating-point operations as on (n, 2) points, so the result is the same
    bit for bit; Qhull, the centroid filter and the result see (n, 2) views.
    """
    n_bnd = len(bnd)
    xy = np.concatenate([bnd, interior]).T.copy()   # x in xy[0], y in xy[1]
    n = xy.shape[1]
    last = np.full_like(xy, np.inf)
    full = None

    def retriangulate() -> np.ndarray:
        nonlocal full
        pts = xy.T
        full = _delaunay_ccw(pts) if full is None else _flip_to_delaunay(pts, *full)
        return domain.triangles_inside(pts, full[0]) if filter_centroids else full[0]

    for _ in range(_RELAX_ITERS):
        dx, dy = xy - last
        if np.sqrt((dx * dx + dy * dy).max()) > 0.1 * h:
            last = xy.copy()
            keys = _edge_keys(retriangulate(), n)
            keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
            e0, e1 = keys // n, keys % n
            idx = np.concatenate([e0, e1])
        x, y = xy
        vx, vy = x[e0] - x[e1], y[e0] - y[e1]
        lng = np.sqrt(vx * vx + vy * vy)
        coef = np.maximum(_RELAX_FSCALE * h - lng, 0.0) / np.maximum(lng, 1e-12)
        fx, fy = vx * coef, vy * coef
        step = _RELAX_DT * np.stack([np.bincount(idx, np.concatenate([fx, -fx]), n),
                                     np.bincount(idx, np.concatenate([fy, -fy]), n)])[:, n_bnd:]
        xy[:, n_bnd:] += step
        if np.abs(step).max() < 1e-3 * h:
            break
    return xy.T.copy(), retriangulate()


def _edge_key(v: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """The key min(v, w) * n + max(v, w) of the edge between vertices v and w
    of an n-vertex mesh."""
    return np.minimum(v, w).astype(np.int64) * n + np.maximum(v, w)


def _edge_keys(triangles: np.ndarray, n: int) -> np.ndarray:
    """The key of every triangle side, sorted; an edge shared by two
    triangles appears twice."""
    keys = _edge_key(triangles.ravel(), triangles[:, [1, 2, 0]].ravel(), n)
    keys.sort()
    return keys


def _signed_area(xy: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas of the triangles over the coordinate rows ``xy`` (2, N),
    positive for counter-clockwise ones."""
    (x0, x1, x2), (y0, y1, y2) = (row[triangles.T] for row in xy)
    return 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


# --------------------------------------------------------------------------
# Delaunay repair by Lawson's edge flips
# --------------------------------------------------------------------------

_FLIP_TIE = 1e-10       # in-circle determinants below this share of max|p - d|^4 are ties
_FLIP_PASSES = 100      # a repair that has not settled by then re-seeds from Qhull


def Delaunay(points: np.ndarray):
    """Qhull's Delaunay triangulation, scipy.spatial's ``Delaunay(points)``.
    scipy.spatial is imported on the first call, so only a mesh build loads
    it; `_delaunay_ccw` looks this name up at each call."""
    from scipy.spatial import Delaunay as qhull
    return qhull(points)


def _delaunay_ccw(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Qhull's Delaunay triangulation of all the points, counter-clockwise,
    and its neighbour table: ``nbr[t, k]`` is the triangle across the edge
    opposite vertex k of triangle t, or -1 on the convex hull."""
    d = Delaunay(points)
    tri, nbr = d.simplices.copy(), d.neighbors.copy()
    cw = _signed_area(points.T, tri) < 0
    tri[cw] = tri[cw][:, [0, 2, 1]]
    nbr[cw] = nbr[cw][:, [0, 2, 1]]
    return tri, nbr


def _flip_to_delaunay(points: np.ndarray, tri: np.ndarray,
                      nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Delaunay triangulation of moved points, repaired in place from a
    counter-clockwise triangulation ``(tri, nbr)`` of the same points.

    An edge is illegal when the vertex across it lies inside the circumcircle
    of the triangle on this side (Lawson 1977); a triangulation without
    illegal edges is Delaunay.  Each pass flips a batch of illegal edges in
    which no triangle appears twice, then checks only the edges of the
    triangles it touched.  Ties (cocircular nodes such as a circular rim or
    hole) are never flipped.  If a vertex has moved across an edge, so that
    some triangle is no longer counter-clockwise, Qhull starts afresh.
    """
    xy = points.T
    if (_signed_area(xy, tri) <= 0).any():
        return _delaunay_ccw(points)
    t, k = np.nonzero(nbr > np.arange(len(tri))[:, None])    # every interior edge once
    for _ in range(_FLIP_PASSES):
        u = nbr[t, k]
        ku = np.argmax(nbr[u] == t[:, None], axis=1)
        a, b, c, d = tri[t, k], tri[t, (k + 1) % 3], tri[t, (k + 2) % 3], tri[u, ku]
        bad = _in_circle(xy, a, b, c, d)
        if not bad.any():
            return tri, nbr
        t, k, u, ku, a, b, c, d = (x[bad] for x in (t, k, u, ku, a, b, c, d))
        # flip each edge that is the first illegal edge of both its triangles
        e = np.arange(len(t))
        first = np.full(len(tri), len(t))
        np.minimum.at(first, t, e)
        np.minimum.at(first, u, e)
        go = (first[t] == e) & (first[u] == e)
        ft, fu = t[go], u[go]
        touched = np.concatenate([ft, fu, nbr[ft].ravel(), nbr[fu].ravel()])
        # the quad a, b, d, c (counter-clockwise) gets the diagonal a-d
        tri[ft] = np.stack([a[go], b[go], d[go]], axis=1)
        tri[fu] = np.stack([a[go], d[go], c[go]], axis=1)
        nbr[ft] = nbr[fu] = -1
        _link(tri, nbr, np.unique(touched[touched >= 0]), len(points))
        cand = np.unique(np.concatenate([t, u]))
        t, k = np.repeat(cand, 3), np.tile(np.arange(3), len(cand))
        inner = nbr[t, k] >= 0
        t, k = t[inner], k[inner]
    return _delaunay_ccw(points)


def _in_circle(xy: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray,
               d: np.ndarray) -> np.ndarray:
    """Whether d lies strictly inside the circumcircle of the counter-clockwise
    triangle (a, b, c), by more than the tie tolerance; the points are the
    coordinate rows ``xy`` (2, N)."""
    x, y = xy
    xd, yd = x[d], y[d]
    adx, ady = x[a] - xd, y[a] - yd
    bdx, bdy = x[b] - xd, y[b] - yd
    cdx, cdy = x[c] - xd, y[c] - yd
    la, lb, lc = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
    det = (la * (bdx * cdy - cdx * bdy)
           + lb * (cdx * ady - adx * cdy)
           + lc * (adx * bdy - bdx * ady))
    return det > _FLIP_TIE * np.maximum(np.maximum(la, lb), lc) ** 2


def _link(tri: np.ndarray, nbr: np.ndarray, s: np.ndarray, n: int) -> None:
    """Point ``nbr`` across every edge that two of the triangles ``s`` share;
    the entries of the other edges are left as they are."""
    ts, ks = np.repeat(s, 3), np.tile(np.arange(3), len(s))
    v, w = tri[ts, (ks + 1) % 3], tri[ts, (ks + 2) % 3]
    key = _edge_key(v, w, n)
    order = np.argsort(key)
    same = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    i, j = order[same], order[same + 1]
    nbr[ts[i], ks[i]] = ts[j]
    nbr[ts[j], ks[j]] = ts[i]


def _assemble_mesh(
    spec: DomainSpec,
    h: float,
    points: np.ndarray,
    triangles: np.ndarray,
    curves: list[BoundaryCurve],
    loops_params: list[np.ndarray],
    loops_arcs: list[np.ndarray],
    lengths: list[float],
) -> TriMesh:
    p = np.take(points, triangles, axis=0)
    areas = _signed_area(points.T, triangles)
    if not (areas > 0).all():
        raise MeshGenerationError("degenerate triangle with nonpositive area")
    # gradient of barycentric basis function i: perpendicular of opposite edge / (2A)
    grads = np.empty((len(triangles), 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * areas)[:, None, None]

    qp = np.einsum("qk,mki->mqi", QUAD_BARY, p).reshape(-1, 2)
    qw = (_QUAD_WEIGHTS[None, :] * areas[:, None]).reshape(-1)

    offset = 0
    loops = []
    for params in loops_params:
        loops.append(np.arange(offset, offset + len(params)))
        offset += len(params)

    boundary = _exact_boundary(curves, loops_params, loops_arcs, lengths)
    return TriMesh(
        spec=spec,
        h=h,
        points=points,
        triangles=triangles,
        boundary_loops=loops,
        basis_grads=grads,
        quad_points=qp,
        quad_weights=qw,
        boundary=boundary,
    )


def _check_boundary_edges(mesh: TriMesh) -> None:
    n = mesh.n_vertices
    keys = _edge_keys(mesh.triangles, n)
    step = keys[1:] != keys[:-1]
    mesh_bnd = keys[np.concatenate([[True], step]) & np.concatenate([step, [True]])]
    loops = np.concatenate(mesh.boundary_loops)
    succ = np.concatenate([np.roll(loop, -1) for loop in mesh.boundary_loops])
    expected = np.unique(_edge_key(loops, succ, n))
    if not np.array_equal(mesh_bnd, expected):
        raise MeshGenerationError(
            "triangulation boundary does not match the parametric loops "
            f"({len(np.setxor1d(mesh_bnd, expected))} mismatched edges); try a smaller h"
        )


# --------------------------------------------------------------------------
# Exact boundary geometry
# --------------------------------------------------------------------------


@dataclass
class BoundaryGeometry:
    """Exact per-node boundary data evaluated on the parametric curve.

    Mean curvature uses the convention (n-1) H = div of the outward normal
    along the boundary, so a disk of radius R has H = 1/R at every node.
    """

    position: np.ndarray        # (B, 2)
    normal: np.ndarray          # (B, 2) outward unit normal
    curvature: np.ndarray       # (B,) scalar mean curvature H
    weight: np.ndarray          # (B,) arc-length quadrature weight
    arclength: np.ndarray       # (B,) arc-length coordinate within the loop


def _exact_boundary(curves: list[BoundaryCurve], loops_params: list[np.ndarray],
                    loops_arcs: list[np.ndarray], lengths: list[float]) -> BoundaryGeometry:
    """The curve's data at each loop's node parameters.  The arc weight of
    node k is its trapezoid weight (s_{k+1} - s_{k-1}) / 2 over the node arc
    lengths s of a loop of length L, which wrap as s_n = s_0 + L; equally
    spaced nodes get L/n up to rounding."""
    pos, nor, cur, wgt = [], [], [], []
    for curve, params, s, L in zip(curves, loops_params, loops_arcs, lengths):
        pos.append(curve.point(params))
        nor.append(curve.normal(params))
        cur.append(curve.curvature(params))
        gap = np.roll(s, -1) - np.roll(s, 1)
        gap[[0, -1]] += L
        wgt.append(0.5 * gap)
    return BoundaryGeometry(
        position=np.concatenate(pos),
        normal=np.concatenate(nor),
        curvature=np.concatenate(cur),
        weight=np.concatenate(wgt),
        arclength=np.concatenate(loops_arcs),
    )


def boundary_geometry(spec: DomainSpec, mesh: TriMesh) -> BoundaryGeometry:
    """Exact normal, curvature and arc-length weights at the mesh boundary nodes."""
    if spec != mesh.spec:
        raise ValidationError("mesh was generated from a different domain spec")
    return mesh.boundary


@dataclass(frozen=True)
class Measures:
    volume: float
    perimeter: float
    # the read-only weights they sum: e^{2 phi} dx at `mesh.quad_points`
    # and e^{phi} ds at the boundary nodes
    volume_weights: np.ndarray = field(compare=False, repr=False)
    boundary_weights: np.ndarray = field(compare=False, repr=False)

    @property
    def h0(self) -> float:
        """H0 = |boundary| / (n |domain|), the mean curvature of a ball with
        these measures."""
        return self.perimeter / (DIM * self.volume)


def domain_measures(mesh: TriMesh, metric) -> Measures:
    """The metric's volume and length weights and their sums (Euclidean for
    the flat metric, whose factors are exp(0) = 1), once per mesh and metric;
    every integral against e^{2 phi} dx or e^{phi} ds takes its weights here."""

    def build() -> Measures:
        bg = mesh.boundary
        vol_w = mesh.quad_weights * np.exp(2.0 * metric.phi(mesh.quad_points))
        bnd_w = bg.weight * np.exp(metric.phi(bg.position))
        vol_w.flags.writeable = bnd_w.flags.writeable = False
        return Measures(float(np.sum(vol_w)), float(np.sum(bnd_w)), vol_w, bnd_w)

    return mesh.derived(("measures", metric), build)
