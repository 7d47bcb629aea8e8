"""Planar domains with smooth parametric boundaries and their triangulations.

Domains come from a small catalogue (disk, ellipse, polar star, annulus).
The disk, and the outer loop of the annulus, are the polar star r(theta) = R
with no coefficients.  Every mesh pins its boundary vertices exactly on the
parametric curve, so boundary data (normal, curvature, arc-length weights)
can be evaluated from closed forms instead of the polygon; a node's arc
weight is its trapezoid weight over the node arc lengths.

Each domain has one mesher.  The disk and the ellipse map a hexagonal patch
of the triangular lattice onto the domain by one discrete harmonic map
(elliptic grid generation; Thompson, Warsi & Mastin, 1985), so every
interior vertex has degree 6 and the recovered derivatives keep the
superconvergence of mildly structured grids (Xu & Zhang, Math. Comp. 73,
2004); the patch's six corners sit on the boundary, where graded edges, or
where those pinch the Schwarz-Christoffel rim (Driscoll & Trefethen, 2002),
hold the angle bound.  The annulus wraps the triangular lattice round the
cylinder w -> r_in e^w, which has no corner, so every interior vertex has
degree 6 there too.  The polar stars with coefficients are meshed by a
truss-relaxation variant of Delaunay meshing.  As in DistMesh (Persson &
Strang, SIAM Review 46, 2004), relaxation retriangulates lazily, by Qhull:
only after some vertex has moved more than 0.1 h since the last
triangulation.  Only a star's mesh calls Qhull.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Union

import numpy as np

from ._band import band_cholesky
from ._sparse import Compressed
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

    def inside(self, pts: np.ndarray, margin: float) -> np.ndarray:
        """Points (P, 2) more than about ``margin`` inside the star: below
        r(theta) - margin / cos(psi) along their ray, where psi is the angle
        between the ray and the outward normal, cos(psi) = r / sqrt(r^2 + r'^2),
        clipped to [0.2, 1]."""
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        r = self.r(theta)
        cospsi = np.clip(r / self.speed(theta), 0.2, 1.0)
        return np.linalg.norm(pts, axis=-1) < r - margin / cospsi


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
    # state that depends on the mesh alone (minimum angle, quadrature
    # interpolation, point locator, measures and curvature per metric,
    # recovery products and normal factors, assembly maps, trace sample
    # sites, the scan's incidence and boundary mask, the oracles' radii),
    # built by `derived` on first use and shared by every case; not an init
    # field, so that a `dataclasses.replace` copy starts with none of it
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        largest cosine, as arccos is decreasing.  `build_mesh` evaluates it
        for the angle bound, and every later call reads that value."""
        return self.derived("min_angle_deg", self._min_angle_deg)

    def _min_angle_deg(self) -> float:
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

    def interpolation(self, tri: np.ndarray, bary: np.ndarray) -> Compressed:
        """The (P, N) CSR matrix of P1 interpolation at points given as
        (triangle, barycentric), as ``locate`` returns them."""
        return Compressed("csr", bary.ravel(), self.triangles[tri].ravel(),
                          np.arange(0, 3 * len(tri) + 1, 3), (len(tri), self.n_vertices))

    def quad_interpolation(self) -> Compressed:
        """`interpolation` at the quadrature points, in the order of
        ``quad_points``: every triangle holds them at the same barycentrics
        ``QUAD_BARY``.  It is built once per mesh."""
        nq, m = len(QUAD_BARY), self.n_triangles
        return self.derived("quad_interpolation", lambda: self.interpolation(
            np.repeat(np.arange(m), nq), np.tile(QUAD_BARY, (m, 1))))

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(triangle, barycentric, found) per point of the (P, 2) ``pts``:
        `_PointLocator.locate`.  A non-finite coordinate is a
        ``ValidationError``."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if not np.isfinite(pts).all():
            raise ValidationError("cannot locate a point with a non-finite coordinate")
        return self.derived("locator", lambda: _PointLocator(self)).locate(pts)


class _PointLocator:
    """A uniform grid of buckets over the triangles' centroids.

    The cells are squares of side just over the largest distance from a
    triangle's centroid to its corners, so the centroid of a triangle that
    contains a point lies in the point's cell or in one of its 8
    neighbours: those triangles are the point's candidates.  A ring of
    empty cells borders the grid, and a point off the grid takes the
    nearest cell inside the ring."""

    def __init__(self, mesh: TriMesh):
        corners = mesh.points[mesh.triangles]                       # (M, 3, 2)
        centroids = (corners[:, 0] + corners[:, 1] + corners[:, 2]) / 3.0
        # coordinate-major, (8, M): the centroid, then the slopes of the
        # three barycentric coordinates in x, then in y
        self.table = np.concatenate(
            [centroids.T, mesh.basis_grads.transpose(2, 1, 0).reshape(6, -1)])
        offset = corners - centroids[:, None]
        self.side = 1.001 * math.sqrt(float((offset[..., 0] ** 2 + offset[..., 1] ** 2).max()))
        self.low = centroids.min(axis=0)
        cell = np.floor((centroids - self.low) / self.side).astype(np.intp) + 1
        self.shape = cell.max(axis=0) + 2
        key = cell[:, 0] * self.shape[1] + cell[:, 1]
        # cell k holds triangles by_cell[first[k]:first[k + 1]], in increasing index
        self.by_cell = np.argsort(key, kind="stable")
        self.first = np.concatenate(
            [[0], np.cumsum(np.bincount(key, minlength=int(self.shape.prod())))])
        self.block = (_BLOCK[0] * self.shape[1] + _BLOCK[1])[None, :]

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per point, its deepest candidate: the one whose least barycentric
        coordinate is largest, the first in candidate order on a tie, with
        the coordinates clipped at 0 and renormalised.  ``found`` tells the
        points whose deepest candidate contains them, up to 1e-12 in
        barycentric terms.  A point that none contains gets the candidate it
        is least outside of, and a point with no candidate triangle 0 and
        zero coordinates; no caller reads either."""
        point, tri = self._candidates(pts)
        # lambda = 1/3 + grad lambda . (x - centroid), affine in x
        t = np.take(self.table, tri, axis=1)
        x = np.take(pts, point, axis=0)
        bary = 1.0 / 3.0 + t[2:5] * (x[:, 0] - t[0]) + t[5:8] * (x[:, 1] - t[1])   # (3, E)
        depth = np.minimum(np.minimum(bary[0], bary[1]), bary[2])
        tri_out = np.zeros(len(pts), dtype=np.intp)
        bary_out = np.zeros((len(pts), 3))
        found = np.zeros(len(pts), dtype=bool)
        if len(point):
            # the candidates come grouped by point: the first deepest of each group
            start = np.flatnonzero(np.concatenate([[True], point[1:] != point[:-1]]))
            best = np.maximum.reduceat(depth, start)
            deepest = depth == np.repeat(best, np.diff(start, append=len(point)))
            pick = np.minimum.reduceat(np.where(deepest, np.arange(len(point)), len(point)), start)
            has = point[start]
            tri_out[has], bary_out[has], found[has] = tri[pick], bary[:, pick].T, best >= -1e-12
        bary_out = np.clip(bary_out, 0.0, None)
        s = bary_out.sum(axis=1)
        bary_out[s > 0] /= s[s > 0, None]
        return tri_out, bary_out, found

    def _candidates(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point, triangle) pairs, grouped by point: the triangles whose
        centroid lies in the 3 x 3 cells about the point's."""
        cell = np.clip(np.floor((pts - self.low) / self.side) + 1, 1, self.shape - 2).astype(np.intp)
        key = (cell[:, 0] * self.shape[1] + cell[:, 1])[:, None] + self.block     # (P, 9)
        lo = self.first[key].ravel()
        count = self.first[key + 1].ravel() - lo
        ends = np.cumsum(count)
        slot = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + count, count)
        return np.repeat(np.arange(len(pts)).repeat(key.shape[1]), count), self.by_cell[slot]


# the 3 x 3 block of grid cells about a point's: row and column offsets
_BLOCK = np.repeat([-1, 0, 1], 3), np.tile([-1, 0, 1], 3)


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
    Each domain has one mesher:

    * The disk, the ellipse and the polar star with no coefficients map a
      hexagonal patch of the triangular lattice onto the domain
      (`_lattice_patch`).  The patch's boundary vertices go onto the curve
      in order, and the interior vertices solve one discrete harmonic map
      with uniform weights (`_harmonic_map`), which cannot fold on a convex
      domain (Floater, Math. Comp. 72, 2003).  Every interior vertex keeps
      the lattice's degree 6.  The boundary edges are graded to shorten at
      the patch's six corners (`_corner_graded`); that grading pinches the
      triangles at the corners as h falls and as the ellipse lengthens
      (17.5 degrees on the 2:1 ellipse at h = 0.0125, 19.6 on the 3:1 one
      at h = 0.025), and a mesh below the angle bound is mapped again with
      the Schwarz-Christoffel rim (`_schwarz_christoffel`), which holds the
      angle as h falls.
    * The annulus wraps the triangular lattice round the cylinder
      w -> r_in e^w (`_lattice_cylinder`): no corner, and every interior
      vertex of degree 6.
    * The other polar stars relax: boundary vertices sit at equal arc-length
      spacing, and interior vertices start on a hexagonal lattice and relax
      under repulsive edge forces until the triangulation is near-uniform
      (`_relaxed_mesh`).

    Every mesh numbers its boundary vertices first, loop after loop, and its
    interior in a narrow band: by lattice rows (disk, ellipse), by cylinder
    columns (annulus) or in reverse Cuthill-McKee order (the relaxed stars).
    The solver factors its tangents in that numbering.

    A mesh must match its parametric boundary loops edge for edge and meet
    the minimum-angle bound ``_MIN_ANGLE_DEG``; a domain with no mesh that
    meets it is a MeshGenerationError with the last angle achieved.
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
        points, the boundary points first, and triangles ``place`` makes
        from the boundary points."""
        loops_params = [np.interp(arcs, s, t) for (t, s), arcs in zip(tables, loops_arcs)]
        bnd_xy = np.concatenate([c.point(t) for c, t in zip(curves, loops_params)])
        points, triangles = place(bnd_xy)
        mesh = _assemble_mesh(spec, h, points, triangles, curves, loops_params, loops_arcs,
                              lengths)
        _check_boundary_edges(mesh)
        return mesh

    def candidates():
        """The meshes to try, in order."""
        aspect = _lattice_aspect(spec)
        if isinstance(spec, Annulus):
            triangles, interior, fractions = _lattice_cylinder(spec.r_in, spec.r_out, h)
            yield mesh_from([L * f for L, f in zip(lengths, fractions)],
                            lambda bnd: (np.concatenate([bnd, interior]), triangles))
        elif aspect is not None:
            triangles, n_vertices, corner_gap, side = _lattice_patch(aspect, lengths[0] / h)

            def mapped(edge: np.ndarray) -> TriMesh:
                """The mapped mesh whose rim edges, from node 0, have the
                relative lengths ``edge``."""
                fractions = np.concatenate([[0.0], np.cumsum(edge[:-1])]) / edge.sum()
                return mesh_from([lengths[0] * fractions], lambda bnd: (
                    _harmonic_map(triangles, bnd, n_vertices), triangles))

            yield mapped(_corner_graded(corner_gap))
            yield mapped(_schwarz_christoffel(corner_gap, side))
        else:
            n = max(8, int(round(lengths[0] / h)))
            yield mesh_from([lengths[0] * np.arange(n) / n],
                            lambda bnd: _relaxed_mesh(spec, h, bnd))

    for mesh in candidates():
        min_angle = mesh.min_angle_deg()
        if min_angle >= _MIN_ANGLE_DEG:
            return mesh
    raise MeshGenerationError(
        f"mesh quality below bound: min angle {min_angle:.2f} deg < {_MIN_ANGLE_DEG} deg",
        achieved_min_angle_deg=min_angle,
    )


def _grid_triangles(index: np.ndarray) -> np.ndarray:
    """The triangles of both families of the triangular lattice over its
    vertex index grid ``index[q, r]`` of the points q e1 + r e2, with
    e1 = (1, 0) and e2 = (1/2, sqrt 3/2): up (q, r), (q+1, r), (q, r+1) and
    down (q+1, r), (q+1, r+1), (q, r+1), counter-clockwise in the lattice
    plane.  Triangles with a vertex of index -1 are left out."""
    v00, v10, v01, v11 = index[:-1, :-1], index[1:, :-1], index[:-1, 1:], index[1:, 1:]
    triangles = np.concatenate([np.stack([v00, v10, v01], axis=-1).reshape(-1, 3),
                                np.stack([v10, v11, v01], axis=-1).reshape(-1, 3)])
    return triangles[(triangles >= 0).all(axis=1)]


# --------------------------------------------------------------------------
# Lattice cylinder (annulus)
# --------------------------------------------------------------------------


def _lattice_cylinder(r_in: float, r_out: float,
                      h: float) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The triangular lattice wrapped round the annulus by w -> r_in e^w.

    It has n = round(2 pi r_out / h) columns and m = round(ln(r_out/r_in) /
    (sqrt 3 pi / n)) row steps, the lattice's row spacing over its column
    spacing 2 pi / n.  Row j lies on the circle r_in e^{j ln(r_out/r_in) / m}
    and odd rows are half a column round.  The vertices are numbered outer
    loop (row m) first, counter-clockwise, then the inner loop (row 0) in
    its clockwise order, then the interior column by column, in the order
    0, 1, n - 1, 2, n - 2, ...: each column's neighbours are at most two
    columns on in that order, so the solver's tangent has a band of about
    2m on it.  Fewer than 2 row steps leave no interior vertex, which is a
    mesh error.

    Returns the triangles, counter-clockwise, from the index grid; the
    interior points, in their numbering; and the outer and inner loops'
    node arc lengths as fractions of the loop.
    """
    n = int(round(TWO_PI * r_out / h))
    m = int(round(math.log(r_out / r_in) / (math.sqrt(3.0) * math.pi / n)))
    if m < 2:
        raise MeshGenerationError(f"no interior vertex at h = {h}; try a smaller h")
    j, c = np.meshgrid(np.arange(m + 1), np.arange(n), indexing="ij")
    place = np.maximum(np.minimum(2 * c - 1, 2 * (n - c)), 0)    # of column c in that order
    ids = np.where(j == m, c, np.where(j == 0, n + (-c) % n, 2 * n + (m - 1) * place + j - 1))
    # lattice point (q, r) is column q + r // 2 (mod n) of row r
    q, r = np.meshgrid(np.arange(n + 1), np.arange(m + 1), indexing="ij")
    # w -> r_in e^w takes the lattice plane's (column, row) axes to the
    # angle and the radius, which reverses orientation
    triangles = _grid_triangles(ids[r, (q + r // 2) % n])[:, ::-1].copy()
    theta = TWO_PI / n * (c + (j % 2) / 2)
    rho = r_in * np.exp(math.log(r_out / r_in) / m * j)
    interior = np.empty(((m - 1) * n, 2))
    interior[ids[1:-1] - 2 * n] = np.stack([rho * np.cos(theta), rho * np.sin(theta)],
                                           axis=-1)[1:-1]
    return triangles, interior, [(np.arange(n) + (m % 2) / 2) / n, np.arange(n) / n]


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
    circle), and None for the other domains."""
    if isinstance(spec, Ellipse):
        return spec.a / spec.b
    if isinstance(spec, Disk) or (isinstance(spec, PolarStar)
                                  and not any(spec.cos_coeffs + spec.sin_coeffs)):
        return 1.0
    return None


def _lattice_patch(aspect: float, n_rim: float) -> tuple[np.ndarray, int, np.ndarray, int]:
    """The hexagonal patch of the triangular lattice q e1 + r e2: the points
    with |q| <= A, |r| <= B and |q + r| <= A, where A = round(B aspect) and
    B makes the boundary count 4A + 2B nearest ``n_rim``.

    The vertices are numbered boundary first, counter-clockwise from the
    corner (A, 0), then the interior row by row.  Returns the triangles of
    both lattice families, counter-clockwise, from the index grid; the
    vertex count; each boundary edge's distance in edges from its midpoint
    to the nearest of the six corners; and B, the length in edges of the
    four short sides.
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
    triangles = _grid_triangles(index.reshape(2 * A + 1, 2 * B + 1))

    # the six corners are the boundary vertices on two sides of the patch
    n = len(rim)
    corners = np.flatnonzero(active[rim] >= 2)
    gap = np.abs(np.arange(n)[:, None] + 0.5 - corners)
    return triangles, len(order), np.minimum(gap, n - gap).min(axis=1), B


def _corner_graded(corner_gap: np.ndarray) -> np.ndarray:
    """The relative boundary edge lengths 1 - 0.6 exp(-(d/3)^2), d edges
    from the nearest patch corner."""
    return 1.0 - _CORNER_SHRINK * np.exp(-(corner_gap / _CORNER_REACH) ** 2)


def _schwarz_christoffel(corner_gap: np.ndarray, side: int) -> np.ndarray:
    """The relative boundary edge lengths that the Schwarz-Christoffel map
    of the disk onto the regular hexagon, f(w) = int (1 - s^6)^(-1/3) ds,
    gives a side of ``side`` edges (Driscoll & Trefethen, *Schwarz-Christoffel
    Mapping*, 2002).

    A corner's prevertex is at circle arc 0 and the mid-side's at pi/6, and
    the hexagon arc length from the corner is proportional to the
    regularized incomplete beta function I(sin^2 3 psi; 1/3, 1/2).  So the
    k = side // 2 equal steps of a half side sit at the circle arcs
    psi_j = arcsin(sqrt(I^-1(1/3, 1/2; j / k))) / 3, and edge j from a
    corner (``corner_gap`` j - 1/2) has the relative length
    psi_j - psi_{j-1}; an edge further than k from every corner, in the
    middle of a side of odd or of long length, has the mid-side one.
    scipy.special is imported here, so only this rim loads it.
    """
    from scipy.special import betaincinv
    k = max(side // 2, 1)
    psi = np.arcsin(np.sqrt(betaincinv(1.0 / 3.0, 0.5, np.arange(k + 1) / k))) / 3.0
    return np.diff(psi)[np.minimum(corner_gap + 0.5, k).astype(int) - 1]


def _harmonic_map(triangles: np.ndarray, rim: np.ndarray, n: int) -> np.ndarray:
    """The n points of the mesh whose first ``len(rim)`` vertices are pinned
    at ``rim`` and whose others are the mean of their neighbours: one solve
    of the uniform graph Laplacian on the interior vertices, with the
    boundary as Dirichlet data.  The Laplacian is symmetric positive
    definite, and the lattice numbers the interior row by row, so every
    interior edge lies within a narrow band about its diagonal: the banded
    Cholesky of ``_band`` factors it in that order.  Its pattern is the
    interior edges, the solver's tangent's, so the two bands have the same
    half-width."""
    keys = _edge_keys(triangles, n)
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    v, w = keys // n, keys % n      # v < w
    nb = len(rim)
    ni = n - nb
    degree = np.bincount(np.concatenate([v, w]), minlength=n)[nb:]
    inner = v >= nb
    # a boundary neighbour's pinned point goes to the right-hand side
    cross = (v < nb) & (w >= nb)
    rhs = np.stack([np.bincount(w[cross] - nb, weights=rim[v[cross], k], minlength=ni)
                    for k in range(DIM)], axis=1)
    factor = band_cholesky(np.concatenate([np.arange(ni), v[inner] - nb]),
                           np.concatenate([np.arange(ni), w[inner] - nb]),
                           np.concatenate([degree, -np.ones(int(inner.sum()))]), ni)
    return np.concatenate([rim, factor.solve(rhs)])


# --------------------------------------------------------------------------
# Relaxation (the polar stars with coefficients)
# --------------------------------------------------------------------------


def _relaxed_mesh(spec: PolarStar, h: float, bnd_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points (``bnd_xy`` pinned, then the interior, in reverse
    Cuthill-McKee order) and triangles of a relaxed mesh.

    Relaxation keeps its edge list between steps and retriangulates only
    after some vertex has moved more than 0.1 h since the last
    triangulation, and once more for the relaxed points: each time by Qhull,
    keeping the triangles whose centroid lies inside the domain.  The force
    loop works on coordinate rows, which changes no mesh.  The lattice spans
    the largest radius of the loop, and the relaxed interior vertices are
    checked once to lie inside the domain.
    """
    interior = _hex_lattice(h, spec)
    if not len(interior):
        raise MeshGenerationError(f"no interior vertex at h = {h}; try a smaller h")
    points, triangles = _relax(bnd_xy, interior, h, spec)
    nb, n = len(bnd_xy), len(points)
    outside = np.count_nonzero(~spec.inside(points[nb:], margin=0.0))
    if outside:
        raise MeshGenerationError(
            f"vertex outside the domain after relaxation ({outside} of {len(interior)})")
    # relaxation bends the lattice rows, so the interior is numbered in the
    # reverse Cuthill-McKee order of its edge graph (George & Liu, 1981),
    # which keeps the solver's tangent in a narrow band
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    keys = np.unique(_edge_keys(triangles, n))
    v, w = keys // n - nb, keys % n - nb
    inner = v >= 0
    graph = sp.csr_matrix((np.ones(np.count_nonzero(inner)), (v[inner], w[inner])),
                          shape=(n - nb, n - nb))
    # reverse_cuthill_mckee adds the transpose, which makes the graph symmetric
    order = np.concatenate([np.arange(nb), nb + reverse_cuthill_mckee(graph)])
    number = np.empty(n, dtype=triangles.dtype)
    number[order] = np.arange(n)
    return points[order], number[triangles]


def _hex_lattice(h: float, spec: PolarStar) -> np.ndarray:
    """The points of a hexagonal lattice of spacing h more than 0.7 h inside
    the star; the lattice spans the largest radius of the loop."""
    lim = spec.r(_STAR_THETA).max() + h
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
    return pts[spec.inside(pts, margin=0.7 * h)]


def _relax(bnd: np.ndarray, interior: np.ndarray, h: float,
           spec: PolarStar) -> tuple[np.ndarray, np.ndarray]:
    """The points (``bnd`` pinned, then the interior) after at most
    ``_RELAX_ITERS`` steps of repulsive edge forces, and their triangles.

    One retriangulation step serves the loop, once some vertex has moved
    0.1 h since the last one (DistMesh's rule), and the relaxed points:
    Qhull, then the centroid filter.

    The loop holds the points as coordinate rows (x, y) and runs the same
    floating-point operations as on (n, 2) points, so the result is the same
    bit for bit; Qhull, the centroid filter and the result see (n, 2) views.
    """
    n_bnd = len(bnd)
    xy = np.concatenate([bnd, interior]).T.copy()   # x in xy[0], y in xy[1]
    n = xy.shape[1]
    last = np.full_like(xy, np.inf)

    def retriangulate() -> np.ndarray:
        pts = xy.T
        return _triangles_inside(spec, pts, _delaunay_ccw(pts))

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


def _triangles_inside(spec: PolarStar, points: np.ndarray,
                      triangles: np.ndarray) -> np.ndarray:
    """The triangles whose centroid lies inside the star."""
    return triangles[spec.inside(np.take(points, triangles, axis=0).mean(axis=1), margin=0.0)]


def Delaunay(points: np.ndarray):
    """Qhull's Delaunay triangulation, scipy.spatial's ``Delaunay(points)``.
    scipy.spatial is imported on the first call, so only a star's mesh
    build loads it; `_delaunay_ccw` looks this name up at each call."""
    from scipy.spatial import Delaunay as qhull
    return qhull(points)


def _delaunay_ccw(points: np.ndarray) -> np.ndarray:
    """Qhull's Delaunay triangulation of all the points, counter-clockwise."""
    tri = Delaunay(points).simplices.copy()
    cw = _signed_area(points.T, tri) < 0
    tri[cw] = tri[cw][:, [0, 2, 1]]
    return tri


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

    # the boundary vertices are numbered first, loop after loop
    offset = 0
    loops = []
    for params in loops_params:
        loops.append(np.arange(offset, offset + len(params)))
        offset += len(params)

    boundary = _exact_boundary(curves, points[:offset], loops_params, loops_arcs, lengths)
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


def _exact_boundary(curves: list[BoundaryCurve], position: np.ndarray,
                    loops_params: list[np.ndarray], loops_arcs: list[np.ndarray],
                    lengths: list[float]) -> BoundaryGeometry:
    """The curve's data at each loop's node parameters, whose points
    ``position`` are already on the curve.  The arc weight of node k is its
    trapezoid weight (s_{k+1} - s_{k-1}) / 2 over the node arc lengths s of a
    loop of length L, which wrap as s_n = s_0 + L; equally spaced nodes get
    L/n up to rounding."""
    nor, cur, wgt = [], [], []
    for curve, params, s, L in zip(curves, loops_params, loops_arcs, lengths):
        nor.append(curve.normal(params))
        cur.append(curve.curvature(params))
        gap = np.roll(s, -1) - np.roll(s, 1)
        gap[[0, -1]] += L
        wgt.append(0.5 * gap)
    return BoundaryGeometry(
        position=position,
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
    # the read-only Gaussian curvature K = -e^{-2 phi} Delta phi at
    # `mesh.quad_points`, and the largest Delta phi there (Ric >= 0 is
    # Delta phi <= 0: `metric.check_nonnegative_ricci`)
    curvature: np.ndarray = field(compare=False, repr=False)
    laplacian_max: float = field(compare=False, repr=False)

    @property
    def h0(self) -> float:
        """H0 = |boundary| / (n |domain|), the mean curvature of a ball with
        these measures."""
        return self.perimeter / (DIM * self.volume)


def domain_measures(mesh: TriMesh, metric) -> Measures:
    """The metric's volume and length weights and their sums (Euclidean for
    the flat metric, whose factors are exp(0) = 1), and its curvature at the
    quadrature points, once per mesh and metric; every integral against
    e^{2 phi} dx or e^{phi} ds takes its weights here, and every case on the
    mesh its K and Delta phi."""

    def build() -> Measures:
        bg = mesh.boundary
        phi = metric.phi(mesh.quad_points)
        lap = metric.laplacian_phi(mesh.quad_points)
        vol_w = mesh.quad_weights * np.exp(2.0 * phi)
        bnd_w = bg.weight * np.exp(metric.phi(bg.position))
        # the formula of `metric.gaussian_curvature`, so K is its value bit for bit
        curv = -np.exp(-2.0 * phi) * lap
        vol_w.flags.writeable = bnd_w.flags.writeable = curv.flags.writeable = False
        return Measures(float(np.sum(vol_w)), float(np.sum(bnd_w)), vol_w, bnd_w,
                        curv, float(lap.max()))

    return mesh.derived(("measures", metric), build)
