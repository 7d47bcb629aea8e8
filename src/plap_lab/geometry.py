"""Planar domains with smooth parametric boundaries and their triangulations.

Domains come from a small catalogue (disk, ellipse, polar star, annulus).
The disk, and the outer loop of the annulus, are the polar star r(theta) = R
with no coefficients.  Meshes are generated by a truss-relaxation variant of
Delaunay meshing with boundary vertices pinned exactly on the parametric
curve, so boundary data (normal, curvature, arc-length weights) can be
evaluated from closed forms instead of the polygon.  As in DistMesh
(Persson & Strang, SIAM Review 46, 2004), relaxation retriangulates lazily:
only after some vertex has moved more than 0.1 h since the last
triangulation.  Only its first triangulation comes from Qhull; each later one
repairs the triangulation it holds by Lawson's edge flips, which reach the
same Delaunay triangulation.  A mesh costs two Qhull calls: that first one
and the final triangulation of the relaxed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import MeshGenerationError, ValidationError

TWO_PI = 2.0 * math.pi

# --------------------------------------------------------------------------
# Domain specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    radius: float = 1.0


@dataclass(frozen=True)
class Ellipse:
    a: float = 1.0
    b: float = 1.0


@dataclass(frozen=True)
class PolarStar:
    """Boundary r(theta) = r0 + sum_k cos_coeffs[k-1] cos(k theta) + sin_coeffs[k-1] sin(k theta)."""

    r0: float = 1.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()


@dataclass(frozen=True)
class Annulus:
    r_in: float = 0.5
    r_out: float = 1.0


DomainSpec = Union[Disk, Ellipse, PolarStar, Annulus]

_STAR_SAMPLES = 4096


# the m-th derivative of cos and of sin, m = 0, 1, 2: (negated, function)
_COS_DERIVS = ((False, np.cos), (True, np.sin), (True, np.cos))
_SIN_DERIVS = ((False, np.sin), (False, np.cos), (True, np.sin))


def _star_radius(spec: PolarStar, theta: np.ndarray, m: int) -> np.ndarray:
    """The m-th derivative (m <= 2) of the polar star's r(theta): each term
    is ((+-c) k ... k) trig(k theta), with k repeated m times."""
    theta = np.asarray(theta, dtype=float)
    r = np.full_like(theta, spec.r0 if m == 0 else 0.0)
    for coeffs, (negated, trig) in ((spec.cos_coeffs, _COS_DERIVS[m]),
                                    (spec.sin_coeffs, _SIN_DERIVS[m])):
        for k, c in enumerate(coeffs, start=1):
            a = -c if negated else c
            for _ in range(m):
                a = a * k
            r += a * trig(k * theta)
    return r


def validate_spec(spec: DomainSpec) -> None:
    """Raise ValidationError naming the violated invariant."""
    if isinstance(spec, Disk):
        if not (spec.radius > 0):
            raise ValidationError(f"disk radius must be strictly positive, got {spec.radius}")
    elif isinstance(spec, Ellipse):
        if not (spec.b > 0):
            raise ValidationError(f"ellipse semi-axis b must be strictly positive, got {spec.b}")
        if not (spec.a >= spec.b):
            raise ValidationError(f"ellipse requires a >= b > 0, got a={spec.a}, b={spec.b}")
    elif isinstance(spec, PolarStar):
        theta = np.linspace(0.0, TWO_PI, _STAR_SAMPLES, endpoint=False)
        r = _star_radius(spec, theta, 0)
        if not (r.min() > 0):
            raise ValidationError(
                "polar_star radius function must stay strictly positive; "
                f"min r(theta) = {r.min():.6g}"
            )
    elif isinstance(spec, Annulus):
        if not (spec.r_in > 0):
            raise ValidationError(f"annulus inner radius must be strictly positive, got {spec.r_in}")
        if not (spec.r_out > spec.r_in):
            raise ValidationError(
                f"annulus requires r_out > r_in, got r_in={spec.r_in}, r_out={spec.r_out}"
            )
    else:
        raise ValidationError(f"unknown domain spec {spec!r}")


def spec_diameter(spec: DomainSpec) -> float:
    if isinstance(spec, Disk):
        return 2.0 * spec.radius
    if isinstance(spec, Ellipse):
        return 2.0 * spec.a
    if isinstance(spec, PolarStar):
        theta = np.linspace(0.0, TWO_PI, _STAR_SAMPLES, endpoint=False)
        r = _star_radius(spec, theta, 0)
        half = _STAR_SAMPLES // 2
        return float((r[:half] + r[half:]).max())
    if isinstance(spec, Annulus):
        return 2.0 * spec.r_out
    raise ValidationError(f"unknown domain spec {spec!r}")


def spec_to_json(spec: DomainSpec) -> dict:
    if isinstance(spec, Disk):
        return {"variant": "disk", "radius": spec.radius}
    if isinstance(spec, Ellipse):
        return {"variant": "ellipse", "a": spec.a, "b": spec.b}
    if isinstance(spec, PolarStar):
        return {
            "variant": "polar_star",
            "r0": spec.r0,
            "cos_coeffs": list(spec.cos_coeffs),
            "sin_coeffs": list(spec.sin_coeffs),
        }
    if isinstance(spec, Annulus):
        return {"variant": "annulus", "r_in": spec.r_in, "r_out": spec.r_out}
    raise ValidationError(f"unknown domain spec {spec!r}")


def spec_from_json(obj: dict) -> DomainSpec:
    """Domain spec from a config's `domain` object, already checked against
    the config schema; only the invariants of `validate_spec` are checked here."""
    build = {
        "disk": lambda: Disk(radius=float(obj.get("radius", 1.0))),
        "ellipse": lambda: Ellipse(a=float(obj.get("a", 1.0)), b=float(obj.get("b", 1.0))),
        "polar_star": lambda: PolarStar(
            r0=float(obj.get("r0", 1.0)),
            cos_coeffs=tuple(float(c) for c in obj.get("cos_coeffs", [])),
            sin_coeffs=tuple(float(c) for c in obj.get("sin_coeffs", [])),
        ),
        "annulus": lambda: Annulus(r_in=float(obj.get("r_in", 0.5)), r_out=float(obj.get("r_out", 1.0))),
    }[obj["variant"]]
    spec = build()
    validate_spec(spec)
    return spec


# --------------------------------------------------------------------------
# Parametric boundary loops
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


class _StarCurve(BoundaryCurve):
    """The r(theta) graph of a polar star, traversed counter-clockwise."""

    def __init__(self, spec: PolarStar):
        self.spec = spec

    def point(self, t):
        r = _star_radius(self.spec, t, 0)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def speed(self, t):
        r, dr = (_star_radius(self.spec, t, m) for m in range(2))
        return np.sqrt(r ** 2 + dr ** 2)

    def normal(self, t):
        r, dr = (_star_radius(self.spec, t, m) for m in range(2))
        ct, st = np.cos(t), np.sin(t)
        # rotate the tangent (x', y') by -90 degrees: (y', -x')
        xp = dr * ct - r * st
        yp = dr * st + r * ct
        nu = np.stack([yp, -xp], axis=-1)
        return nu / np.linalg.norm(nu, axis=-1, keepdims=True)

    def curvature(self, t):
        r, dr, d2r = (_star_radius(self.spec, t, m) for m in range(3))
        return (r * r + 2.0 * dr * dr - r * d2r) / (r * r + dr * dr) ** 1.5


class _EllipseCurve(BoundaryCurve):
    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def point(self, t):
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def speed(self, t):
        return np.sqrt(self.a**2 * np.sin(t) ** 2 + self.b**2 * np.cos(t) ** 2)

    def normal(self, t):
        nu = np.stack([self.b * np.cos(t), self.a * np.sin(t)], axis=-1)
        return nu / np.linalg.norm(nu, axis=-1, keepdims=True)

    def curvature(self, t):
        return self.a * self.b / (self.a**2 * np.sin(t) ** 2 + self.b**2 * np.cos(t) ** 2) ** 1.5


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


def boundary_curves(spec: DomainSpec) -> list[BoundaryCurve]:
    """Ordered boundary loops of a validated spec: outer first, inner (annulus) second."""
    if isinstance(spec, Disk):
        return [_StarCurve(PolarStar(r0=spec.radius))]
    if isinstance(spec, PolarStar):
        return [_StarCurve(spec)]
    if isinstance(spec, Ellipse):
        return [_EllipseCurve(spec.a, spec.b)]
    if isinstance(spec, Annulus):
        return [_StarCurve(PolarStar(r0=spec.r_out)), _InnerCircle(spec.r_in)]
    raise ValidationError(f"unknown domain spec {spec!r}")


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

# the 3-point rule, exact for quadratics: barycentric points and weights (sum 1)
_QUAD_BARY = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
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
    areas: np.ndarray                   # (M,)
    basis_grads: np.ndarray             # (M, 3, 2): gradient of each P1 basis fn
    quad_bary: np.ndarray               # (Q, 3) barycentric coordinates
    quad_points: np.ndarray             # (M*Q, 2)
    quad_weights: np.ndarray            # (M*Q,) physical weights
    quad_tri: np.ndarray                # (M*Q,) owning triangle
    boundary: "BoundaryGeometry"        # exact geometry at the boundary vertices
    # state that depends on the mesh alone (point locator, measures per
    # metric, recovery normal equations, tangent pattern, trace sample
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
        return float(np.degrees(_triangle_angles(self.points, self.triangles).min()))

    def derived(self, key, build: Callable[[], object]):
        """The mesh-only state stored under ``key``, built by ``build()`` the
        first time it is asked for."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def interpolate_located(self, nodal: np.ndarray, tri: np.ndarray,
                            bary: np.ndarray) -> np.ndarray:
        """P1 interpolation of nodal data (scalar or trailing-dim array) at
        points that ``locate`` gave as (triangle, barycentric)."""
        return np.einsum("qk,qk...->q...", bary, nodal[self.triangles[tri]])

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        locator = self.derived("locator", lambda: _PointLocator(self))
        return locator.locate(np.atleast_2d(np.asarray(pts, dtype=float)))


class _PointLocator:
    """Nearest-centroid candidate search plus barycentric membership test."""

    _K = 24     # nearest-centroid candidates per point
    _HEAD = 6   # on a flat disk at h=0.025 no located point lies beyond the sixth candidate

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        cent = mesh.points[mesh.triangles].mean(axis=1)
        self.tree = cKDTree(cent)

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point, the first candidate triangle that contains it (up to
        1e-12 in barycentric terms), else the first one it is least outside
        of; the coordinates are clipped at 0 and renormalised.

        The first ``_HEAD`` candidates are tested for every point and all
        ``_K`` only for the points that none of those contains; the first inside
        hit is the same either way."""
        k = min(self._K, self.mesh.n_triangles)
        _, cand = self.tree.query(pts, k=k)
        cand = np.asarray(cand).reshape(len(pts), k)
        tri, bary, hit = self._pick(pts, cand[:, :self._HEAD])
        miss = np.flatnonzero(~hit)
        tri[miss], bary[miss], _ = self._pick(pts[miss], cand[miss])
        bary = np.clip(bary, 0.0, None)
        s = bary.sum(axis=1)
        bary[s > 0] /= s[s > 0, None]
        return tri, bary

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


def _triangle_angles(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = points[triangles]
    angles = np.empty((len(triangles), 3))
    for v in range(3):
        e1 = p[:, (v + 1) % 3] - p[:, v]
        e2 = p[:, (v + 2) % 3] - p[:, v]
        cosang = np.einsum("ij,ij->i", e1, e2) / (
            np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        )
        angles[:, v] = np.arccos(np.clip(cosang, -1.0, 1.0))
    return angles


# --------------------------------------------------------------------------
# Radial inside tests (all catalogue domains are radial graphs about the origin)
# --------------------------------------------------------------------------


class _RadialDomain:
    """Dense lookup tables for the boundary radius and the ray/normal angle."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.annular = isinstance(spec, Annulus)
        curve = boundary_curves(spec)[0]
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
        self.r_in = spec.r_in if self.annular else 0.0

    def boundary_radius(self, theta: np.ndarray) -> np.ndarray:
        return np.interp(np.mod(theta, TWO_PI), self._theta, self._rb)

    def cos_psi(self, theta: np.ndarray) -> np.ndarray:
        return np.interp(np.mod(theta, TWO_PI), self._theta, self._cospsi)

    def inside(self, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
        rho = np.linalg.norm(pts, axis=-1)
        theta = np.arctan2(pts[..., 1], pts[..., 0])
        ok = rho < self.boundary_radius(theta) - margin / self.cos_psi(theta)
        if self.annular:
            ok &= rho > self.r_in + margin
        return ok

    def clamp(self, pts: np.ndarray, margin: float) -> np.ndarray:
        """Points (P, 2) pulled radially to between r_in + margin and
        margin / cos(psi) inside the outer boundary."""
        rho = np.linalg.norm(pts, axis=1)
        # the interpolated bound never falls below this radius (less a slack
        # for rounding), so the points under it keep the scale 1.0 exactly
        safe = self._rb.min() * (1.0 - 1e-9) - margin / self._cospsi.min()
        near = rho >= safe
        if self.annular:
            near |= rho <= self.r_in + margin
        rho, sub = rho[near], pts[near]
        theta = np.arctan2(sub[:, 1], sub[:, 0])
        hi = self.boundary_radius(theta) - margin / self.cos_psi(theta)
        rho_new = np.minimum(rho, hi)
        if self.annular:
            rho_new = np.maximum(rho_new, self.r_in + margin)
        scale = np.where(rho > 0, rho_new / np.maximum(rho, 1e-300), 1.0)
        out = pts.copy()
        out[near] = sub * scale[:, None]
        return out


# --------------------------------------------------------------------------
# Mesh generation
# --------------------------------------------------------------------------

_RELAX_ITERS = 120
_RELAX_FSCALE = 1.2     # rest length of the repulsive edge springs, in units of h
_RELAX_DT = 0.2
_MIN_ANGLE_DEG = 20.0   # quality bound every mesh must meet


def build_mesh(spec: DomainSpec, h: float) -> TriMesh:
    """Triangulate the domain with target edge length h.

    Boundary vertices sit exactly on the parametric curve at equal arc-length
    spacing and are pinned; interior vertices start on a hexagonal lattice and
    relax under repulsive edge forces until the triangulation is near-uniform.
    Relaxation keeps its edge list between steps and retriangulates only after
    some vertex has moved more than 0.1 h since the last triangulation, by
    edge flips on the Delaunay triangulation it holds; Qhull triangulates the
    lattice once before relaxation and the relaxed points once after it.
    """
    validate_spec(spec)
    diam = spec_diameter(spec)
    if not (0.0 < h < diam / 4.0):
        raise ValidationError(
            f"target edge length must satisfy 0 < h < diameter/4 = {diam / 4.0:.6g}, got {h}"
        )

    # one arc-length table per loop gives its length and its node parameters
    curves = boundary_curves(spec)
    loops_params: list[np.ndarray] = []
    lengths: list[float] = []
    for curve in curves:
        t, s = _arclength_table(curve)
        L = float(s[-1])
        n_nodes = max(8, int(round(L / h)))
        loops_params.append(np.interp(L * np.arange(n_nodes) / n_nodes, s, t))
        lengths.append(L)

    bnd_xy = np.concatenate([c.point(t) for c, t in zip(curves, loops_params)])
    domain = _RadialDomain(spec)
    interior = _hex_lattice(spec, h, domain)
    interior = _relax(bnd_xy, interior, h, domain)

    points = np.concatenate([bnd_xy, interior]) if len(interior) else bnd_xy.copy()
    triangles, areas = _orient_ccw(points, _triangulate_inside(points, domain))

    mesh = _assemble_mesh(spec, h, points, triangles, areas, curves, loops_params, lengths)
    _check_boundary_edges(mesh)
    min_angle = mesh.min_angle_deg()
    if min_angle < _MIN_ANGLE_DEG:
        raise MeshGenerationError(
            f"mesh quality below bound: min angle {min_angle:.2f} deg < {_MIN_ANGLE_DEG} deg",
            achieved_min_angle_deg=min_angle,
        )
    return mesh


def _hex_lattice(spec: DomainSpec, h: float, domain: _RadialDomain) -> np.ndarray:
    lim = spec_diameter(spec) / 2.0 + h
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


def _relax(bnd: np.ndarray, interior: np.ndarray, h: float, domain: _RadialDomain) -> np.ndarray:
    if len(interior) == 0:
        return interior
    n_bnd = len(bnd)
    pts = np.concatenate([bnd, interior])
    n = len(pts)
    last = np.full_like(pts, np.inf)
    full = None
    for _ in range(_RELAX_ITERS):
        # retriangulate only once some vertex has moved 0.1 h (DistMesh's rule):
        # Qhull the first time, Lawson's flips on the held triangulation after
        if np.sqrt(np.sum((pts - last) ** 2, axis=1)).max() > 0.1 * h:
            last = pts.copy()
            full = _delaunay_ccw(pts) if full is None else _flip_to_delaunay(pts, *full)
            tri = full[0][domain.inside(pts[full[0]].mean(axis=1))]
            keys = _edge_keys(tri, n)
            keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
            e0, e1 = keys // n, keys % n
            idx = np.concatenate([e0, e1])
        vec = pts[e0] - pts[e1]
        lng = np.linalg.norm(vec, axis=1)
        f = np.maximum(_RELAX_FSCALE * h - lng, 0.0)
        fvec = vec * (f / np.maximum(lng, 1e-12))[:, None]
        w = np.concatenate([fvec, -fvec])
        force = np.stack([np.bincount(idx, w[:, 0], n), np.bincount(idx, w[:, 1], n)], axis=1)
        force[:n_bnd] = 0.0
        pts[n_bnd:] += _RELAX_DT * force[n_bnd:]
        pts[n_bnd:] = domain.clamp(pts[n_bnd:], margin=0.55 * h)
        if np.abs(_RELAX_DT * force[n_bnd:]).max() < 1e-3 * h:
            break
    return pts[n_bnd:]


def _edge_keys(triangles: np.ndarray, n: int) -> np.ndarray:
    """The key i * n + j (i < j) of every triangle side, sorted; an edge
    shared by two triangles appears twice."""
    v, w = triangles.ravel(), triangles[:, [1, 2, 0]].ravel()
    keys = np.minimum(v, w).astype(np.int64) * n + np.maximum(v, w)
    keys.sort()
    return keys


def _triangulate_inside(points: np.ndarray, domain: _RadialDomain) -> np.ndarray:
    tri = Delaunay(points).simplices
    cent = points[tri].mean(axis=1)
    return tri[domain.inside(cent)]


def _signed_area(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = points[triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def _orient_ccw(points: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangles reordered counter-clockwise, and their areas."""
    signed = _signed_area(points, triangles)
    tri = triangles.copy()
    flip = signed < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    # swapping two vertices negates the IEEE difference exactly
    return tri, np.abs(signed)


# --------------------------------------------------------------------------
# Delaunay repair by Lawson's edge flips
# --------------------------------------------------------------------------

_FLIP_TIE = 1e-10       # in-circle determinants below this share of max|p - d|^4 are ties
_FLIP_PASSES = 100      # a repair that has not settled by then re-seeds from Qhull


def _delaunay_ccw(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Qhull's Delaunay triangulation of all the points, counter-clockwise,
    and its neighbour table: ``nbr[t, k]`` is the triangle across the edge
    opposite vertex k of triangle t, or -1 on the convex hull."""
    d = Delaunay(points)
    tri, nbr = d.simplices.copy(), d.neighbors.copy()
    cw = _signed_area(points, tri) < 0
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
    if (_signed_area(points, tri) <= 0).any():
        return _delaunay_ccw(points)
    t, k = np.nonzero(nbr > np.arange(len(tri))[:, None])    # every interior edge once
    for _ in range(_FLIP_PASSES):
        u = nbr[t, k]
        ku = np.argmax(nbr[u] == t[:, None], axis=1)
        a, b, c, d = tri[t, k], tri[t, (k + 1) % 3], tri[t, (k + 2) % 3], tri[u, ku]
        bad = _in_circle(points, a, b, c, d)
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


def _in_circle(points: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray,
               d: np.ndarray) -> np.ndarray:
    """Whether d lies strictly inside the circumcircle of the counter-clockwise
    triangle (a, b, c), by more than the tie tolerance."""
    pd = points[d]
    ad, bd, cd = points[a] - pd, points[b] - pd, points[c] - pd
    la, lb, lc = (np.einsum("ij,ij->i", v, v) for v in (ad, bd, cd))
    det = (la * (bd[:, 0] * cd[:, 1] - cd[:, 0] * bd[:, 1])
           + lb * (cd[:, 0] * ad[:, 1] - ad[:, 0] * cd[:, 1])
           + lc * (ad[:, 0] * bd[:, 1] - bd[:, 0] * ad[:, 1]))
    return det > _FLIP_TIE * np.maximum(np.maximum(la, lb), lc) ** 2


def _link(tri: np.ndarray, nbr: np.ndarray, s: np.ndarray, n: int) -> None:
    """Point ``nbr`` across every edge that two of the triangles ``s`` share;
    the entries of the other edges are left as they are."""
    ts, ks = np.repeat(s, 3), np.tile(np.arange(3), len(s))
    v, w = tri[ts, (ks + 1) % 3], tri[ts, (ks + 2) % 3]
    key = np.minimum(v, w).astype(np.int64) * n + np.maximum(v, w)
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
    areas: np.ndarray,
    curves: list[BoundaryCurve],
    loops_params: list[np.ndarray],
    lengths: list[float],
) -> TriMesh:
    p = points[triangles]
    if not (areas > 0).all():
        raise MeshGenerationError("degenerate triangle with nonpositive area")
    # gradient of barycentric basis function i: perpendicular of opposite edge / (2A)
    grads = np.empty((len(triangles), 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * areas)[:, None, None]

    qp = np.einsum("qk,mki->mqi", _QUAD_BARY, p).reshape(-1, 2)
    qw = (_QUAD_WEIGHTS[None, :] * areas[:, None]).reshape(-1)
    qt = np.repeat(np.arange(len(triangles)), len(_QUAD_WEIGHTS))

    offset = 0
    loops = []
    for params in loops_params:
        loops.append(np.arange(offset, offset + len(params)))
        offset += len(params)

    boundary = _exact_boundary(curves, loops_params, lengths)
    return TriMesh(
        spec=spec,
        h=h,
        points=points,
        triangles=triangles,
        boundary_loops=loops,
        areas=areas,
        basis_grads=grads,
        quad_bary=_QUAD_BARY,
        quad_points=qp,
        quad_weights=qw,
        quad_tri=qt,
        boundary=boundary,
    )


def _check_boundary_edges(mesh: TriMesh) -> None:
    n = mesh.n_vertices
    keys = _edge_keys(mesh.triangles, n)
    step = keys[1:] != keys[:-1]
    mesh_bnd = keys[np.concatenate([[True], step]) & np.concatenate([step, [True]])]
    loops = np.concatenate(mesh.boundary_loops)
    succ = np.concatenate([np.roll(loop, -1) for loop in mesh.boundary_loops])
    expected = np.unique(np.minimum(loops, succ).astype(np.int64) * n + np.maximum(loops, succ))
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
                    lengths: list[float]) -> BoundaryGeometry:
    pos, nor, cur, wgt, arc = [], [], [], [], []
    for curve, params, L in zip(curves, loops_params, lengths):
        n = len(params)
        pos.append(curve.point(params))
        nor.append(curve.normal(params))
        cur.append(curve.curvature(params))
        # equal arc-length nodes: each dual cell has exact length L/n
        wgt.append(np.full(n, L / n))
        arc.append(L * np.arange(n) / n)
    return BoundaryGeometry(
        position=np.concatenate(pos),
        normal=np.concatenate(nor),
        curvature=np.concatenate(cur),
        weight=np.concatenate(wgt),
        arclength=np.concatenate(arc),
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


def domain_measures(mesh: TriMesh, metric) -> Measures:
    """Volume and perimeter in the conformal metric (Euclidean for the flat
    metric, whose weights are exp(0) = 1); evaluated once per mesh and metric."""

    def build() -> Measures:
        bg = mesh.boundary
        vol = float(np.sum(mesh.quad_weights * np.exp(2.0 * metric.phi(mesh.quad_points))))
        per = float(np.sum(bg.weight * np.exp(metric.phi(bg.position))))
        return Measures(vol, per)

    return mesh.derived(("measures", metric), build)
