import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay
from hypothesis import given, settings
from hypothesis import strategies as st

from plap_lab import (Annulus, Disk, Ellipse, MeshGenerationError, PolarStar,
                      ValidationError, boundary_geometry, build_mesh,
                      domain_measures)
from plap_lab.cli import main
from plap_lab.geometry import QUAD_BARY, curve_length, spec_from_json, spec_to_json
from plap_lab.metric import ConformalMetric

from conftest import DOMAINS

# perimeter of the 2:1 ellipse by adaptive quadrature of sqrt(4 sin^2 + cos^2)
ELLIPSE_PERIMETER = 9.688448220547677
FLAT = ConformalMetric.flat()


def test_disk_mesh_area_and_perimeter(lab):
    mesh = lab.mesh("disk", 0.05)
    assert abs(mesh.quad_weights.sum() - np.pi) / np.pi < 0.005
    bg = lab.bg("disk", 0.05)
    assert abs(bg.weight.sum() - 2 * np.pi) / (2 * np.pi) < 1e-6


def test_disk_mesh_quality(lab):
    mesh = lab.mesh("disk", 0.05)
    assert mesh.min_angle_deg() >= 20.0
    assert (mesh.quad_weights > 0).all()


def test_boundary_vertices_exactly_on_curve(lab):
    mesh = lab.mesh("disk", 0.05)
    bidx = mesh.boundary_loops[0]
    assert np.abs(np.linalg.norm(mesh.points[bidx], axis=1) - 1.0).max() < 1e-14


def test_disk_normal_exact(lab):
    bg = lab.bg("disk", 0.05)
    expected = bg.position / np.linalg.norm(bg.position, axis=1, keepdims=True)
    assert np.abs(bg.normal - expected).max() <= 1e-12


def test_disk_curvature_is_inverse_radius():
    mesh = build_mesh(Disk(2.0), 0.2)
    bg = boundary_geometry(Disk(2.0), mesh)
    assert np.abs(bg.curvature - 0.5).max() < 1e-12


def test_ellipse_curvature_extrema(lab):
    bg = lab.bg("ellipse", 0.05)
    # kappa = ab/(a^2 sin^2 t + b^2 cos^2 t)^{3/2}: max a/b^2 at (+-a, 0), min b/a^2
    assert bg.curvature.max() == pytest.approx(2.0, rel=1e-6)
    assert bg.curvature.min() == pytest.approx(0.25, rel=1e-3)
    at_max = bg.position[np.argmax(bg.curvature)]
    assert abs(abs(at_max[0]) - 2.0) < 1e-3


def test_ellipse_perimeter_weights(lab):
    bg = lab.bg("ellipse", 0.05)
    assert bg.weight.sum() == pytest.approx(ELLIPSE_PERIMETER, abs=1e-4)


def test_convex_specs_have_positive_curvature(lab):
    for domain in ("disk", "ellipse"):
        assert (lab.bg(domain, 0.05).curvature > 0).all()


def test_measures_flat_and_scaled(lab):
    mesh = lab.mesh("disk", 0.05)
    m = domain_measures(mesh, FLAT)
    assert m.volume == pytest.approx(np.pi, rel=0.005)
    assert m.perimeter == pytest.approx(2 * np.pi, rel=0.005)
    c = 0.3
    mc = domain_measures(mesh, ConformalMetric.poly([(0, 0, c)]))
    assert mc.volume == pytest.approx(np.exp(2 * c) * m.volume, rel=1e-12)
    assert mc.perimeter == pytest.approx(np.exp(c) * m.perimeter, rel=1e-12)


# phi = 0, a cap phi = -(x^2 + y^2)/8, and a Gaussian bump
WEIGHT_METRICS = [FLAT,
                  ConformalMetric.poly([(2, 0, -0.125), (0, 2, -0.125)]),
                  ConformalMetric.gaussian_bump(0.3, 0.1, -0.2, 1.1)]


@pytest.mark.parametrize("metric", WEIGHT_METRICS, ids=["flat", "cap", "bump"])
def test_measures_are_the_sums_of_their_weights(lab, metric):
    # e^{2 phi} dx at the quadrature points and e^{phi} ds at the boundary
    # nodes, read-only, summing to the volume and the perimeter bit for bit
    mesh = lab.mesh("ellipse", 0.1)
    m = domain_measures(mesh, metric)
    bg = mesh.boundary
    assert np.array_equal(m.volume_weights,
                          mesh.quad_weights * np.exp(2.0 * metric.phi(mesh.quad_points)))
    assert np.array_equal(m.boundary_weights, bg.weight * np.exp(metric.phi(bg.position)))
    assert m.volume == float(np.sum(m.volume_weights))
    assert m.perimeter == float(np.sum(m.boundary_weights))
    assert not (m.volume_weights.flags.writeable or m.boundary_weights.flags.writeable)


def test_ellipse_measures(lab):
    m = domain_measures(lab.mesh("ellipse", 0.05), FLAT)
    assert m.volume == pytest.approx(2 * np.pi, rel=0.005)
    assert m.perimeter == pytest.approx(ELLIPSE_PERIMETER, rel=0.005)


def test_refinement_improves_geometry():
    errs = []
    for h in (0.2, 0.1):
        mesh = build_mesh(Disk(1.0), h)
        bg = boundary_geometry(Disk(1.0), mesh)
        errs.append((
            abs(mesh.quad_weights.sum() - np.pi),
            abs(bg.weight.sum() - 2 * np.pi),
        ))
    assert errs[1][0] <= errs[0][0] / 3.0
    # arc weights are exact by construction; allow the already-converged floor
    assert errs[1][1] <= max(errs[0][1] / 3.0, 1e-8 * 2 * np.pi)


def test_polar_star_with_no_coefficients_matches_disk():
    # the disk is meshed as the polar star r = R: the meshes are the same bits
    star = build_mesh(PolarStar(1.0), 0.1)
    disk = build_mesh(Disk(1.0), 0.1)
    assert np.array_equal(star.points, disk.points)
    assert np.array_equal(star.triangles, disk.triangles)
    assert domain_measures(star, FLAT) == domain_measures(disk, FLAT)


def test_polar_star_mesh():
    spec = PolarStar(1.0, cos_coeffs=(0.15,), sin_coeffs=(0.0, 0.05))
    mesh = build_mesh(spec, 0.1)
    assert mesh.min_angle_deg() >= 20.0
    bg = boundary_geometry(spec, mesh)
    L = curve_length(spec.curves()[0])
    assert bg.weight.sum() == pytest.approx(L, rel=1e-6)


@pytest.mark.parametrize("cos_coeffs", [(0.0, 0.0, 0.3), (0.3,)])
@pytest.mark.parametrize("h", [0.04, 0.025])
def test_star_tips_are_meshed_within_the_angle_bound(cos_coeffs, h):
    """r = 1 + 0.3 cos 3t and r = 1 + 0.3 cos t reach r = 1.3 at a tip, where
    the radial stretch lengthens the mapped disk's triangles most along
    their ray; they stay within the angle bound there."""
    mesh = build_mesh(PolarStar(1.0, cos_coeffs=cos_coeffs), h)
    assert mesh.min_angle_deg() >= 20.0


def test_annulus_two_loops_and_inner_curvature_sign():
    spec = Annulus(0.5, 1.0)
    mesh = build_mesh(spec, 0.1)
    assert len(mesh.boundary_loops) == 2
    bg = boundary_geometry(spec, mesh)
    outer, inner = np.split(bg.curvature, [len(mesh.boundary_loops[0])])
    assert np.abs(outer - 1.0).max() < 1e-12
    assert np.abs(inner + 2.0).max() < 1e-12
    m = domain_measures(mesh, FLAT)
    assert m.volume == pytest.approx(np.pi * 0.75, rel=0.005)
    assert m.perimeter == pytest.approx(3 * np.pi, rel=1e-6)


def test_validation_errors():
    with pytest.raises(ValidationError):
        Ellipse(0.0, 1.0)
    with pytest.raises(ValidationError):
        Ellipse(1.0, 2.0)      # requires a >= b
    with pytest.raises(ValidationError):
        Disk(-1.0)
    with pytest.raises(ValidationError):
        PolarStar(1.0, cos_coeffs=(1.5,))   # r(theta) dips below 0
    with pytest.raises(ValidationError):
        Annulus(1.0, 0.5)
    with pytest.raises(ValidationError):
        build_mesh(Disk(1.0), 0.6)            # h must stay below diameter/4


def test_star_samples_see_the_highest_harmonic():
    """r = 1 + 1.5 cos 4096t dips to -0.5, though all 4096 equally spaced
    samples from 0 read 2.5: the star samples r at 16 angles per period of
    its highest harmonic, so it is rejected.  Every test and shipped star
    has a low harmonic and keeps its diameter from 4096 samples."""
    with pytest.raises(ValidationError, match="min r"):
        PolarStar(1.0, cos_coeffs=(0.0,) * 4095 + (1.5,))
    shipped = json.loads((Path(__file__).resolve().parents[1] / "scripts" / "compare_configs"
                          / "polar_star_verify.json").read_text())["domain"]
    stars = [spec for spec in DOMAINS.values() if isinstance(spec, PolarStar)]
    theta = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    for star in [*stars, spec_from_json(shipped)]:
        r = star.r(theta)
        assert star.diameter() == (r[:2048] + r[2048:]).max()


def _interior_degrees(mesh):
    edges = np.unique(np.sort(mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2),
                              axis=1), axis=0)
    degree = np.bincount(edges.ravel(), minlength=mesh.n_vertices)
    return np.delete(degree, mesh.boundary_vertices)


@pytest.mark.parametrize("domain, h", [
    ("disk", 0.1), ("disk", 0.025), ("disk", 0.0125), ("ellipse", 0.05), ("ellipse", 0.035),
    *((star, h) for star in ("star", "three_lobes", "one_lobe") for h in (0.1, 0.05, 0.025))])
def test_mapped_mesh_has_degree_6_inside_and_meets_the_angle_bound(lab, domain, h):
    """Every interior vertex of a disk, ellipse or star mesh keeps the
    lattice's six neighbours, and the corner grading holds the angle bound
    down to disk h = 0.0125 (23.0 degrees there).  The radial stretch of a
    star keeps it too: the least angles at h = 0.1, 0.05 and 0.025 are
    33.0, 30.2 and 25.6 degrees on the test star, 24.6, 25.0 and 24.9 on
    r = 1 + 0.3 cos 3t and 30.5, 27.9 and 23.5 on r = 1 + 0.3 cos t."""
    import plap_lab.geometry as geo

    mesh = lab.mesh(domain, h)
    assert (_interior_degrees(mesh) == 6).all()
    assert mesh.min_angle_deg() >= geo._MIN_ANGLE_DEG


@pytest.mark.parametrize("spec, h", [(Ellipse(3.0, 1.0), 0.025), (Ellipse(5.0, 1.0), 0.05),
                                     (Ellipse(2.0, 1.0), 0.0125)],
                         ids=["3to1", "5to1", "2to1"])
def test_pinched_mapped_mesh_takes_the_conformal_rim(monkeypatch, spec, h):
    """The corner grading pinches the mapped 3:1 ellipse at h = 0.025 (19.6
    degrees), the 5:1 one at h = 0.05 (19.9) and the 2:1 one at h = 0.0125
    (17.5): each is mapped again with the Schwarz-Christoffel rim, keeps
    degree 6 inside and meets the bound."""
    import plap_lab.geometry as geo

    rims = []
    conformal = geo._schwarz_christoffel
    monkeypatch.setattr(geo, "_schwarz_christoffel",
                        lambda *args: rims.append(1) or conformal(*args))
    mesh = build_mesh(spec, h)
    assert rims == [1]
    assert (_interior_degrees(mesh) == 6).all()
    assert mesh.min_angle_deg() >= geo._MIN_ANGLE_DEG


@pytest.mark.parametrize("k", [1, 3, 8])
def test_conformal_rim_takes_equal_steps_of_the_hexagon_map(k):
    """Edge j from a corner ends at the circle arc psi_j where the hexagon
    arc length S(psi) = int_0^psi (2 sin 3t)^(-1/3) dt, by adaptive
    quadrature, is j/k of the half side's; edges further than k from a
    corner take the mid-side edge."""
    from scipy.integrate import quad

    import plap_lab.geometry as geo

    edge = geo._schwarz_christoffel(np.arange(k + 2) + 0.5, 2 * k)
    psi = np.cumsum(edge[:k])
    arc = [quad(lambda t: (2.0 * np.sin(3.0 * t)) ** (-1.0 / 3.0), 0.0, x, limit=200)[0]
           for x in (*psi, np.pi / 6)]
    assert np.allclose(arc[:-1], arc[-1] * np.arange(1, k + 1) / k, rtol=0, atol=1e-12)
    assert psi[-1] == pytest.approx(np.pi / 6, abs=1e-15)
    assert (edge[k:] == edge[k - 1]).all()


def test_conformal_rim_that_misses_the_bound_is_a_mesh_error():
    """The 10:1 ellipse at h = 0.14 misses 20 degrees with either rim (19.3
    with the Schwarz-Christoffel one), and no other mesher is tried."""
    with pytest.raises(MeshGenerationError, match="min angle 19.33") as err:
        build_mesh(Ellipse(10.0, 1.0), 0.14)
    assert err.value.achieved_min_angle_deg == pytest.approx(19.33, abs=0.005)


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_annulus_is_a_lattice_cylinder(h):
    """Both loops of the annulus hold n = round(2 pi r_out / h) nodes, the
    outer one counter-clockwise and the inner one clockwise; the cylinder
    has no corner, so every interior vertex has degree 6, and its
    triangles are near equilateral."""
    mesh = build_mesh(Annulus(0.5, 1.0), h)
    n = round(2 * np.pi / h)
    for loop, sign in zip(mesh.boundary_loops, (1, -1)):
        x, y = mesh.points[loop].T
        assert len(loop) == n
        assert sign * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0
    assert (_interior_degrees(mesh) == 6).all()
    assert mesh.min_angle_deg() >= 55.0


def test_quality_error_reports_min_angle(monkeypatch):
    import plap_lab.geometry as geo

    monkeypatch.setattr(geo, "_MIN_ANGLE_DEG", 60.0)
    with pytest.raises(MeshGenerationError) as err:
        build_mesh(Disk(1.0), 0.1)
    assert err.value.achieved_min_angle_deg is not None
    assert err.value.achieved_min_angle_deg < 60.0


def test_spec_json_round_trip():
    for spec in (Disk(2.0), Ellipse(2.0, 1.0), PolarStar(1.0, (0.1,), (0.0, 0.05)),
                 Annulus(0.5, 1.5)):
        assert spec_from_json(spec_to_json(spec)) == spec


@pytest.mark.parametrize("cls", [Disk, Ellipse, PolarStar, Annulus])
def test_spec_from_json_defaults_are_the_dataclass_defaults(cls):
    assert spec_from_json({"variant": cls.variant}) == cls()


def test_boundary_loop_orientation(lab):
    # domain on the left: outer loop counter-clockwise (positive shoelace area)
    mesh = lab.mesh("disk", 0.1)
    loop = mesh.points[mesh.boundary_loops[0]]
    x, y = loop[:, 0], loop[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area2 > 0
    am = build_mesh(Annulus(0.5, 1.0), 0.1)
    inner = am.points[am.boundary_loops[1]]
    x, y = inner[:, 0], inner[:, 1]
    assert np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0


@pytest.mark.parametrize("r_in, h", [(0.8, 0.2), (0.8, 0.4)])
def test_mesh_with_no_interior_vertex_is_a_mesh_error(tmp_path, r_in, h):
    """The lattice cylinders of these annuli have one row step, from the
    inner loop to the outer one, though h < diameter/4: the mesh would have
    no unknown, so it fails as a mesh error, and the CLI exits 3 with
    error.json of type mesh."""
    spec = Annulus(r_in, 1.0)
    n = round(2 * np.pi / h)
    assert round(np.log(1.0 / r_in) / (np.sqrt(3.0) * np.pi / n)) == 1
    with pytest.raises(MeshGenerationError, match="no interior vertex"):
        build_mesh(spec, h)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"command": "verify", "p": [3.0], "h": [h],
                               "domain": {"variant": "annulus", "r_in": r_in, "r_out": 1.0}}))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "mesh" and "no interior vertex" in err["message"]


# sha256 of points.tobytes() + triangles.tobytes(): the triangles in the
# order of the lattice's index grid.  The annulus row was recorded when its
# mesher began numbering its interior by columns: that mesh is the earlier
# one under that vertex permutation, point for point and triangle for
# triangle.  The star row was recorded when the stars became the mapped disk
# lattice stretched radially, which moved its mesh
MESH_DIGESTS = {
    ("disk", 0.1): "6a1bd8d89fc261caeda4780b721f378b4078646da58c17001d91819014f04bbb",
    ("ellipse", 0.05): "25b46606e50e6fd892decbf16cde0a60d92cb030aabb737b95f6878fd6900d2a",
    ("annulus", 0.1): "8c5036863bc79cc7b5538735a2f7dca71c00ba91b644e65369eeba552f091bbd",
    # the benchmark meshes (ellipse_verify, disk_p_ladder) and a polar star
    ("ellipse", 0.035): "a9f43dc03ec3eec68f2041f0278f51a674f2abc063eddda0b470dbf5cefa6b21",
    ("disk", 0.025): "c5d2d21ca219d232b9684556aa649c46c74ce67320f542a9cb5c0e2fae33ae03",
    ("star", 0.1): "cf8e045a29c5699c5b60318d5cea8d920cb3a17429c5d3f39780094930a3abf5",
}

# sha256 of points.tobytes() + the triangles as a set: each row rotated to
# start at its least vertex, the rows sorted.  The star row was recorded
# when the stars became the mapped disk lattice stretched radially.  The
# mapped disk, ellipse and test star meshes are the Delaunay triangulations
# of their points; the stretched three-lobed star's is not (1032 of its
# 3750 triangles at h = 0.05 are not Qhull's), so it has no row here
MESH_SET_DIGESTS = {
    ("disk", 0.1): "3567d61de66c5cb04c1ac4355789e0198b750261c685bb6c34a4922d028a1a3c",
    ("ellipse", 0.05): "8eff7919e0fe03371ad2f904d7536fdd2a597fec9750eabe40a889538de67026",
    ("ellipse", 0.035): "9e324d5baa8f34366fd6292817a73b73e210b949298b12293232c7c3bab4f827",
    ("disk", 0.025): "5c18406d01bec7cc1e8cd9a3a9680d8d125a4adc20b857df9e0926ebb3de85f5",
    ("star", 0.1): "868d4938482eddf8135b086b9b3ff517d84e04c83d1dde253d4108cedd86d095",
}


@pytest.mark.parametrize("domain, h, n_vertices, n_triangles, min_angle", [
    ("disk", 0.1, 331, 600, 38.47679459055089),
    ("ellipse", 0.05, 2623, 5054, 28.07400468480788),
    ("annulus", 0.1, 567, 1008, 57.02821958435561),
    ("ellipse", 0.035, 5629, 10976, 25.18390416735987),
    ("disk", 0.025, 5419, 10584, 28.971309209407607),
    ("star", 0.1, 397, 726, 33.04085878643132),
])
def test_mesh_matches_recorded_values(lab, domain, h, n_vertices, n_triangles, min_angle):
    mesh = lab.mesh(domain, h)
    assert mesh.n_vertices == n_vertices
    assert mesh.n_triangles == n_triangles
    assert mesh.min_angle_deg() == pytest.approx(min_angle, rel=1e-9)
    assert _mesh_digest(mesh) == MESH_DIGESTS[domain, h]


def _mesh_digest(mesh):
    return hashlib.sha256(mesh.points.tobytes() + mesh.triangles.tobytes()).hexdigest()


def _triangle_set(triangles):
    """The triangles (int64) with each row rotated to start at its least
    vertex, which keeps its orientation, and the rows sorted."""
    tri = np.asarray(triangles, dtype=np.int64)
    first = np.argmin(tri, axis=1)[:, None]
    tri = np.take_along_axis(tri, (first + np.arange(3)) % 3, axis=1)
    return tri[np.lexsort(tri.T[::-1])]


@pytest.mark.parametrize("domain, h", list(MESH_SET_DIGESTS))
def test_mesh_is_the_delaunay_triangulation_of_its_points(lab, domain, h):
    """The points and the triangle set are those recorded, and the triangles
    are Qhull's Delaunay triangulation of the points (each node polygon is
    convex, so Qhull's hull is its outline)."""
    mesh = lab.mesh(domain, h)
    ordered = _triangle_set(mesh.triangles)
    digest = hashlib.sha256(mesh.points.tobytes() + ordered.tobytes()).hexdigest()
    assert digest == MESH_SET_DIGESTS[domain, h]
    qhull = Delaunay(mesh.points).simplices
    assert np.array_equal(np.unique(np.sort(qhull, axis=1), axis=0),
                          np.unique(np.sort(mesh.triangles, axis=1), axis=0))


def test_boundary_edge_check_rejects_a_missing_edge(lab):
    import plap_lab.geometry as geo

    mesh = lab.mesh("disk", 0.1)
    geo._check_boundary_edges(mesh)
    a, b = mesh.boundary_loops[0][:2]
    holds = [(a in t) and (b in t) for t in mesh.triangles.tolist()]
    assert sum(holds) == 1
    holed = dataclasses.replace(mesh, triangles=mesh.triangles[~np.array(holds)])
    with pytest.raises(MeshGenerationError, match="mismatched edges"):
        geo._check_boundary_edges(holed)


def test_replaced_mesh_derives_its_own_state(lab):
    # a copy with other triangles shares none of the original's cached state
    mesh = lab.mesh("disk", 0.1)
    angle, interp = mesh.min_angle_deg(), mesh.quad_interpolation()
    part = dataclasses.replace(mesh, triangles=mesh.triangles[:10])
    assert part.quad_interpolation().shape == (30, mesh.n_vertices)
    assert mesh.min_angle_deg() == angle and mesh.quad_interpolation() is interp


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("ellipse", 0.05), ("annulus", 0.1),
                                      ("star", 0.1), ("three_lobes", 0.05)])
def test_every_mesher_numbers_the_boundary_first(lab, domain, h):
    """The vertices on the triangulation's boundary edges are 0 to nb - 1,
    and the loops number them in order: the solver's unknowns are the
    vertices after them."""
    mesh = lab.mesh(domain, h)
    nb = sum(len(loop) for loop in mesh.boundary_loops)
    assert np.array_equal(np.concatenate(mesh.boundary_loops), np.arange(nb))
    tri = mesh.triangles
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    unique, count = np.unique(edges, axis=0, return_counts=True)
    assert np.array_equal(np.unique(unique[count == 1]), np.arange(nb))


def _locate_reference(mesh, pts, tri):
    """Point by point, over every triangle, with barycentric coordinates from
    each triangle's own 2 x 2 inverse of its edges from the first corner:
    the best depth (largest least coordinate) of any triangle, and the
    coordinates (P, 3) in the triangles ``tri``."""
    corners = mesh.points[mesh.triangles]
    a = corners[:, 0]
    inverse = np.linalg.inv(np.stack([corners[:, 1] - a, corners[:, 2] - a], axis=-1))
    best, coords = [], []
    for rows in np.array_split(np.arange(len(pts)), -(-len(pts) // 100)):
        lam = np.einsum("mij,pmj->pmi", inverse, pts[rows, None] - a)     # (P, M, 2)
        c = np.concatenate([1.0 - lam[..., :1] - lam[..., 1:], lam], axis=-1)
        best.append(c.min(axis=-1).max(axis=1))
        coords.append(c[np.arange(len(rows)), tri[rows]])
    return np.concatenate(best), np.concatenate(coords)


def _locate_inputs(mesh, rng):
    """Random points in the bounding box, every other vertex (up to six
    triangles contain one), interior edge midpoints (two contain one),
    boundary chord midpoints, and then points just outside the domain."""
    low, high = mesh.points.min(axis=0), mesh.points.max(axis=0)
    edges = mesh.triangles[::3, [0, 1]]
    chords = [0.5 * (mesh.points[loop] + mesh.points[np.roll(loop, 1)])
              for loop in mesh.boundary_loops]
    # outward off the outer loop, and into the annulus's hole off the inner
    outside = np.concatenate([mesh.points[mesh.boundary_loops[0][::3]] * 1.003] + [
        mesh.points[loop[::3]] * 0.995 for loop in mesh.boundary_loops[1:]])
    return np.concatenate([rng.uniform(low, high, (200, 2)), mesh.points[::2],
                           0.5 * (mesh.points[edges[:, 0]] + mesh.points[edges[:, 1]]),
                           *chords]), outside


def _ellipse_inputs(mesh, rng):
    """Random points in the ellipse (2, 1) and its boundary chord midpoints,
    and then points 1.003 and 1.05 times the boundary vertices."""
    rho, theta = np.sqrt(rng.uniform(0, 1.0, 600)), rng.uniform(0, 2 * np.pi, 600)
    loop = mesh.points[mesh.boundary_loops[0]]
    return (np.concatenate([np.stack([2.0 * rho * np.cos(theta), rho * np.sin(theta)], axis=1),
                            0.5 * (loop + np.roll(loop, 1, axis=0))]),
            np.concatenate([1.003 * loop[::3], 1.05 * loop[1::7]]))


def _assert_locate_contract(mesh, pts, n_inner, tag):
    """A point is found exactly when its deepest triangle (largest least
    coordinate) contains it up to 1e-12; for a found point, the picked
    triangle is that deep up to 1e-12, and the clipped, renormalised
    coordinates are the reference's in it up to 1e-12.  The points from
    ``n_inner`` on lie just outside a boundary loop and are not found; no
    caller reads the triangle of a point that is not found."""
    tri, bary, found = mesh.locate(pts)
    best, coords = _locate_reference(mesh, pts, tri)
    assert np.array_equal(found, best >= -1e-12), tag
    assert not found[n_inner:].any() and found[:n_inner].sum() > 200
    assert (coords[found].min(axis=1) >= best[found] - 1e-12).all(), tag
    ref = np.clip(coords[found], 0.0, None)
    ref /= ref.sum(axis=1, keepdims=True)
    assert np.abs(bary[found] - ref).max() <= 1e-12, tag
    return tri, bary, found


def test_batched_locate_matches_pointwise_reference(lab):
    """On a disk, an ellipse, an annulus and a star, the located triangles
    and coordinates keep the contract of ``_assert_locate_contract``."""
    rng = np.random.default_rng(3)
    for domain, h in (("disk", 0.1), ("ellipse", 0.14), ("annulus", 0.1), ("star", 0.1)):
        mesh = lab.mesh(domain, h)
        inner, outside = _locate_inputs(mesh, rng)
        _assert_locate_contract(mesh, np.concatenate([inner, outside]), len(inner), domain)


@pytest.mark.parametrize("batch", [None, 1])
def test_staged_locate_matches_reference_on_ellipse(lab, batch):
    # on a finer ellipse, interior points, boundary chord midpoints and
    # points 1.003 and 1.05 times the boundary keep the locator's contract,
    # located in one query (batch None) or one point per query (batch 1):
    # a point's triangle and coordinates do not depend on the other points
    # of its query, bit for bit
    mesh = lab.mesh("ellipse", 0.05)
    inner, outside = _ellipse_inputs(mesh, np.random.default_rng(5))
    pts = np.concatenate([inner, outside])
    tri, bary, found = _assert_locate_contract(mesh, pts, len(inner), batch)
    assert found[:len(inner)].sum() > 600
    if batch is not None:
        staged = [mesh.locate(pts[i:i + batch]) for i in range(0, len(pts), batch)]
        assert np.array_equal(np.concatenate([s[2] for s in staged]), found)
        assert np.array_equal(np.concatenate([s[0] for s in staged])[found], tri[found])
        assert np.array_equal(np.concatenate([s[1] for s in staged])[found], bary[found])


def test_locate_rejects_non_finite_points(lab):
    mesh = lab.mesh("disk", 0.2)
    for bad in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValidationError, match="non-finite"):
            mesh.locate(bad)


def test_locate_empty_and_far_queries(lab):
    # an empty query gives three empty arrays; a point far off the grid has
    # no candidate triangle and is not found
    mesh = lab.mesh("disk", 0.2)
    tri, bary, found = mesh.locate(np.zeros((0, 2)))
    assert tri.shape == (0,) and bary.shape == (0, 3) and found.shape == (0,)
    tri, bary, found = mesh.locate([[50.0, 50.0], [0.1, 0.2]])
    assert found.tolist() == [False, True]


def test_quad_interpolation_matches_barycentric_reference(lab):
    # row t*Q + q is quadrature point q of triangle t, as in quad_points
    mesh = lab.mesh("ellipse", 0.14)
    interp = mesh.quad_interpolation()
    assert mesh.quad_interpolation() is interp      # built once per mesh
    assert np.abs(interp @ mesh.points - mesh.quad_points).max() <= 1e-15
    corners = mesh.triangles[np.repeat(np.arange(mesh.n_triangles), len(QUAD_BARY))]
    bary = np.tile(QUAD_BARY, (mesh.n_triangles, 1))
    rng = np.random.default_rng(5)
    for shape in ((), (2,), (2, 2)):
        nodal = rng.normal(size=(mesh.n_vertices, *shape))
        ref = np.einsum("qk,qk...->q...", bary, nodal[corners])
        got = (interp @ nodal.reshape(mesh.n_vertices, -1)).reshape(ref.shape)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.5, 3.0), c=st.floats(-0.2, 0.2))
def test_star_radius_positive_property(r, c):
    spec = PolarStar(r, cos_coeffs=(c,))
    curve = spec.curves()[0]
    t = np.linspace(0, 2 * np.pi, 64)
    assert np.isfinite(curve.curvature(t)).all()
    assert np.abs(np.linalg.norm(curve.normal(t), axis=1) - 1).max() < 1e-12
