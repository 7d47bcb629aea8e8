import dataclasses
import hashlib
import json

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree
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
    mc = domain_measures(mesh, ConformalMetric.const(c))
    assert mc.volume == pytest.approx(np.exp(2 * c) * m.volume, rel=1e-12)
    assert mc.perimeter == pytest.approx(np.exp(c) * m.perimeter, rel=1e-12)


# phi = 0, a cap phi = -(x^2 + y^2)/8, and a Gaussian bump
WEIGHT_METRICS = [FLAT,
                  ConformalMetric.poly([(2, 0, -0.125), (0, 2, -0.125)], nonnegative_ricci=True),
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
    """r = 1 + 0.3 cos 3t and r = 1 + 0.3 cos t reach r = 1.3 at a tip, beyond
    half their diameter (1.0): a lattice spanning only that stretched the
    triangles at the tips below 20 degrees."""
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


@pytest.mark.parametrize("domain, h", [("disk", 0.1), ("disk", 0.025), ("disk", 0.0125),
                                      ("ellipse", 0.05), ("ellipse", 0.035)])
def test_mapped_mesh_has_degree_6_inside_and_meets_the_angle_bound(lab, domain, h):
    """Every interior vertex of a disk or ellipse mesh keeps the lattice's
    six neighbours, and the corner grading holds the angle bound down to disk
    h = 0.0125 (23.0 degrees there)."""
    import plap_lab.geometry as geo

    mesh = lab.mesh(domain, h)
    edges = np.unique(np.sort(mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2),
                              axis=1), axis=0)
    degree = np.bincount(edges.ravel(), minlength=mesh.n_vertices)
    assert (np.delete(degree, mesh.boundary_vertices) == 6).all()
    assert mesh.min_angle_deg() >= geo._MIN_ANGLE_DEG


@pytest.mark.parametrize("spec, h", [(Ellipse(3.0, 1.0), 0.025), (Ellipse(5.0, 1.0), 0.05)],
                         ids=["3to1", "5to1"])
def test_mapped_mesh_below_the_angle_bound_relaxes_instead(monkeypatch, spec, h):
    """The patch corners pinch the mapped 3:1 ellipse at h = 0.025 (19.6
    degrees) and the 5:1 one at h = 0.05 (19.9 degrees): both relax, with one
    Qhull call, and meet the bound."""
    import plap_lab.geometry as geo

    calls = []
    monkeypatch.setattr(geo, "Delaunay", lambda p: calls.append(1) or Delaunay(p))
    mesh = build_mesh(spec, h)
    assert len(calls) == 1
    assert mesh.min_angle_deg() >= geo._MIN_ANGLE_DEG


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


def test_relaxation_retriangulates_lazily(monkeypatch):
    import plap_lab.geometry as geo

    calls = []

    def counting_delaunay(points):
        calls.append(len(points))
        return Delaunay(points)

    monkeypatch.setattr(geo, "Delaunay", counting_delaunay)
    build_mesh(DOMAINS["three_lobes"], 0.05)
    # running Qhull at each of the lazy retriangulations makes 12 calls on
    # this star; edge flips repair the held triangulation, and once more for
    # the relaxed points, so Qhull runs on the lattice only
    assert len(calls) == 1


@pytest.mark.parametrize("r_in, h", [(0.5, 0.4), (0.8, 0.14)])
def test_mesh_with_no_interior_vertex_is_a_mesh_error(tmp_path, r_in, h):
    """No lattice point fits inside these annuli, though h < diameter/4: the
    mesh would have no unknown, so it fails as a mesh error, and the CLI
    exits 3 with error.json of type mesh."""
    import plap_lab.geometry as geo

    spec = Annulus(r_in, 1.0)
    assert len(geo._hex_lattice(h, geo._RadialDomain(spec))) == 0
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
# order of the mapped lattice's index grid (disk, ellipse) or of the
# relaxation's flip-repaired triangulation (annulus, star)
MESH_DIGESTS = {
    ("disk", 0.1): "6e586cf5abaabb995deb4c30ce39c468ab904206348bcc92b0fc575f2e20204d",
    ("ellipse", 0.05): "ce7b1bdd63dd8ba81d34fda08d690dbe175efcb80be84b0b6745c6be2e3270f1",
    ("annulus", 0.1): "dd32d82d04cb7e49ec38a700083b2f886c2f4083278b6bb8578e175167935495",
    # the benchmark meshes (ellipse_verify, disk_p_ladder) and a polar star
    ("ellipse", 0.035): "bbd1e6a7fa00fe1e0712ec746e94d23c9d85381919858ca1a6f31de52804c0ed",
    ("disk", 0.025): "cbf9f850c1ab93e426f1525d27a29ca01ae0c6f480f04cd4b239a806a932cc4f",
    ("star", 0.1): "e5dbc1f771ddfdd5916fe4a3b120c955ac7e13c6f185bc88b728d8113d2c7634",
}

# sha256 of points.tobytes() + the triangles as a set: each row rotated to
# start at its least vertex, the rows sorted.  The relaxed meshes' entries
# were recorded from meshes that took their final triangulation from a
# second Qhull call, so the flip repair that replaced it gives the same
# points and the same triangles; the mapped disk and ellipse meshes are the
# Delaunay triangulations of their points too
MESH_SET_DIGESTS = {
    ("disk", 0.1): "293b2c24cace464d87d4e37f7340327221638da7d82a81d9b30ee10abd5e92fb",
    ("ellipse", 0.05): "c8de02b40b6fee0dc888a525c7ab66ab586194f91672cbd320ad356a10602386",
    ("annulus", 0.1): "d6550f72b18b40beb598147b44010a2eba6d2c1367452200573bcaa5e38e18b8",
    ("ellipse", 0.035): "cba38cc4a4a6c39a2e76a416594cca90146ecad1849dc6e67125176c854f5543",
    ("disk", 0.025): "2a331047166aa60b2402c15cfa5fce061f9f1f63a7e80d8b7f65805c3fc9bf09",
    ("star", 0.1): "f0b59f21bb51d30df17fbe1de520978656b44a6f5cbc817af994094912685371",
    ("annulus", 0.05): "d32b3be5514f7bc30d2110273403ddbe6074134bd575964f78c3b72cb9b9f5d1",
    ("three_lobes", 0.05): "9440157d32bbbd13871f0244fd43591e9e454d5c651e5119815f4505020dcbaf",
}


@pytest.mark.parametrize("domain, h, n_vertices, n_triangles, min_angle", [
    ("disk", 0.1, 331, 600, 38.47679459055089),
    ("ellipse", 0.05, 2623, 5054, 28.07400468480788),
    ("annulus", 0.1, 286, 478, 36.441127809722204),
    ("ellipse", 0.035, 5629, 10976, 25.18390416735987),
    ("disk", 0.025, 5419, 10584, 28.971309209407607),
    ("star", 0.1, 379, 693, 34.05508061460358),
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
    are Qhull's Delaunay triangulation of the points, centroid-filtered."""
    import plap_lab.geometry as geo

    mesh = lab.mesh(domain, h)
    ordered = _triangle_set(mesh.triangles)
    digest = hashlib.sha256(mesh.points.tobytes() + ordered.tobytes()).hexdigest()
    assert digest == MESH_SET_DIGESTS[domain, h]
    qhull = geo._RadialDomain(mesh.spec).triangles_inside(
        mesh.points, Delaunay(mesh.points).simplices)
    assert np.array_equal(np.unique(np.sort(qhull, axis=1), axis=0),
                          np.unique(np.sort(mesh.triangles, axis=1), axis=0))


def _count_filtered(monkeypatch) -> list:
    """Record (triangles in, triangles kept) of every centroid filter call."""
    import plap_lab.geometry as geo

    calls, inside = [], geo._RadialDomain.triangles_inside

    def counted(self, points, triangles):
        kept = inside(self, points, triangles)
        calls.append((len(triangles), len(kept)))
        return kept

    monkeypatch.setattr(geo._RadialDomain, "triangles_inside", counted)
    return calls


@pytest.mark.parametrize("domain, h", [key for key in MESH_DIGESTS if key[0] == "star"])
def test_skipped_centroid_filter_would_remove_nothing(lab, monkeypatch, domain, h):
    """A relaxed domain of one loop whose node polygon is convex skips the
    centroid filter; run on every retriangulation, it removes no triangle and
    the mesh is the same."""
    import plap_lab.geometry as geo

    mesh = lab.mesh(domain, h)
    assert geo._convex_polygon(mesh.points[mesh.boundary_loops[0]])
    calls = _count_filtered(monkeypatch)
    monkeypatch.setattr(geo, "_convex_polygon", lambda loop: False)
    forced = build_mesh(mesh.spec, h)
    assert len(calls) >= 2      # the loop's retriangulations and the relaxed points'
    assert all(kept == total for total, kept in calls)
    assert _mesh_digest(forced) == MESH_DIGESTS[domain, h]


@pytest.mark.parametrize("spec, h", [
    (Annulus(0.5, 1.0), 0.1),
    (Annulus(0.5, 1.0), 0.05),
    (PolarStar(1.0, cos_coeffs=(0.0, 0.0, 0.3)), 0.05),     # r = 1 + 0.3 cos 3t
])
def test_centroid_filter_runs_where_it_removes_triangles(monkeypatch, spec, h):
    """The annulus has a hole and the star's node polygon is not convex:
    every retriangulation is filtered, and the filter removes triangles."""
    calls = _count_filtered(monkeypatch)
    mesh = build_mesh(spec, h)
    assert len(calls) >= 2
    assert all(kept < total for total, kept in calls)
    assert calls[-1][1] == mesh.n_triangles


def _edge_set(triangles):
    e = np.sort(np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                                triangles[:, [2, 0]]]), axis=1)
    return set(map(tuple, e.tolist()))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.sampled_from([0.1, 0.15, 0.25]))
def test_flips_repair_moved_points_to_their_delaunay_triangulation(seed, h):
    import plap_lab.geometry as geo

    rng = np.random.default_rng(seed)
    # nodes pinned on the unit circle are exact ties for the flips
    n_rim = int(round(2 * np.pi / h))
    t = 2 * np.pi * np.arange(n_rim) / n_rim
    rim = np.stack([np.cos(t), np.sin(t)], axis=1)
    lattice = geo._hex_lattice(h, geo._RadialDomain(Disk(1.0)))
    lattice += rng.uniform(-0.3 * h, 0.3 * h, lattice.shape)
    lattice = lattice[np.linalg.norm(lattice, axis=1) < 1.0 - 0.5 * h]
    pts = np.concatenate([rim, lattice])
    tri, nbr = geo._delaunay_ccw(pts)

    step = rng.uniform(0.0, 0.1 * h, len(lattice))
    angle = rng.uniform(0.0, 2 * np.pi, len(lattice))
    pts[n_rim:] += step[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "Delaunay", lambda p: calls.append(1) or Delaunay(p))
        tri, nbr = geo._flip_to_delaunay(pts, tri, nbr)

    assert calls == []
    assert (geo._signed_area(pts.T, tri) > 0).all()
    assert _edge_set(tri) == _edge_set(Delaunay(pts).simplices)
    linked = np.full_like(nbr, -1)
    geo._link(tri, linked, np.arange(len(tri)), len(pts))
    assert np.array_equal(linked, nbr)


def test_inverted_triangle_reseeds_from_qhull(monkeypatch):
    import plap_lab.geometry as geo

    reference = build_mesh(DOMAINS["star"], 0.1)
    calls, flip = [], geo._flip_to_delaunay

    def no_flips(*args):
        raise AssertionError("an inverted triangulation was flipped")

    def invert_first(points, tri, nbr):
        if len(calls) > 1:
            return flip(points, tri, nbr)
        tri[0] = tri[0, [0, 2, 1]]      # only the lattice triangulation so far
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geo, "_in_circle", no_flips)
            return flip(points, tri, nbr)

    monkeypatch.setattr(geo, "Delaunay", lambda p: calls.append(1) or Delaunay(p))
    monkeypatch.setattr(geo, "_flip_to_delaunay", invert_first)
    mesh = build_mesh(DOMAINS["star"], 0.1)
    assert len(calls) == 2      # lattice, then the re-seed
    # a re-seed takes Qhull's order for the triangles, so compare them as sets
    assert np.array_equal(mesh.points, reference.points)
    assert np.array_equal(_triangle_set(mesh.triangles), _triangle_set(reference.triangles))


def test_unsettled_repair_reseeds_from_qhull(monkeypatch):
    import plap_lab.geometry as geo

    reference = build_mesh(DOMAINS["star"], 0.1)
    calls = []
    monkeypatch.setattr(geo, "Delaunay", lambda p: calls.append(1) or Delaunay(p))
    monkeypatch.setattr(geo, "_FLIP_PASSES", 0)
    mesh = build_mesh(DOMAINS["star"], 0.1)
    assert len(calls) > 2       # every retriangulation ran Qhull
    assert np.array_equal(mesh.points, reference.points)
    assert np.array_equal(_triangle_set(mesh.triangles), _triangle_set(reference.triangles))


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


def _ellipse_radius(a, b):
    return lambda theta: a * b / np.hypot(b * np.cos(theta), a * np.sin(theta))


# the outer boundary radius along each ray, and the inner one
CLOSED_FORM = {
    "disk": (Disk(1.0), lambda theta: np.ones_like(theta), 0.0),
    "ellipse": (Ellipse(2.0, 1.0), _ellipse_radius(2.0, 1.0), 0.0),
    "annulus": (Annulus(0.5, 1.0), lambda theta: np.ones_like(theta), 0.5),
}


@pytest.mark.parametrize("domain", list(CLOSED_FORM))
def test_inside_matches_closed_form_membership(domain):
    """At margin 0 the interpolated radius table tells every point more than
    1e-6 from the boundary along its ray as the closed form does."""
    import plap_lab.geometry as geo

    spec, r_out, r_in = CLOSED_FORM[domain]
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.0, 2 * np.pi, 6000)
    rb = r_out(theta)
    # a third spread over the box, the rest within 1e-3 of either loop
    near = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-6, -3, 4000)
    loop = np.where(rng.random(4000) < 0.5, rb[2000:], r_in)
    rho = np.concatenate([1.3 * rb[:2000] * rng.random(2000), loop + near])
    keep = (np.abs(rho - rb) > 1e-6) & (np.abs(rho - r_in) > 1e-6) & (rho > 0)
    rho, theta, rb = rho[keep], theta[keep], rb[keep]
    pts = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
    got = geo._RadialDomain(spec).inside(pts, margin=0.0)
    assert np.array_equal(got, (rho < rb) & (rho > r_in))
    assert got.any() and not got.all()


@pytest.mark.parametrize("spec, stray", [(DOMAINS["star"], (1.5, 0.0)),
                                         (Annulus(0.5, 1.0), (0.0, 0.0))],
                         ids=["star", "annulus"])
def test_vertex_outside_after_relaxation_is_a_mesh_error(monkeypatch, spec, stray):
    """A lattice point outside the domain (beyond the star, in the annulus's
    hole) meets no spring and stays there; the mesh build reports it."""
    import plap_lab.geometry as geo

    lattice = geo._hex_lattice
    monkeypatch.setattr(geo, "_hex_lattice",
                        lambda *args: np.concatenate([lattice(*args), [stray]]))
    with pytest.raises(MeshGenerationError, match="vertex outside the domain after relaxation"):
        build_mesh(spec, 0.1)


def _locate_reference(mesh, pts, k=24):
    """Point by point: the first candidate containing the point, else the
    first with the largest minimum barycentric coordinate; then clip.  Also
    whether a candidate contains the point, and how many points were clipped."""
    k = min(k, mesh.n_triangles)
    _, cand = cKDTree(mesh.points[mesh.triangles].mean(axis=1)).query(pts, k=k)
    tri_idx, bary_out, found, clipped = [], [], [], 0
    for p, row in zip(pts, cand):
        best, best_bary, best_min = -1, None, -np.inf
        for t in row:
            a, b, c = mesh.points[mesh.triangles[t]]
            lam = np.linalg.solve(np.array([[b[0] - a[0], c[0] - a[0]],
                                            [b[1] - a[1], c[1] - a[1]]]), p - a)
            bary = np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])
            if bary.min() > best_min:
                best, best_bary, best_min = int(t), bary, bary.min()
            if bary.min() >= -1e-12:
                break
        clipped += best_min < 0
        out = np.clip(best_bary, 0.0, None)
        if out.sum() > 0:
            out /= out.sum()
        tri_idx.append(best)
        bary_out.append(out)
        found.append(best_min >= -1e-12)
    return np.array(tri_idx), np.array(bary_out), np.array(found), clipped


def test_batched_locate_matches_pointwise_reference(lab):
    mesh = lab.mesh("disk", 0.1)
    rng = np.random.default_rng(3)
    rho, theta = np.sqrt(rng.uniform(0, 0.99, 400)), rng.uniform(0, 2 * np.pi, 400)
    edges = mesh.triangles[:, [0, 1]]
    pts = np.concatenate([
        np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1),
        mesh.points,
        0.5 * (mesh.points[edges[:, 0]] + mesh.points[edges[:, 1]]),
        1.002 * mesh.points[mesh.boundary_loops[0][::4]],    # just outside the disk
    ])
    tri, bary, found = mesh.locate(pts)
    ref_tri, ref_bary, ref_found, clipped = _locate_reference(mesh, pts)
    assert clipped > 0 and not ref_found.all()
    assert np.array_equal(tri, ref_tri)
    assert np.array_equal(bary, ref_bary)
    assert np.array_equal(found, ref_found)


def test_quad_interpolation_matches_barycentric_reference(lab):
    # row t*Q + q is quadrature point q of triangle t, as in quad_points
    mesh = lab.mesh("ellipse", 0.14)
    interp = mesh.quad_interpolation()
    assert np.abs(interp @ mesh.points - mesh.quad_points).max() <= 1e-15
    corners = mesh.triangles[np.repeat(np.arange(mesh.n_triangles), len(QUAD_BARY))]
    bary = np.tile(QUAD_BARY, (mesh.n_triangles, 1))
    rng = np.random.default_rng(5)
    for shape in ((), (2,), (2, 2)):
        nodal = rng.normal(size=(mesh.n_vertices, *shape))
        ref = np.einsum("qk,qk...->q...", bary, nodal[corners])
        got = (interp @ nodal.reshape(mesh.n_vertices, -1)).reshape(ref.shape)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("head", [None, 1])
def test_staged_locate_matches_reference_on_ellipse(lab, monkeypatch, head):
    # points outside the boundary have no inside hit, so they take the
    # all-candidates fallback of the staged search; with one head candidate
    # the fallback also finds inside hits
    import plap_lab.geometry as geo

    if head is not None:
        monkeypatch.setattr(geo._PointLocator, "_HEAD", head)
    mesh = lab.mesh("ellipse", 0.05)
    rng = np.random.default_rng(5)
    rho, theta = np.sqrt(rng.uniform(0, 1.0, 600)), rng.uniform(0, 2 * np.pi, 600)
    loop = mesh.points[mesh.boundary_loops[0]]
    pts = np.concatenate([
        np.stack([2.0 * rho * np.cos(theta), rho * np.sin(theta)], axis=1),
        0.5 * (loop + np.roll(loop, 1, axis=0)),             # on boundary chords
        1.003 * loop[::3],                                    # just outside the ellipse
        1.05 * loop[1::7],
    ])
    tri, bary, found = mesh.locate(pts)
    ref_tri, ref_bary, ref_found, clipped = _locate_reference(mesh, pts)
    assert clipped > 0 and not ref_found.all()
    assert np.array_equal(tri, ref_tri)
    assert np.array_equal(bary, ref_bary)
    assert np.array_equal(found, ref_found)


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.5, 3.0), c=st.floats(-0.2, 0.2))
def test_star_radius_positive_property(r, c):
    spec = PolarStar(r, cos_coeffs=(c,))
    curve = spec.curves()[0]
    t = np.linspace(0, 2 * np.pi, 64)
    assert np.isfinite(curve.curvature(t)).all()
    assert np.abs(np.linalg.norm(curve.normal(t), axis=1) - 1).max() < 1e-12
