import json
import re

import numpy as np
import pytest

from plap_lab import (ConformalMetric, PreconditionError, ValidationError,
                      domain_measures, gaussian_curvature, geodesic_boundary_curvature)
from plap_lab.metric import check_nonnegative_ricci

ORIGIN = np.array([[0.0, 0.0]])

# phi = -(x^2+y^2)/4: Delta phi = -1, so K = e^{-2 phi} at every point
CAP4 = ConformalMetric.poly([(2, 0, -0.25), (0, 2, -0.25)])


def test_flat_curvature_zero():
    pts = np.random.default_rng(0).uniform(-1, 1, (50, 2))
    assert np.all(gaussian_curvature(ConformalMetric.flat(), pts) == 0.0)
    assert np.all(gaussian_curvature(ConformalMetric.poly([(0, 0, 0.7)]), pts) == 0.0)


def test_is_flat_measures_phi_zero():
    """phi = 0 however it is written, and only then."""
    zeros = [ConformalMetric.flat(), ConformalMetric.poly([]),
             ConformalMetric.poly([(1, 0, 0.0), (0, 2, -0.0)]),
             ConformalMetric.gaussian_bump(0.0, 0.1, -0.2, 1.1)]
    others = [CAP4, ConformalMetric.poly([(0, 0, 0.7)]),
              ConformalMetric.gaussian_bump(0.3, 0.1, -0.2, 1.1)]
    assert [m.is_flat for m in zeros + others] == [True] * 4 + [False] * 3


def test_cap_curvature_at_origin():
    assert gaussian_curvature(CAP4, ORIGIN)[0] == pytest.approx(1.0, abs=1e-14)


def test_geodesic_boundary_curvature(lab):
    bg = lab.bg("disk", 0.1)
    flat = ConformalMetric.flat()
    assert np.abs(geodesic_boundary_curvature(flat, bg) - 1.0).max() < 1e-12
    c = 0.5
    hg = geodesic_boundary_curvature(ConformalMetric.poly([(0, 0, c)]), bg)
    assert np.abs(hg - np.exp(-c)).max() < 1e-12
    # phi = -r^2/4 on the unit circle: d_nu phi = -1/2, H_g = e^{1/4}(1 - 1/2)
    hg = geodesic_boundary_curvature(CAP4, bg)
    assert np.abs(hg - 0.6420127083438707).max() < 1e-10


def test_bump_derivatives_match_finite_differences():
    m = ConformalMetric.gaussian_bump(0.7, 0.2, -0.3, 0.8)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (20, 2))
    eps = 1e-6
    for k in range(2):
        shift = np.zeros(2)
        shift[k] = eps
        fd = (m.phi(pts + shift) - m.phi(pts - shift)) / (2 * eps)
        assert np.abs(fd - m.grad_phi(pts)[:, k]).max() < 1e-8
        fdh = (m.grad_phi(pts + shift) - m.grad_phi(pts - shift)) / (2 * eps)
        assert np.abs(fdh - m.hess_phi(pts)[:, :, k]).max() < 1e-7


def test_nonnegative_ricci_check(lab):
    # Ric >= 0 is measured: Delta phi <= 0 at every quadrature point, as the
    # mesh's per-metric record keeps its largest value
    mesh = lab.mesh("disk", 0.1)

    def check(metric):
        laplacian_max = domain_measures(mesh, metric).laplacian_max
        assert laplacian_max == metric.laplacian_phi(mesh.quad_points).max()
        check_nonnegative_ricci(laplacian_max)

    check(CAP4)
    check(ConformalMetric.flat())
    # phi = (x^2 + y^2)/4 has Delta phi = 1 everywhere
    bad = ConformalMetric.poly([(2, 0, 0.25), (0, 2, 0.25)])
    with pytest.raises(PreconditionError, match=r"Ric < 0: Delta phi reaches 1\.000e\+00"):
        check(bad)
    # phi = (y^2 - x^2)/4 is harmonic: K = 0 passes
    check(ConformalMetric.poly([(2, 0, -0.25), (0, 2, 0.25)]))
    # phi = x^4/12000: Delta phi = 1e-3 x^2 is small, but positive off x = 0
    with pytest.raises(PreconditionError, match="Ric < 0"):
        check(ConformalMetric.poly([(4, 0, 1e-3 / 12)]))


def test_nonnegative_ricci_random_sample():
    m = ConformalMetric.gaussian_bump(-0.4, 0.0, 0.0, 1.5)
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.2, 1.2, (10_000, 2))
    K = gaussian_curvature(m, pts)
    # negative-amplitude bump keeps K >= 0 only near the center; just check finiteness
    assert np.isfinite(K).all()
    capK = gaussian_curvature(CAP4, rng.uniform(-1, 1, (10_000, 2)))
    assert capK.min() >= -1e-12


def test_metric_json_round_trip():
    # the JSON text of each kind is fixed: configs and report echoes carry it
    texts = {
        ConformalMetric.flat(): '{"kind": "flat"}',
        CAP4: '{"kind": "poly", "params": [[0, 2, -0.25], [2, 0, -0.25]]}',
        ConformalMetric.gaussian_bump(0.2, 0.1, -0.1, 1.0):
            '{"kind": "bump", "params": [0.2, 0.1, -0.1, 1.0]}',
    }
    pts = np.array([[0.3, 0.4], [-0.2, 0.9]])
    for m, text in texts.items():
        assert json.dumps(m.to_json(), sort_keys=True) == text
        m2 = ConformalMetric.from_json(json.loads(text))
        assert m2 == m
        assert np.array_equal(m.phi(pts), m2.phi(pts))
    # phi = 0 and phi = c are exact, with zero derivatives
    for m, c in ((ConformalMetric.flat(), 0.0), (ConformalMetric.poly([(0, 0, 0.3)]), 0.3)):
        assert np.all(m.phi(pts) == c)
        assert np.all(m.grad_phi(pts) == 0.0) and m.grad_phi(pts).shape == (2, 2)
        assert np.all(m.hess_phi(pts) == 0.0) and m.hess_phi(pts).shape == (2, 2, 2)
    with pytest.raises(ValidationError):
        ConformalMetric.from_json({"kind": "poly", "params": [[5, 0, 1.0]]})


@pytest.mark.parametrize("coeffs, repeated", [
    ([[2, 0, 0.1], [2, 0, 0.2]], "[(2, 0)]"),
    ([[2, 0, -0.1], [0, 1, 0.3], [2, 0, 0.1]], "[(2, 0)]"),
    ([[0, 2, 1.0], [1, 1, 0.5], [0, 2, 1.0], [1, 1, 0.5]], "[(0, 2), (1, 1)]"),
])
def test_a_repeated_monomial_is_refused(coeffs, repeated):
    """phi keeps one coefficient per monomial x^i y^j, so a poly metric that
    gives one twice would drop all but one of them."""
    with pytest.raises(ValidationError, match=re.escape(f"(i, j) in {repeated}")):
        ConformalMetric.poly(coeffs)


def test_constant_rescale_keeps_curvature_zero(lab):
    bg = lab.bg("disk", 0.1)
    m = ConformalMetric.poly([(0, 0, 1.3)])
    assert np.all(gaussian_curvature(m, bg.position) == 0.0)
