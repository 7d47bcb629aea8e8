"""Conformally flat 2-D Riemannian metrics g = e^{2 phi} delta.

The conformal exponent phi comes from a small closed-form catalogue so that
first and second derivatives are exact: a bivariate polynomial up to degree 4
or a radial Gaussian bump.  The flat metric is the polynomial with no
coefficients (phi = 0); its `kind` survives only as the JSON label, and
`is_flat` measures phi = 0 from the coefficients.  In two dimensions
Ric >= 0 is equivalent to the Gaussian curvature K = -e^{-2 phi} (Delta phi)
being nonnegative, i.e. to Delta phi <= 0: `geometry.domain_measures`
measures the largest Delta phi at a mesh's quadrature points, and
`check_nonnegative_ricci` checks it.  No metric declares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._poly import PolynomialField, poly_degree
from .errors import PreconditionError, ValidationError

_EYE2 = np.eye(2)


@dataclass(frozen=True)
class ConformalMetric:
    kind: str                               # flat | poly | bump
    coeffs: tuple = ()                      # ((i, j, c), ...): phi = sum c x^i y^j
    bump: tuple = ()                        # (amplitude, x0, y0, sigma)

    # -- catalogue constructors -------------------------------------------

    @staticmethod
    def flat() -> "ConformalMetric":
        return ConformalMetric(kind="flat")

    @staticmethod
    def poly(coeffs: list) -> "ConformalMetric":
        items = tuple(sorted((int(i), int(j), float(c)) for i, j, c in coeffs))
        if poly_degree({(i, j): c for i, j, c in items}) > 4:
            raise ValidationError("conformal polynomial exponent limited to degree 4")
        return ConformalMetric(kind="poly", coeffs=items)

    @staticmethod
    def gaussian_bump(amplitude: float, x0: float, y0: float, sigma: float) -> "ConformalMetric":
        if sigma <= 0:
            raise ValidationError("bump width sigma must be positive")
        return ConformalMetric(kind="bump", bump=(float(amplitude), float(x0), float(y0), float(sigma)))

    # -- basic queries ------------------------------------------------------

    @property
    def is_flat(self) -> bool:
        """phi = 0, measured: no nonzero polynomial coefficient and no bump
        of nonzero amplitude, however the metric is written."""
        return (all(c == 0.0 for _, _, c in self.coeffs)
                and not (self.bump and self.bump[0] != 0.0))

    @cached_property
    def _phi_poly(self) -> PolynomialField:
        return PolynomialField({(i, j): c for i, j, c in self.coeffs})

    def phi(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.kind != "bump":
            return self._phi_poly.value(pts)
        A, x0, y0, s = self.bump
        d2 = (pts[..., 0] - x0) ** 2 + (pts[..., 1] - y0) ** 2
        return A * np.exp(-d2 / (2.0 * s * s))

    def grad_phi(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.kind != "bump":
            return self._phi_poly.grad(pts)
        A, x0, y0, s = self.bump
        val = self.phi(pts)
        d = np.stack([pts[..., 0] - x0, pts[..., 1] - y0], axis=-1)
        return -d * (val / (s * s))[..., None]

    def hess_phi(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.kind != "bump":
            return self._phi_poly.hess(pts)
        A, x0, y0, s = self.bump
        val = self.phi(pts)
        d = np.stack([pts[..., 0] - x0, pts[..., 1] - y0], axis=-1)
        outer = d[..., :, None] * d[..., None, :]
        return (val / s**4)[..., None, None] * outer - (val / s**2)[..., None, None] * _EYE2

    def laplacian_phi(self, pts: np.ndarray) -> np.ndarray:
        h = self.hess_phi(pts)
        return h[..., 0, 0] + h[..., 1, 1]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "flat":
            return {"kind": "flat"}
        if self.kind == "poly":
            return {"kind": "poly", "params": [[i, j, c] for i, j, c in self.coeffs]}
        return {"kind": "bump", "params": list(self.bump)}

    @staticmethod
    def from_json(obj: dict) -> "ConformalMetric":
        """Metric from a config's `metric` object, already checked against the
        config schema, which fixes each kind's params; only the degree and the
        bump width are checked here."""
        kind = obj["kind"]
        params = obj.get("params", [])
        if kind == "flat":
            return ConformalMetric.flat()
        if kind == "poly":
            return ConformalMetric.poly(params)
        return ConformalMetric.gaussian_bump(*params)


# --------------------------------------------------------------------------
# Curvature operations
# --------------------------------------------------------------------------


def gaussian_curvature(metric: ConformalMetric, pts: np.ndarray) -> np.ndarray:
    """K = -e^{-2 phi} Delta phi (zero wherever phi is harmonic, as for the flat metric)."""
    pts = np.asarray(pts, dtype=float)
    return -np.exp(-2.0 * metric.phi(pts)) * metric.laplacian_phi(pts)


def geodesic_boundary_curvature(metric: ConformalMetric, bg) -> np.ndarray:
    """Boundary mean curvature under g: H_g = e^{-phi} (H_euclid + d_nu phi)."""
    phi = metric.phi(bg.position)
    dphi = metric.grad_phi(bg.position)
    dn = np.einsum("ij,ij->i", dphi, bg.normal)
    return np.exp(-phi) * (bg.curvature + dn)


# rounding allowance of the Ric >= 0 check on Delta phi
_RICCI_TOL = 1e-12


def check_nonnegative_ricci(laplacian_max: float) -> None:
    """Ric >= 0 from the largest Delta phi over the points measured (a
    case's is `Measures.laplacian_max`, at its mesh's quadrature points):
    raise a PreconditionError naming it when it exceeds _RICCI_TOL."""
    if laplacian_max > _RICCI_TOL:
        raise PreconditionError(
            f"Ric < 0: Delta phi reaches {laplacian_max:.3e} > {_RICCI_TOL:.1e}")
