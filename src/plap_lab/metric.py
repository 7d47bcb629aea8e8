"""Conformally flat 2-D Riemannian metrics g = e^{2 phi} delta.

The conformal exponent phi comes from a small closed-form catalogue so that
first and second derivatives are exact: a bivariate polynomial up to degree 4
or a radial Gaussian bump.  The flat and constant metrics are polynomials of
degree 0 (phi = 0 with no coefficients, phi = c as c x^0 y^0); their `kind`
survives only as the JSON label and for `is_flat`.  In two dimensions
Ric >= 0 is equivalent to the Gaussian curvature K = -e^{-2 phi} (Delta phi)
being nonnegative, i.e. to Delta phi <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._poly import PolynomialField, poly_degree
from .errors import ValidationError

_EYE2 = np.eye(2)


@dataclass(frozen=True)
class ConformalMetric:
    kind: str                               # flat | constant | poly | bump
    coeffs: tuple = ()                      # ((i, j, c), ...): phi = sum c x^i y^j
    bump: tuple = ()                        # (amplitude, x0, y0, sigma)
    nonnegative_ricci: bool = False

    # -- catalogue constructors -------------------------------------------

    @staticmethod
    def flat() -> "ConformalMetric":
        return ConformalMetric(kind="flat", nonnegative_ricci=True)

    @staticmethod
    def const(c: float) -> "ConformalMetric":
        return ConformalMetric(kind="constant", coeffs=((0, 0, float(c)),), nonnegative_ricci=True)

    @staticmethod
    def poly(coeffs: list, nonnegative_ricci: bool = False) -> "ConformalMetric":
        items = tuple(sorted((int(i), int(j), float(c)) for i, j, c in coeffs))
        if poly_degree({(i, j): c for i, j, c in items}) > 4:
            raise ValidationError("conformal polynomial exponent limited to degree 4")
        return ConformalMetric(kind="poly", coeffs=items, nonnegative_ricci=nonnegative_ricci)

    @staticmethod
    def gaussian_bump(amplitude: float, x0: float, y0: float, sigma: float,
                      nonnegative_ricci: bool = False) -> "ConformalMetric":
        if sigma <= 0:
            raise ValidationError("bump width sigma must be positive")
        return ConformalMetric(
            kind="bump",
            bump=(float(amplitude), float(x0), float(y0), float(sigma)),
            nonnegative_ricci=nonnegative_ricci,
        )

    # -- basic queries ------------------------------------------------------

    @property
    def is_flat(self) -> bool:
        return self.kind == "flat"

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
        if self.kind == "constant":
            return {"kind": "constant", "params": [self.coeffs[0][2]]}
        if self.kind == "poly":
            out = {"kind": "poly", "params": [[i, j, c] for i, j, c in self.coeffs]}
        else:
            out = {"kind": "bump", "params": list(self.bump)}
        if self.nonnegative_ricci:
            out["nonnegative_ricci"] = True
        return out

    @staticmethod
    def from_json(obj: dict) -> "ConformalMetric":
        """Metric from a config's `metric` object, already checked against the
        config schema, which fixes each kind's params; only the degree and the
        bump width are checked here."""
        kind = obj["kind"]
        flag = bool(obj.get("nonnegative_ricci", False))
        params = obj.get("params", [])
        if kind == "flat":
            return ConformalMetric.flat()
        if kind == "constant":
            return ConformalMetric.const(*params)
        if kind == "poly":
            return ConformalMetric.poly(params, nonnegative_ricci=flag)
        return ConformalMetric.gaussian_bump(*params, nonnegative_ricci=flag)


# --------------------------------------------------------------------------
# Curvature operations
# --------------------------------------------------------------------------


def gaussian_curvature(metric: ConformalMetric, pts: np.ndarray) -> np.ndarray:
    """K = -e^{-2 phi} Delta phi (identically zero for flat and constant)."""
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


def check_nonnegative_ricci(metric: ConformalMetric, pts: np.ndarray) -> None:
    """Verify Delta phi <= _RICCI_TOL at the given points for a declared Ric >= 0 metric."""
    if not metric.nonnegative_ricci:
        raise ValidationError("metric is not declared nonnegative_ricci")
    worst = float(metric.laplacian_phi(np.asarray(pts, dtype=float)).max())
    if worst > _RICCI_TOL:
        raise ValidationError(
            f"metric declared nonnegative_ricci but Delta phi reaches {worst:.3e} > {_RICCI_TOL:.1e}"
        )
