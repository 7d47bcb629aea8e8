"""Bivariate polynomials with exact derivatives.

Coefficients are stored as {(i, j): c} meaning c * x**i * y**j.
`PolynomialField` serves the conformal-factor catalogue (the polynomial phi)
and the analytic test-field catalogue.
"""

from __future__ import annotations

import numpy as np

Coeffs = dict[tuple[int, int], float]


def poly_derive(coeffs: Coeffs, axis: int) -> Coeffs:
    """Differentiate once along axis 0 (x) or 1 (y)."""
    out: Coeffs = {}
    for (i, j), c in coeffs.items():
        if axis == 0 and i > 0:
            out[(i - 1, j)] = out.get((i - 1, j), 0.0) + c * i
        elif axis == 1 and j > 0:
            out[(i, j - 1)] = out.get((i, j - 1), 0.0) + c * j
    return out


def poly_eval(coeffs: Coeffs, pts: np.ndarray) -> np.ndarray:
    x = pts[..., 0]
    y = pts[..., 1]
    out = np.zeros(x.shape)
    for (i, j), c in coeffs.items():
        out += c * x**i * y**j
    return out


def poly_degree(coeffs: Coeffs) -> int:
    return max((i + j for (i, j) in coeffs), default=0)


class PolynomialField:
    """Bivariate polynomial up to degree 4, exact derivatives of every order."""

    def __init__(self, coeffs: Coeffs, name: str = "poly"):
        self.coeffs = dict(coeffs)
        self.name = name
        cx = poly_derive(self.coeffs, 0)
        cy = poly_derive(self.coeffs, 1)
        self._d1 = [cx, cy]
        self._d2 = [[poly_derive(c, ax) for ax in (0, 1)] for c in self._d1]
        self._d3 = [[[poly_derive(c, ax) for ax in (0, 1)] for c in row] for row in self._d2]

    def value(self, pts):
        return poly_eval(self.coeffs, np.asarray(pts, dtype=float))

    def grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.stack([poly_eval(c, pts) for c in self._d1], axis=-1)

    def hess(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape[:-1] + (2, 2))
        for i in range(2):
            for j in range(2):
                out[..., i, j] = poly_eval(self._d2[i][j], pts)
        return out

    def third(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape[:-1] + (2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    out[..., i, j, k] = poly_eval(self._d3[i][j][k], pts)
        return out
