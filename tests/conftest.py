"""Shared fixtures: meshes and solved cases are expensive, so one session
cache hands out memoized results keyed by (domain, metric, p, h)."""

from __future__ import annotations

import pytest

from plap_lab import (Annulus, ConformalMetric, Disk, Ellipse, PolarStar,
                      boundary_geometry, build_mesh, solve)
from plap_lab.pipeline import CaseResult, run_case

DOMAINS = {
    "disk": Disk(1.0),
    "ellipse": Ellipse(2.0, 1.0),
    "annulus": Annulus(0.5, 1.0),
    "star": PolarStar(1.0, cos_coeffs=(0.15,), sin_coeffs=(0.0, 0.05)),
    # r = 1 + 0.3 cos 3t: its node polygon is not convex
    "three_lobes": PolarStar(1.0, cos_coeffs=(0.0, 0.0, 0.3)),
}

METRICS = {
    "flat": ConformalMetric.flat(),
    # phi = -(x^2 + y^2)/8 has Delta phi = -1/2, so K > 0 and Ric >= 0
    "cap": ConformalMetric.poly([(2, 0, -0.125), (0, 2, -0.125)]),
}


class Lab:
    def __init__(self):
        self._meshes: dict = {}
        self._cases: dict = {}
        self._solutions: dict = {}

    def mesh(self, domain: str, h: float):
        key = (domain, h)
        if key not in self._meshes:
            self._meshes[key] = build_mesh(DOMAINS[domain], h)
        return self._meshes[key]

    def bg(self, domain: str, h: float):
        return boundary_geometry(DOMAINS[domain], self.mesh(domain, h))

    def solution(self, domain: str, p: float, h: float = 0.05, metric: str = "flat"):
        key = (domain, p, h, metric)
        if key not in self._solutions:
            self._solutions[key] = solve(self.mesh(domain, h), METRICS[metric], p)
        return self._solutions[key]

    def case(self, domain: str, p: float, h: float = 0.05, metric: str = "flat") -> CaseResult:
        key = (domain, p, h, metric)
        if key not in self._cases:
            self._cases[key] = run_case(DOMAINS[domain], METRICS[metric], p, h,
                                        mesh=self.mesh(domain, h))
        return self._cases[key]

    def all_cases(self) -> list[CaseResult]:
        return list(self._cases.values())


@pytest.fixture(scope="session")
def lab() -> Lab:
    return Lab()
