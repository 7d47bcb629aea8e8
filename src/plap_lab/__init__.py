"""Numerical laboratory for the p-Laplacian torsion problem on planar domains.

Solves -Delta_p u = 1 with zero boundary data on flat and conformally flat
2-D domains by regularized energy minimization, and verifies the integral
identities, pointwise inequalities and boundary relations satisfied by the
torsion function against exact radial solutions and closed-form boundary
quadratures.
"""

import importlib

# each exported name by its module; a name is imported on first access
# (PEP 562), so that importing one module, such as the numpy-only `oracles`,
# does not load the 2-D layers and scipy
_EXPORTS = {
    "errors": ("AssemblyError", "ConfigError", "MeshGenerationError", "PlapLabError",
               "PreconditionError", "SolverError", "ValidationError"),
    "geometry": ("Annulus", "BoundaryGeometry", "Disk", "Ellipse", "Measures", "PolarStar",
                 "TriMesh", "boundary_geometry", "build_mesh", "domain_measures"),
    "metric": ("ConformalMetric", "gaussian_curvature", "geodesic_boundary_curvature"),
    "fields": ("AnalyticField", "DerivativeBundle", "PolynomialField", "RadialField",
               "analytic_bundle", "field_catalogue", "linearized_on_p", "p_bochner_residual",
               "p_function", "recover_derivatives"),
    "oracles": ("RadialProfile", "ellipse_boundary_integrals", "matrix_inequality_gap",
                "matrix_inequality_sweep", "p_ball_constant", "radial_exact",
                "radial_fd_solve"),
    "solver": ("Solution", "solve"),
    "identities": ("BoundaryTrace", "IdentityReport", "boundary_trace", "build_report",
                   "equivalence_suite", "integral_identities", "lu_p", "subharmonicity_scan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
