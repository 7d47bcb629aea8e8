"""Numerical laboratory for the p-Laplacian torsion problem on planar domains.

Solves -Delta_p u = 1 with zero boundary data on flat and conformally flat
2-D domains by regularized energy minimization, and verifies the integral
identities, pointwise inequalities and boundary relations satisfied by the
torsion function against exact radial solutions and closed-form boundary
quadratures.
"""

from .errors import (AssemblyError, ConfigError, MeshGenerationError,
                     PlapLabError, PreconditionError, SolverError,
                     ValidationError)
from .geometry import (Annulus, BoundaryGeometry, Disk, Ellipse, Measures,
                       PolarStar, TriMesh, boundary_geometry, build_mesh,
                       domain_measures)
from .metric import (ConformalMetric, gaussian_curvature,
                     geodesic_boundary_curvature)
from .fields import (AnalyticField, DerivativeBundle, PolynomialField,
                     RadialField, analytic_bundle, field_catalogue,
                     linearized_on_p, p_bochner_residual, p_function,
                     recover_derivatives)
from .oracles import (RadialProfile, ellipse_boundary_integrals,
                      matrix_inequality_gap, matrix_inequality_sweep,
                      p_ball_constant, radial_exact, radial_fd_solve)
from .solver import Solution, solve
from .identities import (BoundaryTrace, IdentityReport, Tolerances,
                         boundary_trace, build_report, equivalence_suite,
                         integral_identities, lu_p, subharmonicity_scan)

__version__ = "0.1.0"
