"""One-call orchestration: mesh, solve, traces, identity report.

`run_case` is the only producer of a case's derived state.  It recovers the
derivatives once, builds the boundary trace once and hands both, with the
mesh's exact boundary geometry and the domain measures, to every check.
Only the per-boundary-node trace and the nodal P-function outlive the call;
the per-quadrature-point derivative bundle does not.

Mesh-derived state lives on the `TriMesh`: the point locator, the domain
measures per metric, the recovery normal equations, the tangent pattern and
the trace sample sites are built the first time a case needs them, and every
later case on the same mesh (as `cli` runs all p values of one h) reuses
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import p_function, recover_derivatives
from .geometry import (BoundaryGeometry, DomainSpec, Measures, TriMesh,
                       boundary_geometry, build_mesh, domain_measures)
from .identities import (BoundaryTrace, IdentityReport, Tolerances,
                         boundary_trace, build_report)
from .metric import ConformalMetric, check_nonnegative_ricci
from .solver import SolveConfig, Solution, solve


@dataclass
class CaseResult:
    spec: DomainSpec
    metric: ConformalMetric
    p: float
    h: float
    mesh: TriMesh
    bg: BoundaryGeometry
    measures: Measures
    solution: Solution
    report: IdentityReport
    trace: BoundaryTrace
    p_nodal: np.ndarray         # P-function at the mesh vertices


def run_case(spec: DomainSpec, metric: ConformalMetric | None, p: float, h: float,
             solver_overrides: dict | None = None,
             tolerances: Tolerances | None = None,
             mesh: TriMesh | None = None) -> CaseResult:
    """Solve one (domain, metric, p, h) case and evaluate every identity."""
    metric = metric if metric is not None else ConformalMetric.flat()
    if mesh is None:
        mesh = build_mesh(spec, h)
    if metric.nonnegative_ricci:
        check_nonnegative_ricci(metric, mesh.quad_points)
    bg = boundary_geometry(spec, mesh)
    measures = domain_measures(mesh, metric)
    config = SolveConfig(p=p, **(solver_overrides or {}))
    sol = solve(mesh, metric, config)
    bundle = recover_derivatives(sol.field(), mesh, metric)
    trace = boundary_trace(sol, bg, metric, p, bundle=bundle)
    report = build_report(sol, bundle, trace, measures, tol=tolerances)
    p_nodal = p_function(bundle, sol.field(), p, 2).nodal.values
    return CaseResult(spec=spec, metric=metric, p=p, h=h, mesh=mesh, bg=bg,
                      measures=measures, solution=sol, report=report,
                      trace=trace, p_nodal=p_nodal)
