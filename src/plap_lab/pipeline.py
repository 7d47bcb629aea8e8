"""One-call orchestration: mesh, solve, traces, identity report.

`run_case` is the only producer of a case's derived state.  It recovers the
derivatives once from the solution's nodal values, builds the boundary trace
once from them, and hands both, with the nodal values, to every check and
to the closed-form oracles of the report.  Each stage takes its context
once: the bundle carries the mesh (with its exact boundary geometry and its
cached domain measures, the only source of the metric's weights) and the
metric, the trace carries p.  Only the solution, the per-boundary-node trace,
the report and the nodal P-function outlive the call; the
per-quadrature-point derivative bundle does not.

Mesh-derived state lives on the `TriMesh`: the minimum angle, the
quadrature interpolation, the point locator, the domain measures per metric
(with the metric's curvature at the quadrature points), the recovery's
weighted basis products and normal-matrix factors, the solver's assembly
maps, its P1 stiffness with that matrix's factor, the trace sample sites,
the subharmonicity scan's triangle-vertex incidence and boundary mask and
the oracles' vertex radii are built the first time a case needs them, and
every later case on the same mesh (as `cli` runs all p values of one h)
reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import frame_gradient, p_function, recover_derivatives
from .geometry import DIM, DomainSpec, TriMesh, build_mesh
from .identities import BoundaryTrace, IdentityReport, boundary_trace, build_report
from .metric import ConformalMetric
from .solver import Solution, solve


@dataclass
class CaseResult:
    solution: Solution
    trace: BoundaryTrace
    report: IdentityReport
    p_nodal: np.ndarray         # P-function at the mesh vertices

    @property
    def mesh(self) -> TriMesh:
        return self.solution.mesh

    @property
    def p(self) -> float:
        return self.solution.p

    @property
    def h(self) -> float:
        return self.mesh.h


def run_case(spec: DomainSpec, metric: ConformalMetric | None, p: float, h: float,
             mesh: TriMesh | None = None) -> CaseResult:
    """Solve one (domain, metric, p, h) case and evaluate every identity.

    A given mesh must have been built from ``spec`` at ``h``."""
    metric = metric if metric is not None else ConformalMetric.flat()
    if mesh is None:
        mesh = build_mesh(spec, h)
    elif spec != mesh.spec or h != mesh.h:
        raise ValidationError(f"mesh was built for {mesh.spec} at h={mesh.h}, "
                              f"not for {spec} at h={h}")
    sol = solve(mesh, metric, p)
    bundle = recover_derivatives(mesh, sol.u, metric)
    trace = boundary_trace(bundle, p)
    report = build_report(sol.u, bundle, trace)
    gnorm = np.linalg.norm(frame_gradient(metric, mesh.points, bundle.nodal_grad), axis=1)
    return CaseResult(solution=sol, trace=trace, report=report,
                      p_nodal=p_function(gnorm, sol.u, p, DIM))
