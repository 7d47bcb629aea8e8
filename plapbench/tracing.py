"""In-memory span tracer that measures plap_lab's layers from outside.

While an operation is traced, each function in ``FUNCTIONS`` is replaced at
every place the package looks it up: in the module that defines it and in
every module that copied the name with ``from .x import name``.  The methods
in ``METHODS`` are replaced on their class.  Each call records one span with
its parent span; the originals are restored when the operation ends, so the
untraced operations of the same process run the unmodified package.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

PACKAGE = "plap_lab"
LAYERS = ("geometry", "metric", "fields", "solver", "identities", "oracles",
          "pipeline", "cli")

# (module, attribute): module functions, plus scipy's Delaunay and spsolve
# as the geometry and solver layers look them up
FUNCTIONS = (
    ("geometry", "build_mesh"),
    ("geometry", "Delaunay"),
    ("geometry", "curve_length"),
    ("geometry", "boundary_geometry"),
    ("metric", "check_nonnegative_ricci"),
    ("fields", "recover_derivatives"),
    ("solver", "solve"),
    ("solver", "spsolve"),
    ("identities", "build_report"),
    ("identities", "boundary_trace"),
    ("oracles", "matrix_inequality_sweep"),
    ("pipeline", "run_case"),
    ("cli", "main"),
)
# (module, class, method)
METHODS = (
    ("geometry", "TriMesh", "locate"),
    ("metric", "ConformalMetric", "phi"),
)

# counters read from a call's arguments or result when the call returns
_COUNTERS = {
    "geometry.locate": lambda args, out: {"points": len(np.atleast_2d(args[1]))},
    "solver.solve": lambda args, out: {
        "rungs": len(out.steps),
        "newton_iters": sum(s.iterations for s in out.steps)},
    "oracles.matrix_inequality_sweep": lambda args, out: {"samples": out.samples},
}


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of every traced operation of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.meshes: dict[int, object] = {}   # op -> mesh of its last case
        self._stack: list[int] = []
        self._op = -1

    def _module(self, name: str):
        return sys.modules[f"{PACKAGE}.{name}"]

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(id=len(self.spans),
                        parent=self._stack[-1] if self._stack else None,
                        op=self._op, name=name, start=time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if counter is not None:
                span.counts = counter(args, out)
            if name == "pipeline.run_case":
                self.meshes[self._op] = out.mesh
            return out

        return traced

    @contextlib.contextmanager
    def operation(self):
        """Trace one operation; yields its op id."""
        self._op += 1
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        undo = []
        try:
            for mod, attr in FUNCTIONS:
                original = getattr(self._module(mod), attr)
                wrapped = self._wrap(f"{mod}.{attr}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                            undo.append((m, key, original))
            for mod, cls_name, meth in METHODS:
                cls = getattr(self._module(mod), cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{mod}.{meth}", original))
                undo.append((cls, meth, original))
            yield self._op
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def op_stats(self, op: int) -> dict:
        """Calls, inclusive time, self time and counters per span name."""
        spans = [s for s in self.spans if s.op == op]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "counts": defaultdict(int)})
        for s in spans:
            st = stats[s.name]
            st["calls"] += 1
            st["incl"] += s.end - s.start
            st["self"] += s.end - s.start - child_time[s.id]
            for k, v in s.counts.items():
                st["counts"][k] += v
        return stats

    def layer_metrics(self, op: int) -> dict:
        """The per-layer metrics of one traced operation (see README.md)."""
        st = self.op_stats(op)

        def calls(name):
            return st[name]["calls"] if name in st else 0

        def incl(name):
            return st[name]["incl"] if name in st else 0.0

        def self_s(name):
            return st[name]["self"] if name in st else 0.0

        def count(name, key):
            return st[name]["counts"][key] if name in st else 0

        mesh = self.meshes.pop(op, None)
        newton = count("solver.solve", "newton_iters")
        solves = calls("solver.spsolve")
        m = {
            "geometry.build_mesh_s": incl("geometry.build_mesh"),
            "geometry.delaunay_calls": calls("geometry.Delaunay"),
            "geometry.delaunay_s": incl("geometry.Delaunay"),
            "geometry.n_vertices": mesh.n_vertices if mesh is not None else 0,
            "geometry.min_angle_deg": mesh.min_angle_deg() if mesh is not None else 0.0,
            "geometry.curve_length_calls": calls("geometry.curve_length"),
            "geometry.boundary_geometry_calls": calls("geometry.boundary_geometry"),
            "geometry.locate_points": count("geometry.locate", "points"),
            "geometry.locate_s": incl("geometry.locate"),
            "metric.phi_calls": calls("metric.phi"),
            "metric.phi_s": incl("metric.phi"),
            "metric.check_nonnegative_ricci_s": incl("metric.check_nonnegative_ricci"),
            "fields.recover_calls": calls("fields.recover_derivatives"),
            "fields.recover_s": incl("fields.recover_derivatives"),
            "solver.solve_self_s": self_s("solver.solve"),
            "solver.rungs": count("solver.solve", "rungs"),
            "solver.newton_iters": newton,
            "solver.linear_solves": solves,
            "solver.spsolve_s": incl("solver.spsolve"),
            "solver.useful_solve_ratio": newton / solves if solves else 0.0,
            "identities.build_report_self_s": self_s("identities.build_report"),
            "identities.boundary_trace_calls": calls("identities.boundary_trace"),
            "identities.boundary_trace_s": incl("identities.boundary_trace"),
            "pipeline.run_case_self_s": self_s("pipeline.run_case"),
            "cli.emit_self_s": self_s("cli.main"),
            "oracles.sweep_s": incl("oracles.matrix_inequality_sweep"),
            "oracles.samples": count("oracles.matrix_inequality_sweep", "samples"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum((v["self"] for k, v in st.items()
                                       if k.split(".", 1)[0] == layer), 0.0)
        return m

    def write(self, path: Path, t0: float) -> None:
        """Write every span as one JSON line, times relative to ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                rec = asdict(s)
                rec["start"] -= t0
                rec["end"] -= t0
                f.write(json.dumps(rec, sort_keys=True) + "\n")
