"""What each entry point imports, each case in a fresh interpreter, and the
package's exported names.

matcheck and radial need only numpy, so they load no scipy and no 2-D layer.
The 2-D layers load scipy.spatial (Qhull, the KD-tree) at the first relaxed
mesh build or point location and scipy.sparse.linalg (SuperLU) at the first
mapped mesh build or factorization, not at import.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import plap_lab

ROOT = Path(__file__).resolve().parents[1]
TWO_D_LAYERS = ("geometry", "fields", "solver", "identities", "pipeline")


# the helpers of the code that `_fresh` runs
_PRELUDE = """
import json, sys

def loaded(*names):
    return {n: n in sys.modules for n in names}
"""


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_one_d_commands_load_no_scipy_and_no_2d_layer(tmp_path):
    matcheck = tmp_path / "matcheck.json"
    matcheck.write_text(json.dumps({"command": "matcheck", "matcheck": {"samples": 3000}}))
    radial = tmp_path / "radial.json"
    radial.write_text(json.dumps({"command": "radial", "p": [2.0, 3.0]}))
    out = _fresh(f"""
        from plap_lab.cli import main
        codes = [main(["matcheck", "--config", {str(matcheck)!r}, "--out", {str(tmp_path / "m")!r}]),
                 main(["radial", "--config", {str(radial)!r}, "--out", {str(tmp_path / "r")!r}])]
        print(json.dumps({{"codes": codes, "modules": sorted(sys.modules)}}))
    """)
    assert out["codes"] == [0, 0]
    assert [m for m in out["modules"] if m == "scipy" or m.startswith("scipy.")] == []
    assert not {f"plap_lab.{m}" for m in TWO_D_LAYERS} & set(out["modules"])


def test_the_benchmark_import_set_loads_no_qhull_and_no_superlu():
    out = _fresh("""
        from plap_lab import cli, geometry, metric, oracles, pipeline
        print(json.dumps(loaded("scipy.sparse", "scipy.spatial", "scipy.sparse.linalg")))
    """)
    assert out == {"scipy.sparse": True, "scipy.spatial": False, "scipy.sparse.linalg": False}


def test_a_mesh_build_loads_qhull_and_a_solve_loads_superlu():
    """A disk build maps a lattice by one sparse solve: it loads SuperLU and
    not Qhull.  An annulus build relaxes: it loads Qhull and not SuperLU, and
    a solve on its mesh loads SuperLU."""
    disk = _fresh("""
        from plap_lab.geometry import Disk, build_mesh
        build_mesh(Disk(1.0), 0.2)
        print(json.dumps(loaded("scipy.spatial", "scipy.sparse.linalg")))
    """)
    assert disk == {"scipy.spatial": False, "scipy.sparse.linalg": True}
    annulus = _fresh("""
        from plap_lab.geometry import Annulus, build_mesh
        from plap_lab.metric import ConformalMetric
        from plap_lab.solver import solve
        mesh = build_mesh(Annulus(0.5, 1.0), 0.2)
        meshed = loaded("scipy.spatial", "scipy.sparse.linalg")
        solve(mesh, ConformalMetric.flat(), 3.0)
        print(json.dumps([meshed, loaded("scipy.sparse.linalg")]))
    """)
    assert annulus == [{"scipy.spatial": True, "scipy.sparse.linalg": False},
                       {"scipy.sparse.linalg": True}]


# every name the package exported when it imported each module eagerly
EXPORTS = {
    "errors": ["AssemblyError", "ConfigError", "MeshGenerationError", "PlapLabError",
               "PreconditionError", "SolverError", "ValidationError"],
    "geometry": ["Annulus", "BoundaryGeometry", "Disk", "Ellipse", "Measures", "PolarStar",
                 "TriMesh", "boundary_geometry", "build_mesh", "domain_measures"],
    "metric": ["ConformalMetric", "gaussian_curvature", "geodesic_boundary_curvature"],
    "fields": ["AnalyticField", "DerivativeBundle", "PolynomialField", "RadialField",
               "analytic_bundle", "field_catalogue", "linearized_on_p", "p_bochner_residual",
               "p_function", "recover_derivatives"],
    "oracles": ["RadialProfile", "ellipse_boundary_integrals", "matrix_inequality_gap",
                "matrix_inequality_sweep", "p_ball_constant", "radial_exact", "radial_fd_solve"],
    "solver": ["Solution", "solve"],
    "identities": ["BoundaryTrace", "IdentityReport", "boundary_trace", "build_report",
                   "equivalence_suite", "integral_identities", "lu_p", "subharmonicity_scan"],
}


def test_every_export_resolves_to_its_module_object_and_is_listed():
    listed = set(dir(plap_lab))
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"plap_lab.{module}")
        for name in names:
            assert getattr(plap_lab, name) is getattr(source, name), f"{module}.{name}"
            assert name in listed, name
    assert plap_lab.__version__ == "0.1.0"
    assert sorted(plap_lab.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_submodules_import_from_the_package_and_the_cli_runs_as_a_module(tmp_path):
    from plap_lab import fields, solver
    assert fields.recover_derivatives is plap_lab.recover_derivatives
    assert solver.solve is plap_lab.solve
    config = tmp_path / "radial.json"
    config.write_text(json.dumps({"command": "radial", "p": [2.0]}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "plap_lab.cli", "radial", "--config", str(config),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out" / "radial.json").read_text())["pass"] is True
