"""What each entry point imports, each case in a fresh interpreter, and the
package's exported names.

matcheck and radial need only numpy, so they load no scipy and no 2-D layer.
The 2-D layers multiply their sparse matrices by scipy's ``_sparsetools``
kernels and call LAPACK's band Cholesky (the only sparse factorization)
through scipy's ``_flapack`` wrappers, each extension loaded from its file
alone (``_sparse.scipy_extension``), and locate points with a numpy grid: a
disk, ellipse or annulus build, solve, location or verify run loads no
public scipy subpackage, neither scipy.sparse nor scipy.linalg nor
scipy.spatial nor scipy.special.  A star mesh build loads scipy.spatial
(Qhull), which loads scipy.linalg, and scipy.sparse.csgraph (the reverse
Cuthill-McKee order, whose import loads scipy.sparse and
scipy.sparse.linalg), at the build, not at import.  An extension loaded
from its file becomes its subpackage's attribute when the subpackage is
imported later, with the same functions, and the kernels' products are
scipy.sparse's bit for bit whichever loads first, and where their file is
not found and they come through scipy.sparse.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import plap_lab

ROOT = Path(__file__).resolve().parents[1]
TWO_D_LAYERS = ("geometry", "fields", "solver", "identities", "pipeline")


# the helpers of the code that `_fresh` runs: a module is loaded when one of
# that name lives in the process, in sys.modules or not (an extension that
# `_sparse.scipy_extension` loads from its file is not)
_PRELUDE = """
import gc, json, sys, types

def loaded(*names):
    live = {m.__name__ for m in gc.get_objects() if isinstance(m, types.ModuleType)}
    return {n: n in live for n in names}
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
    assert out == {"scipy.sparse": False, "scipy.spatial": False, "scipy.sparse.linalg": False}


def test_only_a_star_build_loads_qhull_and_csgraph():
    """A disk or ellipse build maps a lattice by one band Cholesky solve;
    an annulus build wraps a lattice in closed form.  A solve on any of
    these meshes factors in the mesh's own numbering, and a point location
    buckets triangles in a numpy grid.  The band Cholesky loads scipy's
    ``_flapack`` from its file, at the first factorization, so none of them
    loads scipy.linalg, Qhull (scipy.spatial), scipy.special, scipy.sparse,
    scipy.sparse.csgraph or scipy.sparse.linalg.  A star build relaxes and
    numbers its interior in reverse Cuthill-McKee order: it loads Qhull,
    which loads scipy.linalg and with it ``_flapack``, and
    scipy.sparse.csgraph, which loads scipy.sparse and scipy.sparse.linalg."""
    names = ("scipy.spatial", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg",
             "scipy.sparse", "scipy.linalg._flapack", "scipy.special")
    builds = _fresh(f"""
        from plap_lab.geometry import Annulus, Disk, Ellipse, build_mesh
        from plap_lab.metric import ConformalMetric
        from plap_lab.solver import solve
        out = {{}}
        for name, spec in (("annulus", Annulus(0.5, 1.0)), ("disk", Disk(1.0)),
                           ("ellipse", Ellipse(2.0, 1.0))):
            mesh = build_mesh(spec, 0.2)
            out[name] = loaded(*{names!r})
            solve(mesh, ConformalMetric.flat(), 3.0)
            out[name + " solve"] = loaded(*{names!r})
            mesh.locate(mesh.points)
            out[name + " locate"] = loaded(*{names!r})
        print(json.dumps(out))
    """)
    none = dict.fromkeys(names, False)
    # the annulus build, the first of the process, factors nothing
    assert builds == {f"{name}{step}": {**none, "scipy.linalg._flapack": name + step != "annulus"}
                      for name in ("annulus", "disk", "ellipse")
                      for step in ("", " solve", " locate")}
    star = _fresh(f"""
        from plap_lab.geometry import PolarStar, build_mesh
        build_mesh(PolarStar(1.0, cos_coeffs=(0.15,)), 0.2)
        print(json.dumps(loaded(*{names[:6]!r})))
    """)
    assert star == {"scipy.spatial": True, "scipy.sparse.csgraph": True,
                    "scipy.sparse.linalg": True, "scipy.linalg": True, "scipy.sparse": True,
                    "scipy.linalg._flapack": True}


def test_an_ellipse_verify_run_loads_no_public_scipy_subpackage(tmp_path):
    """A whole verify run on the ellipse loads none of scipy's public
    subpackages."""
    config = tmp_path / "ellipse.json"
    config.write_text(json.dumps({"command": "verify",
                                  "domain": {"variant": "ellipse", "a": 2.0, "b": 1.0},
                                  "metric": {"kind": "flat"}, "p": [2.0, 3.0], "h": [0.2]}))
    out = _fresh(f"""
        from plap_lab.cli import main
        code = main(["verify", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}])
        subpackages = sorted(m for m, module in sys.modules.items()
                             if m.startswith("scipy.") and m.count(".") == 1
                             and not m.startswith("scipy._") and hasattr(module, "__path__"))
        print(json.dumps({{"code": code, "subpackages": subpackages}}))
    """)
    # h = 0.2 is too coarse for some checks' bounds (exit 1), but the run
    # still goes through every layer and writes its summary
    assert out["code"] in (0, 1) and (tmp_path / "out" / "summary.json").exists()
    assert out["subpackages"] == []


def _loads(subpackage: str, call: str, first: str) -> dict[str, str]:
    """The code of each case of a load-order test, which binds ``module`` by
    ``call``: before scipy.<subpackage> (case ``first``), after it (as a star
    run does), or through it, with the extension file's lookup pointed at an
    empty folder."""
    return {first: f"module = {call}",
            f"scipy.{subpackage} first": f"import scipy.{subpackage}\nmodule = {call}",
            "fallback": f"""
                import scipy
                real, scipy.__file__ = scipy.__file__, str(EMPTY / "__init__.py")
                module = {call}
                scipy.__file__ = real
            """}


_KERNEL_LOADS = _loads("sparse", "_sparse._kernels()", "kernels first")
_FLAPACK_LOADS = _loads("linalg", "_band._flapack()", "_flapack first")
# the kernels that `_sparse` calls
_KERNELS = ("csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs", "coo_tocsr",
            "csr_sort_indices", "csr_sum_duplicates", "csr_matmat_maxnnz", "csr_matmat")


@pytest.mark.parametrize("order", list(_KERNEL_LOADS))
def test_the_sparse_kernels_give_scipy_sparses_bits_however_they_load(tmp_path, order):
    """The products of the gradient map, its transpose, the slot map, the
    p = 3 tangent and the quadrature interpolation, on one and on two
    columns, equal scipy.sparse's on the same arrays bit for bit, and the
    two-ring equals scipy.sparse's square of the one-ring pattern in order.
    The kernels load scipy.sparse only in the fallback, and are the
    functions of scipy.sparse's ``_sparsetools`` attribute once it is
    imported."""
    load = textwrap.indent(textwrap.dedent(_KERNEL_LOADS[order]), " " * 8)
    out = _fresh(f"""
        from pathlib import Path
        import numpy as np
        from plap_lab import _sparse, fields
        EMPTY = Path({str(tmp_path)!r})
{load}
        before = loaded("scipy.sparse")["scipy.sparse"]
        from plap_lab.geometry import Disk, build_mesh
        from plap_lab.metric import ConformalMetric
        from plap_lab.solver import _Assembler
        mesh = build_mesh(Disk(1.0), 0.1)
        asm = _Assembler(mesh, ConformalMetric.flat(), 3.0)
        rng = np.random.default_rng(2)
        u = rng.uniform(0.0, 0.2, mesh.n_vertices)
        u[:asm.nb] = 0.0
        mats = {{"grad": asm._grad, "grad.T": asm._grad.T, "slots": asm._slots,
                 "tangent": asm.tangent(u, 1e-3), "quad": mesh.quad_interpolation()}}
        operands = {{name: [rng.normal(size=m.shape[1]), rng.normal(size=(m.shape[1], 3))]
                     for name, m in mats.items()}}
        got = {{name: [m @ x for x in operands[name]] for name, m in mats.items()}}
        ring = fields._two_ring(mesh)

        import scipy.sparse as sp
        def scipy_matrix(m):
            layout = sp.csr_matrix if m.layout == "csr" else sp.csc_matrix
            return layout((m.data, m.indices, m.indptr), shape=m.shape)
        ref = {{name: scipy_matrix(m) for name, m in mats.items() if name != "grad.T"}}
        ref["grad.T"] = ref["grad"].T
        same = {{name: all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                           for a, b in zip(got[name], (ref[name] @ x for x in operands[name])))
                 for name in mats}}
        tri, n = mesh.triangles, mesh.n_vertices
        i = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2], tri[:, 1], tri[:, 2], tri[:, 0]])
        j = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0], tri[:, 0], tri[:, 1], tri[:, 2]])
        adj = sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)).tocsr()
        adj.data[:] = 1.0
        one = adj + sp.eye(n, format="csr")
        square = one @ one
        same["two-ring"] = all(np.array_equal(getattr(ring, a), getattr(square, a))
                               and getattr(ring, a).dtype == getattr(square, a).dtype
                               for a in ("indptr", "indices", "data"))
        print(json.dumps({{"before": before, "same": same,
                           "attribute": [getattr(sp._sparsetools, f) is getattr(module, f)
                                         for f in {_KERNELS!r}]}}))
    """)
    assert out == {"before": order != "kernels first",
                   "same": dict.fromkeys(["grad", "grad.T", "slots", "tangent", "quad",
                                          "two-ring"], True),
                   "attribute": [True] * len(_KERNELS)}


@pytest.mark.parametrize("order", list(_FLAPACK_LOADS))
def test_the_lapack_wrappers_are_scipy_linalgs_however_they_load(tmp_path, order):
    """``_flapack`` loads scipy.linalg only in the fallback, and its band
    routines are those of scipy.linalg's ``_flapack`` attribute once
    scipy.linalg is imported."""
    load = textwrap.indent(textwrap.dedent(_FLAPACK_LOADS[order]), " " * 8)
    out = _fresh(f"""
        from pathlib import Path
        from plap_lab import _band
        EMPTY = Path({str(tmp_path)!r})
{load}
        before = loaded("scipy.linalg")["scipy.linalg"]
        import scipy.linalg
        print(json.dumps({{"before": before,
                           "attribute": [getattr(scipy.linalg._flapack, f) is getattr(module, f)
                                         for f in ("dpbtrf", "dpbtrs")]}}))
    """)
    assert out == {"before": order != "_flapack first", "attribute": [True, True]}


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
