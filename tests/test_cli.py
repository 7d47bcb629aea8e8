import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import plap_lab
from plap_lab import pipeline, solver
from plap_lab.cli import _check, emit_plot_data, main, validate_config
from plap_lab.errors import ConfigError, MeshGenerationError
from plap_lab.geometry import Annulus, PolarStar
from plap_lab.identities import EQ_CURVATURE_NODEWISE, FLUX_REL, IDENTITY_REL

SCHEMAS = Path(plap_lab.__file__).parent / "schemas"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DISK_VERIFY = {
    "command": "verify",
    "domain": {"variant": "disk", "radius": 1.0},
    "metric": {"kind": "flat"},
    "p": [2.0],
    "h": [0.1],
    "seed": 7,
}


def _write(tmp_path: Path, obj: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def _strip_timestamps(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


# ------------------------------------------------------------- validation

def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        validate_config({**DISK_VERIFY, "bogus": 1}, "verify")
    with pytest.raises(ConfigError):
        validate_config({**DISK_VERIFY, "matcheck": {"warp": 9}}, "verify")


def test_validate_rejects_command_mismatch():
    with pytest.raises(ConfigError):
        validate_config(DISK_VERIFY, "sweep")


def test_validate_requires_domain_for_verify():
    with pytest.raises(ConfigError):
        validate_config({"p": [2.0], "h": [0.1]}, "verify")


@pytest.mark.parametrize("key, values", [
    ("p", [2.0, 2.0]), ("h", [0.2, 0.2]),
    # distinct values that print to the same tag would write to one file
    ("p", [1.5, 1.5000001]), ("h", [0.1, 0.10000001]),
])
def test_values_sharing_a_file_tag_exit_2(tmp_path, key, values):
    with pytest.raises(ConfigError, match=f"config.{key} values must give distinct file tags"):
        validate_config({**DISK_VERIFY, key: values}, "verify")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(_write(tmp_path, {**DISK_VERIFY, key: values})),
                 "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["error"]["type"] == "config"
    assert not list(out.glob("report_*.json"))


def test_validate_rejects_reversed_p_range():
    with pytest.raises(ConfigError, match="p_range"):
        validate_config({"matcheck": {"p_range": [3.0, 2.0]}}, "matcheck")


def test_validate_rejects_fewer_samples_than_dimensions():
    # the sweep splits its budget over n_values: 2 samples leave n=2 and n=3
    # with none, and only n=4 would be checked
    with pytest.raises(ConfigError, match="matcheck.samples"):
        validate_config({"matcheck": {"samples": 2, "n_values": [2, 3, 4]}}, "matcheck")
    with pytest.raises(ConfigError, match="matcheck.samples"):
        validate_config({"matcheck": {"samples": 1, "n_values": [2, 3]}}, "matcheck")


# (dotted path, value) pairs the config schema rejects; each is set on a
# valid config of the matching command
MALFORMED = [
    ("seed", "3"), ("seed", 1.0), ("seed", True), ("seed", -1),
    # the solver's continuation settings are constants: no solver key is known
    ("solver.quadrature_order", 99), ("solver.eps0", "1"), ("solver.rho", "0.5"),
    ("solver.rho", 1.0), ("solver.max_newton_iter", 2.0), ("solver.max_newton_iter", 0),
    ("solver.warp", 9), ("solver.newton_tol", 1e-10), ("solver.quadrature_order", 2),
    # so are the check tolerances and the radial oracle's settings
    ("tolerances.flux_rel", "1"), ("tolerances.identity_rel", True),
    ("tolerances.serrin_nodewise", 0), ("tolerances.flux_rel", math.inf),
    ("tolerances.identity_rel", 1), ("radial.n_values", [1]), ("radial.radius", 0),
    ("radial.grid", 100.5), ("radial.grid", 100), ("radial.n_values", []),
    ("domain.radius", "1"), ("domain.radius", 0),
    ("domain.variant", "square"), ("domain.a", 2.0),
    ("domain", {"variant": "polar_star", "cos_coeffs": ["a"]}),
    ("domain", {"variant": "ellipse", "a": 2.0, "b": "1"}), ("domain", {"radius": 1.0}),
    ("domain", []), ("metric.params", "x"), ("metric.kind", "warp"),
    ("metric", {"kind": "constant", "params": [True]}),
    ("metric", {"kind": "constant", "params": [math.nan]}),
    ("metric", {"kind": "poly", "params": [[2, 0, True]]}),
    ("metric.nonnegative_ricci", "yes"), ("metric.extra", 1), ("p", []), ("p", [1.0]), ("h", [True]),
    ("h", "0.1"), ("output_dir", None), ("command", "plot"), ("bogus", 1),
    ("matcheck.samples", 0), ("matcheck.samples", "5"), ("matcheck.n_values", [7]),
    ("matcheck.p_range", [1.5]), ("matcheck.p_range", [1.0, 2.0]),
    ("matcheck.p_range", [1.1, math.inf]),
    # an empty list would crash the sweep or make a check that cannot fail
    ("matcheck.n_values", []),
]
# configs the schema accepts although they differ from the shipped ones
WELL_FORMED = [
    ("seed", 0), ("p", [1.5, 4]),
    ("domain", {"variant": "polar_star", "r0": 1, "cos_coeffs": [0.1], "sin_coeffs": []}),
    ("domain", {"variant": "annulus"}), ("metric", {"kind": "bump", "params": [0.1, 0, 0, 1]}),
    ("matcheck.p_range", [2.0, 1.5]), ("output_dir", ""),
]


def _with(path: str, value) -> tuple[str, dict]:
    """A copy of the shipped config that uses `path`, with `path` set to `value`."""
    head = path.split(".")[0]
    name = {"matcheck": "matcheck", "radial": "radial"}.get(head, "disk_verify")
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    command = cfg["command"]
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    return command, cfg


def _schema_verdicts(cfgs: list[dict]) -> tuple[list[bool], list[bool]]:
    jsonschema = pytest.importorskip("jsonschema")
    # jsonschema counts 1.0 as an integer and ±Infinity as a number; the
    # package's evaluator does not
    checker = jsonschema.Draft7Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda _, v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                and math.isfinite(v))})
    strict = jsonschema.validators.extend(jsonschema.Draft7Validator, type_checker=checker)
    reference = strict(json.loads((SCHEMAS / "config.schema.json").read_text()))
    ours = []
    for cfg in cfgs:
        try:
            _check(reference.schema, cfg, "config")
            ours.append(True)
        except ConfigError:
            ours.append(False)
    return ours, [reference.is_valid(cfg) for cfg in cfgs]


def test_schema_evaluator_agrees_with_jsonschema():
    shipped = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
    assert len(shipped) == 6
    good = shipped + [_with(*case)[1] for case in WELL_FORMED]
    bad = [_with(*case)[1] for case in MALFORMED]
    ours, reference = _schema_verdicts(good + bad)
    assert ours == reference
    assert ours == [True] * len(good) + [False] * len(bad)


def test_one_of_rejects_a_value_of_two_forms():
    # the shipped forms differ in their const, so none of them overlap
    schema = {"oneOf": [{"type": "number"}, {"minimum": 0}]}
    values, accepted = [1, -1, "x"], [False, True, True]
    ours = []
    for value in values:
        try:
            _check(schema, value, "v")
            ours.append(True)
        except ConfigError as exc:
            assert str(exc) == "v matches more than one allowed form"
            ours.append(False)
    assert ours == accepted
    jsonschema = pytest.importorskip("jsonschema")
    assert [jsonschema.Draft7Validator(schema).is_valid(v) for v in values] == accepted


@pytest.mark.parametrize("path, value", MALFORMED, ids=[f"{p}={v!r}" for p, v in MALFORMED])
def test_malformed_config_exits_2(tmp_path, path, value):
    command, cfg = _with(path, value)
    out = tmp_path / "out"
    assert main([command, "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "config"
    assert err["message"].startswith("config")


@pytest.mark.parametrize("path, value, named", [
    ("matcheck.p_range", [1.1, "40"], "config.matcheck.p_range[1]"),
    ("domain", {"variant": "polar_star", "cos_coeffs": ["a"]}, "config.domain.cos_coeffs[0]"),
    ("metric", {"kind": "constant", "params": "x"}, "config.metric.params"),
])
def test_mistyped_value_is_named_in_error_json(tmp_path, path, value, named):
    command, cfg = _with(path, value)
    out = tmp_path / "out"
    assert main([command, "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "config"
    assert named in err["message"]


@pytest.mark.parametrize("metric", [{"kind": "constant", "params": ["x"]},
                                    {"kind": "bump", "params": ["a", 0.0, 0.0, 1.0]}])
def test_malformed_metric_params_exit_2(tmp_path, metric):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {**DISK_VERIFY, "metric": metric})
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "config"
    assert f"malformed {metric['kind']} metric params" in err["message"]


@pytest.mark.parametrize("key, value, message", [
    ("domain", {"variant": "ellipse", "a": 1, "b": 2},
     "ellipse requires a >= b > 0, got a=1.0, b=2.0"),
    ("domain", {"variant": "annulus", "r_in": 1, "r_out": 0.5},
     "annulus requires r_out > r_in, got r_in=1.0, r_out=0.5"),
    ("domain", {"variant": "polar_star", "cos_coeffs": [1.5]},
     "polar_star radius function must stay strictly positive; min r(theta) = -0.5"),
    ("metric", {"kind": "poly", "params": [[5, 0, 1.0]]},
     "conformal polynomial exponent limited to degree 4"),
])
def test_spec_invariant_config_exits_2(tmp_path, key, value, message):
    # the schema accepts these; the domain or metric constructor rejects them
    out = tmp_path / "out"
    cfg = _write(tmp_path, {**DISK_VERIFY, key: value})
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())["error"]
    assert err == {"type": "config", "message": message}


def test_nan_fails_every_bound():
    # Python's json reads NaN, Infinity and -Infinity; no config number may be one
    for bad in (math.nan, math.inf, -math.inf):
        for path, value in (("p", [bad]), ("h", [bad]), ("domain.radius", bad),
                            ("matcheck.p_range", [1.1, bad])):
            command, cfg = _with(path, value)
            with pytest.raises(ConfigError, match=f"config.{path}"):
                validate_config(cfg, command)


def test_bad_rho_exits_2(tmp_path):
    # rho is a constant of the solver, so the solver object is an unknown key
    cfg = _write(tmp_path, {**DISK_VERIFY, "solver": {"rho": 1.5}})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"]["type"] == "config"
    assert err["error"]["message"] == "config has unknown keys ['solver']"


def test_unreadable_config_exits_2(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITER", 1)
    cfg = _write(tmp_path, {
        "command": "verify",
        "domain": {"variant": "ellipse", "a": 2.0, "b": 1.0},
        "p": [4.0], "h": [0.14],
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["type"] == "solver"
    assert len(err["error"]["history"]) >= 1


# --------------------------------------------------------- shipped configs

SHIPPED = [
    pytest.param(path, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the boundary layer of the recovered "
                            "Hessian fails the sweep's boundary checks"))
    if path.stem == "ellipse_sweep" else path
    for path in sorted(CONFIGS.glob("*.json"))
]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_every_shipped_config_exits_0(tmp_path, path):
    command = json.loads(path.read_text())["command"]
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    # the tolerances are constants: no config loosens a check
    tolerances = {"fundamental": IDENTITY_REL, "sbt": IDENTITY_REL, "hk": IDENTITY_REL,
                  "flux": FLUX_REL, "eq_curvature": EQ_CURVATURE_NODEWISE}
    for report in tmp_path.glob("report_*.json"):
        rep = json.loads(report.read_text())
        assert {name: rep[name]["tolerance"] for name in tolerances} == tolerances


# ----------------------------------------------------------------- verify

def test_verify_disk_passes_and_reports(tmp_path):
    cfg = _write(tmp_path, DISK_VERIFY)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report_p2_h0.1.json").read_text())
    for section in ("fundamental", "hk", "sbt", "flux", "eq_curvature",
                    "subharmonicity", "flags", "constants", "solver"):
        assert section in rep
    assert {"lhs_volume", "lhs_boundary", "rhs"} <= set(rep["fundamental"])
    assert {"t1", "t2", "t3", "max_node_residual"} <= set(rep["hk"])
    assert {"lhs1", "lhs2", "rhs"} <= set(rep["sbt"])
    assert "serrin" not in rep
    # ball case: tiny overdetermined deficit
    assert rep["hk"]["t2"] <= 1e-3 * rep["constants"]["perimeter"]
    assert json.loads((out / "summary.json").read_text())["pass"] is True


def test_verify_determinism(tmp_path):
    cfg = _write(tmp_path, DISK_VERIFY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("report_p2_h0.1.json", "summary.json"):
        a = _strip_timestamps((out1 / name).read_text())
        b = _strip_timestamps((out2 / name).read_text())
        assert a == b
    assert (out1 / "boundary_profile_p2_h0.1.csv").read_text() == \
        (out2 / "boundary_profile_p2_h0.1.csv").read_text()


def test_report_matches_published_schema(tmp_path):
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    cfg = _write(tmp_path, DISK_VERIFY)
    out = tmp_path / "out"
    main(["verify", "--config", str(cfg), "--out", str(out)])
    rep = json.loads((out / "report_p2_h0.1.json").read_text())
    _check(schema, rep, "report")
    # the schema's checks are the sections that carry a verdict, and the
    # case passes (summary.json holds all_passed()) when each of them does
    checks = {name for name, sec in schema["properties"].items()
              if "pass" in sec.get("required", ())}
    assert checks == {name for name, sec in rep.items() if isinstance(sec, dict) and "pass" in sec}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cases"][0]["pass"] is all(rep[name]["pass"] for name in checks)
    # every section lists exactly the keys it holds, so a key the code drops
    # or adds without the schema fails the check
    sections = [sec for sec in schema["properties"].values() if "properties" in sec]
    sections += [schema["properties"]["solver"]["properties"]["diagnostics"]]
    for sec in sections:
        assert sorted(sec["required"]) == sorted(sec["properties"])
        assert sec["additionalProperties"] is False
    rep["flux"]["volume"] = rep["constants"]["volume"]
    with pytest.raises(ConfigError, match=r"report\.flux has unknown keys \['volume'\]"):
        _check(schema, rep, "report")
    del rep["flux"]["volume"], rep["constants"]["h0"]
    with pytest.raises(ConfigError, match=r"report\.constants\.h0"):
        _check(schema, rep, "report")


# ------------------------------------------------------------------ sweep

def test_sweep_row_count(tmp_path):
    cfg = _write(tmp_path, {
        "command": "sweep",
        "domain": {"variant": "disk", "radius": 1.0},
        "p": [1.5, 2.0, 3.0, 4.0],
        "h": [0.2, 0.1],
    })
    out = tmp_path / "out"
    # coarse grids may fail the default tolerances (exit 1); the CSV contract
    # is the row count over the p x h grid
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 8  # header + |p| * |h|
    header = lines[0].split(",")
    assert header[0] == "p" and header[1] == "h"
    assert "fundamental.lhs_volume" in header
    assert {"hk.t2", "hk.max_node_residual"} <= set(header)
    assert not any(k.startswith("serrin.") for k in header)
    # more than one h: the refinement table, one row per case
    assert len((out / "deficit_vs_h.csv").read_text().strip().split("\n")) == 1 + 8


def test_sweep_header_spans_skipped_scans(tmp_path):
    # at h = 0.2 the scan excludes every point of the disk and is skipped;
    # the h = 0.1 rows still carry its columns, and no cell is NaN
    cfg = _write(tmp_path, {
        "command": "sweep",
        "domain": {"variant": "disk", "radius": 1.0},
        "p": [2.0, 3.0],
        "h": [0.2, 0.1],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    header, *rows = [line.split(",") for line in
                     (out / "sweep.csv").read_text().strip().split("\n")]
    assert all(len(row) == len(header) for row in rows)
    assert not any(cell == "nan" for row in rows for cell in row)
    col, skip = header.index("subharmonicity.min"), header.index("skipped.subharmonicity")
    h = header.index("h")
    for row in rows:
        coarse = float(row[h]) == 0.2
        assert (row[col] == "") == coarse
        assert ("excluded fraction" in row[skip]) == coarse


# --------------------------------------------------------------- matcheck

def test_matcheck_cli(tmp_path):
    cfg = _write(tmp_path, {"command": "matcheck", "matcheck": {"samples": 30000}, "seed": 5})
    out = tmp_path / "out"
    assert main(["matcheck", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "matcheck.json").read_text())
    assert rep["min_gap"] >= -1e-12
    assert rep["samples"] == 30000
    shard_lines = (out / "matcheck_shards.csv").read_text().strip().split("\n")
    assert shard_lines[0].startswith("n,p,gap")
    assert len(shard_lines) >= 4


def test_matcheck_fewer_samples_than_dimensions_exits_2(tmp_path):
    cfg = _write(tmp_path, {"command": "matcheck",
                            "matcheck": {"samples": 2, "n_values": [2, 3, 4]}})
    out = tmp_path / "out"
    assert main(["matcheck", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "config"
    assert "config.matcheck.samples" in err["message"]
    assert not (out / "matcheck.json").exists()


def test_matcheck_one_sample_per_dimension(tmp_path):
    cfg = _write(tmp_path, {"command": "matcheck",
                            "matcheck": {"samples": 3, "n_values": [2, 3, 4]}})
    out = tmp_path / "out"
    assert main(["matcheck", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "matcheck.json").read_text())["samples"] == 3
    with open(out / "matcheck_shards.csv", newline="") as fh:
        assert [int(row["n"]) for row in csv.DictReader(fh)] == [2, 3, 4]


def test_negative_seed_override_exits_2(tmp_path):
    cfg = _write(tmp_path, {"command": "matcheck", "matcheck": {"samples": 1000}})
    out = tmp_path / "out"
    assert main(["matcheck", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in json.loads((out / "error.json").read_text())["error"]["message"]


def test_matcheck_seed_override(tmp_path):
    cfg = _write(tmp_path, {"command": "matcheck", "matcheck": {"samples": 10000}, "seed": 5})
    outs = []
    for seed, name in ((9, "s9"), (9, "s9b"), (10, "s10")):
        out = tmp_path / name
        main(["matcheck", "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
        outs.append(json.loads((out / "matcheck.json").read_text())["min_gap"])
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


# ----------------------------------------------------------------- radial

def test_radial_cli(tmp_path):
    cfg = _write(tmp_path, {
        "command": "radial",
        "p": [1.5, 2.0, 3.0],
    })
    out = tmp_path / "out"
    assert main(["radial", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "radial.json").read_text())
    # n in (2, 3, 4) for each p
    assert len(rep["profiles"]) == 9
    assert all(e["pass"] for e in rep["profiles"])


# ------------------------------------------------------------------ solve

def test_solve_cli_outputs(tmp_path):
    cfg = _write(tmp_path, {
        "command": "solve",
        "domain": {"variant": "disk", "radius": 1.0},
        "p": [2.0], "h": [0.1],
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "solution_p2_h0.1.csv").read_text().strip().split("\n")
    assert lines[0] == "x,y,u"
    assert len(lines) > 100
    diag = json.loads((out / "diagnostics_p2_h0.1.json").read_text())
    assert diag["solver"]["diagnostics"]["positive_interior"] is True


# -------------------------------------------------------------- plot data

def test_boundary_profile_columns(tmp_path, lab):
    case = lab.case("disk", 2.0, h=0.1)
    written = emit_plot_data([case], tmp_path)
    prof = next(p for p in written if "boundary_profile" in p.name)
    lines = prof.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["s", "x", "y", "H", "u_nu", "u_nunu", "eq64_residual",
                      "overdetermined_residual"]
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    # disk at p=2: H = 1 and u_nu = -1/2 along the whole boundary
    assert np.abs(data[:, 3] - 1.0).max() <= 1e-9
    assert np.abs(data[:, 4] + 0.5).max() <= 0.02
    # s, x and y are the mesh's boundary geometry, bit for bit
    bg = case.mesh.boundary
    cols = [ln.split(",")[:3] for ln in lines[1:]]
    assert [c[0] for c in cols] == [repr(float(v)) for v in bg.arclength]
    assert [c[1] for c in cols] == [repr(float(v)) for v in bg.position[:, 0]]
    assert [c[2] for c in cols] == [repr(float(v)) for v in bg.position[:, 1]]
    slice_file = next(p for p in written if "slice" in p.name)
    assert slice_file.read_text().startswith("x,u,P")


@pytest.mark.parametrize("spec,h", [(Annulus(0.5, 1.0), 0.1),
                                    (PolarStar(1.0, cos_coeffs=(0.0, 0.0, 0.3)), 0.05)])
def test_slice_rows_lie_in_the_domain(tmp_path, spec, h):
    # the annulus slice crosses the hole; the three-lobed star's slice starts
    # at 0.98 min x = -0.867, left of its boundary on the negative x-axis at
    # r(pi) = 0.7.  Only points in a triangle are written.
    case = pipeline.run_case(spec, None, 2.0, h)
    written = emit_plot_data([case], tmp_path)
    slice_file = next(p for p in written if "slice" in p.name)
    x = np.array([float(row["x"]) for row in _read_rows(slice_file)])

    def depth(x):       # distance inside the boundary along the x-axis
        if isinstance(spec, Annulus):
            return np.minimum(np.abs(x) - spec.r_in, spec.r_out - np.abs(x))
        return spec.r(np.where(x < 0, np.pi, 0.0)) - np.abs(x)

    # the mesh's boundary chords stray from the curve by about h^2 / (8 R) at
    # radius of curvature R, which is below h^2 on both domains
    assert (depth(x) >= -h * h).all()
    # nothing deeper than h inside is dropped
    xs = case.mesh.points[:, 0]
    line = np.linspace(xs.min() * 0.98, xs.max() * 0.98, 201)
    assert set(line[depth(line) > h]) <= set(x)
    assert len(x) < len(line)


def test_ellipse_boundary_profile_curvature_range(tmp_path, lab):
    case = lab.case("ellipse", 2.0)
    written = emit_plot_data([case], tmp_path)
    prof = next(p for p in written if "boundary_profile" in p.name)
    lines = prof.read_text().strip().split("\n")
    H = np.array([float(ln.split(",")[3]) for ln in lines[1:]])
    assert H.min() == pytest.approx(0.25, rel=1e-2)
    assert H.max() == pytest.approx(2.0, rel=1e-6)


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def test_multi_h_verify_without_serrin_leaves_its_cells_empty(tmp_path):
    # the annulus has H < 0 on its inner loop, so every case skips hk and
    # with it the overdetermined deficit; and it has no radial oracle, so
    # no u error either
    cfg = _write(tmp_path, {**DISK_VERIFY, "domain": {"variant": "annulus", "r_in": 0.5,
                                                      "r_out": 1.0}, "h": [0.2, 0.1]})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert (out / "summary.json").exists()
    rows = _read_rows(out / "deficit_vs_h.csv")
    assert len(rows) == 2
    for row in rows:
        for col in ("serrin_deficit", "u_err_max", "u_err_l2"):
            assert row[col] == row[f"order_{col}"] == ""


def test_deficit_vs_h_u_errors_need_the_radial_oracle(tmp_path):
    # the ellipse has no exact radial profile: its u error cells stay empty
    # while its other columns are filled
    cfg = _write(tmp_path, {**DISK_VERIFY, "domain": {"variant": "ellipse", "a": 2.0, "b": 1.0},
                            "h": [0.2, 0.1]})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    rows = _read_rows(out / "deficit_vs_h.csv")
    assert len(rows) == 2
    for row in rows:
        for col in ("u_err_max", "u_err_l2"):
            assert row[col] == row[f"order_{col}"] == ""
        for col in ("serrin_deficit", "fundamental_rel_boundary", "flux_rel"):
            assert math.isfinite(float(row[col]))
    assert math.isfinite(float(rows[1]["order_fundamental_rel_boundary"]))


def test_deficit_vs_h_orders_on_the_disk(tmp_path):
    # the flat disk has the exact radial profile: the u errors converge at
    # the P1 rates
    cfg = _write(tmp_path, {**DISK_VERIFY, "p": [1.5, 2.0, 3.0], "h": [0.2, 0.1, 0.05]})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    rows = _read_rows(out / "deficit_vs_h.csv")
    assert [(float(r["p"]), float(r["h"])) for r in rows] == \
        [(p, h) for p in (1.5, 2.0, 3.0) for h in (0.2, 0.1, 0.05)]
    by = {(float(r["p"]), float(r["h"])): r for r in rows}
    assert float(by[2.0, 0.05]["order_u_err_l2"]) >= 1.8
    assert float(by[3.0, 0.05]["order_u_err_l2"]) >= 1.2
    errs = [float(by[1.5, h]["u_err_l2"]) for h in (0.2, 0.1, 0.05)]
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert all(math.isfinite(float(r["u_err_max"])) for r in rows)
    # the coarsest h of each p has no order
    for p in (1.5, 2.0, 3.0):
        assert all(v == "" for k, v in by[p, 0.2].items() if k.startswith("order_"))
    # another error norm or quadrature would move these by far more than 1e-6
    assert float(by[1.5, 0.2]["u_err_max"]) == pytest.approx(0.0008008084289519296, rel=1e-6)
    assert float(by[2.0, 0.05]["order_u_err_l2"]) == pytest.approx(4.055692405191488,
                                                                   rel=1e-6)


def test_deficit_vs_h_order_by_hand(tmp_path):
    cfg = _write(tmp_path, {**DISK_VERIFY, "h": [0.2, 0.1]})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    coarse, fine = (json.loads((out / f"report_p2_h{h}.json").read_text()) for h in (0.2, 0.1))
    rows = _read_rows(out / "deficit_vs_h.csv")
    # the deficit is the Heintze-Karcher T2; every float is written as its repr
    assert [float(r["serrin_deficit"]) for r in rows] == [coarse["hk"]["t2"], fine["hk"]["t2"]]
    e1 = coarse["fundamental"]["rel_residual_boundary"]
    e2 = fine["fundamental"]["rel_residual_boundary"]
    assert float(rows[1]["order_fundamental_rel_boundary"]) == \
        float(np.log(e1 / e2) / np.log(0.2 / 0.1))


# ----------------------------------------------------------- error reports

def test_error_json_goes_to_config_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, {**DISK_VERIFY, "seed": -1,
                            "output_dir": str(tmp_path / "cfg_out")})
    assert main(["verify", "--config", str(cfg)]) == 2
    err = json.loads((tmp_path / "cfg_out" / "error.json").read_text())
    assert err["error"]["type"] == "config"
    assert not (tmp_path / "plap_out").exists()
    # an output_dir that is not a string is a config error reported in plap_out
    cfg = _write(tmp_path, {**DISK_VERIFY, "output_dir": 5})
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "output_dir" in json.loads((tmp_path / "plap_out" / "error.json").read_text())["error"]["message"]


OVERFLOWING_METRIC = {"kind": "constant", "params": [400.0]}


def test_assembly_failure_exits_3(tmp_path, monkeypatch):
    # e^{2 phi} overflows, so the load vector and the first residual are
    # infinite; a finite gradient scale gets the solve as far as assembly
    monkeypatch.setattr(solver, "_gradient_scale", lambda mesh, metric, p: 1.0)
    cfg = _write(tmp_path, {**DISK_VERIFY, "metric": OVERFLOWING_METRIC})
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["type"] == "solver"
    assert "assembly" in err["error"]["message"]


def test_infinite_volume_exits_2(tmp_path):
    # the metric volume overflows to inf, and so would eps0 and the ladder
    cfg = _write(tmp_path, {**DISK_VERIFY, "metric": OVERFLOWING_METRIC})
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "config"
    assert "eps0 = inf is not finite" in err["message"]
    assert "volume is inf" in err["message"] and "perimeter" in err["message"]


def test_mesh_failure_exits_3(tmp_path, monkeypatch):
    def failing_mesh(*args, **kwargs):
        raise MeshGenerationError("minimum angle below contract", achieved_min_angle_deg=12.5)

    monkeypatch.setattr(pipeline, "build_mesh", failing_mesh)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(_write(tmp_path, DISK_VERIFY)), "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())["error"]
    assert err == {"type": "mesh", "message": "minimum angle below contract",
                   "achieved_min_angle_deg": 12.5}
