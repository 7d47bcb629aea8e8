"""Batch experiment runner.

    plap-lab <command> --config <path> [--out <dir>]

Commands: verify, matcheck, radial.  `verify` is the one 2-D command: per
(p, h) case it writes a JSON report, and over all cases `sweep.csv`, the
reports flattened one row per case, and with more than one h
`deficit_vs_h.csv`, chosen keys of those rows with their observed orders.
One JSON config drives everything; reports are deterministic for a fixed
config and seed (byte identical except the timestamp field).  The
tolerances of the identity checks are constants of `identities`, and the
radial oracle's dimensions, grid and radius are constants of `cmd_radial`:
a config sets neither, and a `tolerances` or `radial` object is an unknown
key.  Exit codes: 0 all checks passed, 1 an identity check failed, 2 config
error, 3 solver or mesh generation failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import operator
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# matcheck and radial need only numpy: the 2-D layers (`geometry`, `pipeline`
# and what they load, scipy among it) are imported inside the functions that
# verify runs
from .errors import ConfigError, MeshGenerationError, PlapLabError, SolverError
from .metric import ConformalMetric
from .oracles import (matrix_inequality_sweep, p_ball_constant, radial_exact,
                      radial_fd_solve)

if TYPE_CHECKING:
    from .pipeline import CaseResult

SCHEMA_VERSION = "1"
COMMANDS = ("verify", "matcheck", "radial")

_CONFIG_SCHEMA = json.loads(
    (Path(__file__).parent / "schemas" / "config.schema.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Config validation: schemas/config.schema.json, then what it cannot say
# --------------------------------------------------------------------------

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}
_BOUNDS = {"minimum": (">=", operator.ge), "maximum": ("<=", operator.le),
           "exclusiveMinimum": (">", operator.gt), "exclusiveMaximum": ("<", operator.lt)}


class _Mismatch(ConfigError):
    """A const or enum failure; in a oneOf it marks a branch that does not apply."""


def _check(schema: dict, value, where: str) -> None:
    """Raise ConfigError naming the path of a value that violates `schema`.

    Covers the draft-07 keywords the shipped schemas use.  bool is never a
    number, integer means a Python int (1.0 is not an integer) and a number
    must be finite: Python's json reads NaN and ±Infinity, and both fail.  A
    oneOf form with a title names it when the value takes that form but
    breaks its rules.
    """
    kind = schema.get("type")
    if kind and not (isinstance(value, _TYPES[kind])
                     and (kind == "boolean" or not isinstance(value, bool))):
        raise ConfigError(f"{where} must be of type {kind}, got {value!r}")
    if kind == "number" and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    allowed = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if allowed is not None and value not in allowed:
        raise _Mismatch(f"{where} must be one of {allowed}, got {value!r}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    for key, (rel, holds) in _BOUNDS.items():
        if number and key in schema and not holds(value, schema[key]):
            raise ConfigError(f"{where} must be {rel} {schema[key]}, got {value!r}")
    if isinstance(value, dict):
        # properties first, so that a oneOf form is told apart by its const
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                _check(sub, value[key], f"{where}.{key}")
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{where}.{key} is required")
        if schema.get("additionalProperties") is False and value.keys() - props.keys():
            raise ConfigError(f"{where} has unknown keys {sorted(value.keys() - props.keys())}")
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            raise ConfigError(f"{where} has the wrong number of items ({len(value)})")
        items = schema.get("items", {})
        for i, item in enumerate(value):
            _check(items[i] if isinstance(items, list) else items, item, f"{where}[{i}]")
    if "oneOf" in schema:
        errors = []
        for sub in schema["oneOf"]:
            try:
                _check(sub, value, where)
            except ConfigError as exc:
                if "title" in sub and not isinstance(exc, _Mismatch):
                    exc = ConfigError(f"{where} has malformed {sub['title']}: {exc}")
                errors.append(exc)
        if len(errors) < len(schema["oneOf"]) - 1:
            raise ConfigError(f"{where} matches more than one allowed form")
        if len(errors) == len(schema["oneOf"]):
            real = [e for e in errors if not isinstance(e, _Mismatch)] or errors
            raise ConfigError("; ".join(dict.fromkeys(map(str, real))))


def validate_config(obj, command: str) -> dict:
    """Check a raw config against the schema, then fill the domain, metric,
    p, h, matcheck and seed defaults into typed objects.  Only what the
    schema cannot say is checked here; a domain or metric that breaks its own
    invariant raises its constructor's ValidationError, which `main` reports
    as a config error.  The check tolerances and the radial oracle's settings
    are constants, so the schema has no key for them."""
    _check(_CONFIG_SCHEMA, obj, "config")
    if obj.get("command", command) != command:
        raise ConfigError(f"config command {obj['command']!r} conflicts with CLI command {command!r}")
    if command == "verify":
        missing = [f"config.{k}" for k in ("domain", "p", "h") if k not in obj]
        if missing:
            raise ConfigError(f"{command} requires {', '.join(missing)}")
    # defaults first, so that every check below reads the values the run uses
    mc = {"samples": 1_000_000, "n_values": [2, 3, 4], "p_range": (1.1, 6.0),
          **obj.get("matcheck", {})}
    lo, hi = mc["p_range"] = tuple(float(x) for x in mc["p_range"])
    if lo > hi:
        raise ConfigError(f"config.matcheck.p_range must be [lo, hi] with lo <= hi, got {[lo, hi]}")
    # the sweep splits its budget over n_values; an n given 0 samples is not checked
    n_count = len(mc["n_values"])
    if mc["samples"] < n_count:
        raise ConfigError(f"config.matcheck.samples must be at least the {n_count} entries "
                          f"of matcheck.n_values, got {mc['samples']}")

    cfg: dict = {"command": command}
    if "domain" in obj:
        from .geometry import spec_from_json
        cfg["domain"] = spec_from_json(obj["domain"])
    cfg["metric"] = ConformalMetric.from_json(obj.get("metric", {"kind": "flat"}))
    for key in ("p", "h"):
        if key in obj:
            cfg[key] = [float(v) for v in obj[key]]
            # output files are named by these tags, so each must name one value
            tags = [f"{v:g}" for v in cfg[key]]
            if len(set(tags)) < len(tags):
                raise ConfigError(f"config.{key} values must give distinct file tags, got {tags}")
    cfg["matcheck"] = mc
    cfg["seed"] = obj.get("seed", 0)
    return cfg


# --------------------------------------------------------------------------
# JSON / CSV emission
# --------------------------------------------------------------------------


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _envelope(command: str) -> dict:
    """The keys every output JSON opens with."""
    return {"schema_version": SCHEMA_VERSION,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "command": command}


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (int, float, bool, str)) or obj is None:
        out[prefix] = obj


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def emit_plot_data(cases: list[CaseResult], outdir: Path) -> list[Path]:
    """Per-case plot CSVs: boundary profiles and interior slices."""
    written: list[Path] = []
    outdir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        tag = f"p{case.p:g}_h{case.h:g}"
        trace, bg = case.trace, case.mesh.boundary
        res = trace.eq_curvature_residual()
        node_over = trace.overdetermined_residual()
        path = outdir / f"boundary_profile_{tag}.csv"
        write_csv(path,
                  ["s", "x", "y", "H", "u_nu", "u_nunu", "eq64_residual", "overdetermined_residual"],
                  [[bg.arclength[i], bg.position[i, 0], bg.position[i, 1],
                    trace.curvature[i], trace.u_nu[i], trace.u_nunu[i], res[i], node_over[i]]
                   for i in range(len(trace.u_nu))])
        written.append(path)

        # only points in a triangle: one in a hole would be a clipped value
        xs = case.mesh.points[:, 0]
        line = np.linspace(xs.min() * 0.98, xs.max() * 0.98, 201)
        tri, bary, found = case.mesh.locate(np.stack([line, np.zeros_like(line)], axis=1))
        at = case.mesh.interpolation(tri, bary) @ np.stack([case.solution.u, case.p_nodal], axis=1)
        path = outdir / f"slice_{tag}.csv"
        write_csv(path, ["x", "u", "P"], [[line[i], *at[i]] for i in np.flatnonzero(found)])
        written.append(path)
    return written


# the deficit_vs_h.csv columns after p and h, each with the report key it
# reads and an order_<column> twin; the overdetermined deficit is the
# Heintze-Karcher T2, and the u errors are the flat disk's oracle
_REFINEMENT_COLUMNS = {
    "serrin_deficit": "hk.t2",
    "fundamental_rel_volume": "fundamental.rel_residual_volume",
    "fundamental_rel_boundary": "fundamental.rel_residual_boundary",
    "flux_rel": "flux.rel_residual",
    "fundamental_divergence_check": "fundamental.divergence_check",
    "eq_curvature_max_node_residual": "eq_curvature.max_node_residual",
    "u_err_max": "oracle.u_err_max",
    "u_err_l2": "oracle.u_err_l2",
}


def _positive(value) -> bool:
    return isinstance(value, float) and value > 0.0


def emit_refinement(flats: list[dict], outdir: Path) -> None:
    """deficit_vs_h.csv from the flattened case reports, when they span
    more than one h.

    One row per case, by p and then from the coarsest h, with the
    _REFINEMENT_COLUMNS (empty where the report has no such key) and,
    beside each value e, its observed order log(e1 / e) / log(h1 / h)
    against e1 at the next coarser h1 of the same p.  A negative order
    marks a value that grew under refinement.  An order is empty on the
    coarsest h of each p, and where either value is empty or not positive.
    """
    if len({flat["h"] for flat in flats}) < 2:
        return
    ordered = sorted(flats, key=lambda flat: (flat["p"], -flat["h"]))
    values = [[flat.get(key, "") for key in _REFINEMENT_COLUMNS.values()] for flat in ordered]
    rows = []
    for i, flat in enumerate(ordered):
        orders = [""] * len(_REFINEMENT_COLUMNS)
        if i and ordered[i - 1]["p"] == flat["p"]:
            factor = np.log(ordered[i - 1]["h"] / flat["h"])
            orders = [float(np.log(e1 / e) / factor) if _positive(e1) and _positive(e) else ""
                      for e1, e in zip(values[i - 1], values[i])]
        rows.append([flat["p"], flat["h"], *values[i], *orders])
    write_csv(outdir / "deficit_vs_h.csv",
              ["p", "h", *_REFINEMENT_COLUMNS, *(f"order_{c}" for c in _REFINEMENT_COLUMNS)], rows)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_verify(cfg: dict, outdir: Path) -> int:
    from .geometry import spec_to_json
    from .pipeline import run_case
    cases = []
    for h in cfg["h"]:
        mesh = None
        for p in cfg["p"]:
            case = run_case(cfg["domain"], cfg["metric"], p, h, mesh=mesh)
            mesh = case.mesh
            cases.append(case)
    outdir.mkdir(parents=True, exist_ok=True)
    echo = {"command": "verify", "seed": cfg["seed"], "domain": spec_to_json(cfg["domain"]),
            "metric": cfg["metric"].to_json(), "p": cfg["p"], "h": cfg["h"]}
    flats = []
    for case in cases:
        rep = case.report.to_json_dict()
        flat: dict = {}
        _flatten("", rep, flat)
        flats.append({"p": case.p, "h": case.h, **flat})
        rep.update({
            **_envelope("verify"),
            "config_echo": echo,
            "h": case.h,
            "solver": {
                "final_eps": case.solution.final_eps,
                "newton_iterations": [s.iterations for s in case.solution.steps],
                "energy": case.solution.steps[-1].energy,
                "diagnostics": case.solution.diagnostics,
            },
        })
        write_json(outdir / f"report_p{case.p:g}_h{case.h:g}.json", rep)
    # a section skipped in one case still gets its columns from the others,
    # and an empty cell where it is skipped
    header = list(dict.fromkeys(k for flat in flats for k in flat))
    write_csv(outdir / "sweep.csv", header, [[flat.get(k, "") for k in header] for flat in flats])
    emit_plot_data(cases, outdir)
    emit_refinement(flats, outdir)
    all_ok = all(c.report.all_passed() for c in cases)
    write_json(outdir / "summary.json", {
        **_envelope("verify"),
        "cases": [{"p": c.p, "h": c.h, "pass": c.report.all_passed()} for c in cases],
        "pass": all_ok,
    })
    return 0 if all_ok else 1


def cmd_matcheck(cfg: dict, outdir: Path) -> int:
    mc = cfg["matcheck"]
    result = matrix_inequality_sweep(samples=mc["samples"], seed=cfg["seed"],
                                     n_values=mc["n_values"], p_range=mc["p_range"])
    outdir.mkdir(parents=True, exist_ok=True)
    ok = result.min_gap >= -1e-12 and result.min_gap_loose >= -1e-12
    wit = result.witness
    write_json(outdir / "matcheck.json", {
        **_envelope("matcheck"),
        "config_echo": {"seed": cfg["seed"], **mc},
        "samples": result.samples,
        "min_gap": result.min_gap,
        "min_gap_loose": result.min_gap_loose,
        "witness": {"n": wit.n, "p": wit.p, "gap": wit.gap,
                    "hess": wit.hess.tolist(), "gvec": wit.gvec.tolist()},
        "pass": bool(ok),
    })
    max_n = max(mc["n_values"])
    header = ["n", "p", "gap"] + [f"h{i}{j}" for i in range(max_n) for j in range(max_n)] \
        + [f"g{i}" for i in range(max_n)]
    rows = []
    for s in result.shard_minima:
        hpad = np.full((max_n, max_n), np.nan)
        hpad[:s.n, :s.n] = s.hess
        gpad = np.full(max_n, np.nan)
        gpad[:s.n] = s.gvec
        rows.append([s.n, s.p, s.gap] + hpad.ravel().tolist() + gpad.tolist())
    write_csv(outdir / "matcheck_shards.csv", header, rows)
    return 0 if ok else 1


# the radial oracle: dimensions, finite-difference grid and ball radius
_RADIAL_N_VALUES = (2, 3, 4)
_RADIAL_GRID = 10_000
_RADIAL_RADIUS = 1.0


def cmd_radial(cfg: dict, outdir: Path) -> int:
    ps = cfg.get("p", [1.5, 2.0, 3.0, 4.0])
    radius = _RADIAL_RADIUS
    entries = []
    ok = True
    for n in _RADIAL_N_VALUES:
        for p in ps:
            exact = radial_exact(n, p, radius)
            fd = radial_fd_solve(n, p, radius, _RADIAL_GRID)
            r = np.linspace(0.0, radius, 501)
            dev = float(np.abs(exact.u(r) - fd.u(r)).max())
            rs = np.linspace(radius / 1000, radius, 1000)
            ode = float(np.abs(exact.ode_residual(rs)).max())
            good = dev <= 1e-5 and ode <= 1e-10
            ok &= good
            entries.append({
                "n": n, "p": p, "radius": radius,
                "u_center": float(exact.u(0.0)),
                "du_boundary": float(exact.du(radius)),
                "p_ball_constant": p_ball_constant(n, p, radius),
                "fd_max_deviation": dev,
                "ode_residual_max": ode,
                "pass": bool(good),
            })
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "radial.json", {
        **_envelope("radial"),
        "config_echo": {"seed": cfg["seed"], "p": ps, "n_values": list(_RADIAL_N_VALUES),
                        "grid": _RADIAL_GRID, "radius": radius},
        "profiles": entries,
        "pass": bool(ok),
    })
    return 0 if ok else 1


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="plap-lab", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    # error.json goes where the outputs would have gone
    outdir = Path(args.out or "plap_out")
    try:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if args.out is None and isinstance(raw, dict) and isinstance(raw.get("output_dir"), str):
            outdir = Path(raw["output_dir"] or "plap_out")
        cfg = validate_config(raw, args.command)
        handler = {
            "verify": cmd_verify,
            "matcheck": cmd_matcheck,
            "radial": cmd_radial,
        }[args.command]
        return handler(cfg, outdir)
    except SolverError as exc:     # AssemblyError included
        _emit_error(outdir, "solver", str(exc), history=[list(t) for t in exc.history])
        return 3
    except MeshGenerationError as exc:
        _emit_error(outdir, "mesh", str(exc), achieved_min_angle_deg=exc.achieved_min_angle_deg)
        return 3
    except PlapLabError as exc:
        _emit_error(outdir, "config", str(exc))
        return 2


def _emit_error(outdir: Path, kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_json(outdir / "error.json", payload)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
