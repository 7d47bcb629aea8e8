"""Batch experiment runner.

    plap-lab <command> --config <path> [--out <dir>] [--seed <u64>]

Commands: solve, verify, sweep, matcheck, radial.  One JSON config drives
everything; reports are deterministic for a fixed config and seed (byte
identical except the timestamp field).  Exit codes: 0 all checks passed,
1 an identity check failed, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, PlapLabError, SolverError, ValidationError
from .geometry import spec_from_json, spec_to_json
from .identities import Tolerances
from .metric import ConformalMetric
from .oracles import (matrix_inequality_sweep, p_ball_constant, radial_exact,
                      radial_fd_solve)
from .pipeline import CaseResult, run_case

SCHEMA_VERSION = "1"
COMMANDS = ("solve", "verify", "sweep", "matcheck", "radial")

_TOP_KEYS = {"command", "domain", "metric", "p", "h", "solver", "tolerances",
             "output_dir", "seed", "matcheck", "radial"}
_SOLVER_KEYS = {"eps0", "rho", "eps_min", "newton_tol", "max_newton_iter",
                "backtrack_factor", "max_backtracks", "quadrature_order"}
_TOL_KEYS = {"identity_rel", "flux_rel", "eq_curvature_nodewise",
             "serrin_nodewise", "flags_tol"}
_MATCHECK_KEYS = {"samples", "n_values", "p_range"}
_RADIAL_KEYS = {"n_values", "radius", "grid"}


# --------------------------------------------------------------------------
# Config validation (mirrors schemas/config.schema.json)
# --------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def validate_config(obj: dict, command: str) -> dict:
    _require(isinstance(obj, dict), "config root must be a JSON object")
    extra = set(obj) - _TOP_KEYS
    _require(not extra, f"unknown config keys: {sorted(extra)}")
    if "command" in obj:
        _require(obj["command"] in COMMANDS, f"unknown command {obj['command']!r}")
        _require(obj["command"] == command,
                 f"config command {obj['command']!r} conflicts with CLI command {command!r}")

    cfg: dict = {"command": command}
    if command in ("solve", "verify", "sweep"):
        _require("domain" in obj, f"{command} requires a 'domain' spec")
        _require("p" in obj, f"{command} requires a 'p' list")
        _require("h" in obj, f"{command} requires an 'h' list")
    try:
        if "domain" in obj:
            cfg["domain"] = spec_from_json(obj["domain"])
        cfg["metric"] = ConformalMetric.from_json(obj.get("metric", {"kind": "flat"}))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

    for key, lower in (("p", 1.0), ("h", 0.0)):
        if key in obj:
            vals = obj[key]
            _require(isinstance(vals, list) and len(vals) >= 1, f"'{key}' must be a non-empty list")
            _require(all(isinstance(v, (int, float)) and v > lower for v in vals),
                     f"every '{key}' entry must exceed {lower}")
            cfg[key] = [float(v) for v in vals]

    solver = obj.get("solver", {})
    _require(isinstance(solver, dict), "'solver' must be an object")
    extra = set(solver) - _SOLVER_KEYS
    _require(not extra, f"unknown solver keys: {sorted(extra)}")
    if "rho" in solver:
        _require(0.0 < solver["rho"] < 1.0, f"solver.rho must lie in (0, 1), got {solver['rho']}")
    if "backtrack_factor" in solver:
        _require(0.0 < solver["backtrack_factor"] < 1.0, "solver.backtrack_factor must lie in (0, 1)")
    for k in ("eps0", "eps_min", "newton_tol"):
        if k in solver:
            _require(solver[k] > 0, f"solver.{k} must be positive")
    for k in ("max_newton_iter", "max_backtracks"):
        if k in solver:
            _require(isinstance(solver[k], int) and solver[k] >= 1, f"solver.{k} must be a positive integer")
    cfg["solver"] = dict(solver)

    tol = obj.get("tolerances", {})
    _require(isinstance(tol, dict), "'tolerances' must be an object")
    extra = set(tol) - _TOL_KEYS
    _require(not extra, f"unknown tolerance keys: {sorted(extra)}")
    _require(all(v > 0 for v in tol.values()), "tolerances must be positive")
    cfg["tolerances"] = Tolerances(**tol)

    mc = obj.get("matcheck", {})
    extra = set(mc) - _MATCHECK_KEYS
    _require(not extra, f"unknown matcheck keys: {sorted(extra)}")
    if "p_range" in mc:
        _require(len(mc["p_range"]) == 2 and 1.0 < mc["p_range"][0] <= mc["p_range"][1],
                 "matcheck.p_range must be [lo, hi] with 1 < lo <= hi")
    cfg["matcheck"] = {
        "samples": int(mc.get("samples", 1_000_000)),
        "n_values": tuple(int(n) for n in mc.get("n_values", (2, 3, 4))),
        "p_range": tuple(float(x) for x in mc.get("p_range", (1.1, 6.0))),
    }
    _require(all(2 <= n <= 6 for n in cfg["matcheck"]["n_values"]),
             "matcheck.n_values entries must be in [2, 6]")

    rd = obj.get("radial", {})
    extra = set(rd) - _RADIAL_KEYS
    _require(not extra, f"unknown radial keys: {sorted(extra)}")
    cfg["radial"] = {
        "n_values": tuple(int(n) for n in rd.get("n_values", (2, 3))),
        "radius": float(rd.get("radius", 1.0)),
        "grid": int(rd.get("grid", 10_000)),
    }
    _require(cfg["radial"]["grid"] >= 100, "radial.grid must be at least 100")

    _require(isinstance(obj.get("output_dir", ""), str), "'output_dir' must be a string")
    cfg["seed"] = int(obj.get("seed", 0))
    _require(cfg["seed"] >= 0, "seed must be nonnegative")
    return cfg


# --------------------------------------------------------------------------
# JSON / CSV emission
# --------------------------------------------------------------------------


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n",
                    encoding="utf-8")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _config_echo(cfg: dict) -> dict:
    echo = {"command": cfg["command"], "seed": cfg["seed"]}
    if "domain" in cfg:
        echo["domain"] = spec_to_json(cfg["domain"])
    echo["metric"] = cfg["metric"].to_json()
    for k in ("p", "h"):
        if k in cfg:
            echo[k] = cfg[k]
    echo["solver"] = cfg["solver"]
    echo["tolerances"] = asdict(cfg["tolerances"])
    return echo


def case_report_dict(cfg: dict, case: CaseResult) -> dict:
    rep = case.report.to_json_dict()
    rep.update({
        "schema_version": SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "command": cfg["command"],
        "config_echo": _config_echo(cfg),
        "h": case.h,
        "solver": {
            "final_eps": case.solution.final_eps,
            "newton_iterations": [s.iterations for s in case.solution.steps],
            "energy": case.solution.steps[-1].energy,
            "diagnostics": {**case.solution.diagnostics,
                            "masked_fraction": case.report.constants["masked_fraction"]},
        },
    })
    return rep


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
    """Per-run plot CSVs: boundary profiles, interior slices, deficit-vs-h."""
    written: list[Path] = []
    if not cases:
        print("warning: no reports to plot", file=sys.stderr)
        return written
    outdir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        tag = f"p{case.p:g}_h{case.h:g}"
        trace = case.trace
        res = trace.eq_curvature_residual()
        node_over = trace.n * trace.curvature * trace.p_flux() + 1.0
        path = outdir / f"boundary_profile_{tag}.csv"
        write_csv(path,
                  ["s", "x", "y", "H", "u_nu", "u_nunu", "eq64_residual", "overdetermined_residual"],
                  [[trace.arclength[i], trace.position[i, 0], trace.position[i, 1],
                    trace.curvature[i], trace.u_nu[i], trace.u_nunu[i], res[i], node_over[i]]
                   for i in range(len(trace.u_nu))])
        written.append(path)

        xs = case.mesh.points[:, 0]
        line = np.linspace(xs.min() * 0.98, xs.max() * 0.98, 201)
        pts = np.stack([line, np.zeros_like(line)], axis=1)
        u_line = case.mesh.interpolate(case.solution.u, pts)
        p_line = case.mesh.interpolate(case.p_nodal, pts)
        path = outdir / f"slice_{tag}.csv"
        write_csv(path, ["x", "u", "P"], [[line[i], u_line[i], p_line[i]] for i in range(len(line))])
        written.append(path)

    hs = sorted({c.h for c in cases})
    if len(hs) > 1:
        rows = []
        for case in sorted(cases, key=lambda c: (c.p, -c.h)):
            r = case.report
            rows.append([case.p, case.h,
                         r.entries["serrin"].values["deficit"],
                         r.entries["fundamental"].values["rel_residual_volume"],
                         r.entries["fundamental"].values["rel_residual_boundary"],
                         r.entries["flux"].rel_residual])
        path = outdir / "deficit_vs_h.csv"
        write_csv(path, ["p", "h", "serrin_deficit", "fundamental_rel_volume",
                         "fundamental_rel_boundary", "flux_rel"], rows)
        written.append(path)
    return written


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _run_cases(cfg: dict) -> list[CaseResult]:
    cases = []
    for h in cfg["h"]:
        mesh = None
        for p in cfg["p"]:
            case = run_case(cfg["domain"], cfg["metric"], p, h,
                            solver_overrides=cfg["solver"],
                            tolerances=cfg["tolerances"], mesh=mesh)
            mesh = case.mesh
            cases.append(case)
    return cases


def cmd_verify(cfg: dict, outdir: Path) -> int:
    cases = _run_cases(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for case in cases:
        rep = case_report_dict(cfg, case)
        write_json(outdir / f"report_p{case.p:g}_h{case.h:g}.json", rep)
        all_ok &= case.report.all_passed()
    emit_plot_data(cases, outdir)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "command": "verify",
        "cases": [{"p": c.p, "h": c.h, "pass": c.report.all_passed()} for c in cases],
        "pass": all_ok,
    }
    write_json(outdir / "summary.json", summary)
    return 0 if all_ok else 1


def cmd_solve(cfg: dict, outdir: Path) -> int:
    cases = _run_cases(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        tag = f"p{case.p:g}_h{case.h:g}"
        write_csv(outdir / f"solution_{tag}.csv", ["x", "y", "u"],
                  [[case.mesh.points[i, 0], case.mesh.points[i, 1], case.solution.u[i]]
                   for i in range(case.mesh.n_vertices)])
        write_json(outdir / f"diagnostics_{tag}.json", case_report_dict(cfg, case))
    return 0


def cmd_sweep(cfg: dict, outdir: Path) -> int:
    cases = _run_cases(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, header = [], None
    for case in cases:
        flat: dict = {}
        _flatten("", case.report.to_json_dict(), flat)
        flat = {"p": case.p, "h": case.h, **flat}
        if header is None:
            header = list(flat.keys())
        rows.append([flat.get(k) for k in header])
    write_csv(outdir / "sweep.csv", header or ["p", "h"], rows)
    return 0 if all(c.report.all_passed() for c in cases) else 1


def cmd_matcheck(cfg: dict, outdir: Path) -> int:
    mc = cfg["matcheck"]
    result = matrix_inequality_sweep(samples=mc["samples"], seed=cfg["seed"],
                                     n_values=mc["n_values"], p_range=mc["p_range"])
    outdir.mkdir(parents=True, exist_ok=True)
    ok = result.min_gap >= -1e-12 and result.min_gap_loose >= -1e-12
    wit = result.witness
    write_json(outdir / "matcheck.json", {
        "schema_version": SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "command": "matcheck",
        "config_echo": {"seed": cfg["seed"], **{k: list(v) if isinstance(v, tuple) else v
                                                for k, v in mc.items()}},
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


def cmd_radial(cfg: dict, outdir: Path) -> int:
    rd = cfg["radial"]
    ps = cfg.get("p", [1.5, 2.0, 3.0, 4.0])
    entries = []
    ok = True
    for n in rd["n_values"]:
        for p in ps:
            exact = radial_exact(n, p, rd["radius"])
            fd = radial_fd_solve(n, p, rd["radius"], rd["grid"])
            r = np.linspace(0.0, rd["radius"], 501)
            dev = float(np.abs(exact.u(r) - fd.u(r)).max())
            rs = np.linspace(rd["radius"] / 1000, rd["radius"], 1000)
            ode = float(np.abs(exact.ode_residual(rs)).max())
            good = dev <= 1e-5 and ode <= 1e-10
            ok &= good
            entries.append({
                "n": n, "p": p, "radius": rd["radius"],
                "u_center": float(exact.u(0.0)),
                "du_boundary": float(exact.du(rd["radius"])),
                "p_ball_constant": p_ball_constant(n, p, rd["radius"]),
                "fd_max_deviation": dev,
                "ode_residual_max": ode,
                "pass": bool(good),
            })
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "radial.json", {
        "schema_version": SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "command": "radial",
        "config_echo": {"seed": cfg["seed"], "p": ps, **{k: list(v) if isinstance(v, tuple) else v
                                                         for k, v in rd.items()}},
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
    parser.add_argument("--seed", type=int, default=None, help="seed override")
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
        if args.seed is not None:
            cfg["seed"] = args.seed
        handler = {
            "verify": cmd_verify,
            "solve": cmd_solve,
            "sweep": cmd_sweep,
            "matcheck": cmd_matcheck,
            "radial": cmd_radial,
        }[args.command]
        return handler(cfg, outdir)
    except ConfigError as exc:
        _emit_error(outdir, "config", str(exc))
        return 2
    except SolverError as exc:     # AssemblyError included
        _emit_error(outdir, "solver", str(exc), history=[list(t) for t in exc.history])
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
