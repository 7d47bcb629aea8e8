"""The benchmark's workloads: set-up, one timed operation, and its output checks.

Importing this module imports numpy and plap_lab; ``run.py`` puts the
checkout's ``src/`` on ``sys.path`` and caps the thread pools first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from plap_lab import cli, geometry, oracles, pipeline
from plap_lab.metric import ConformalMetric

DISK_H = 0.025
FLAT_P = (1.5, 2.0, 3.0, 4.0)
CAP_P = (2.0, 3.0)
MATCHECK = {"samples": 1_000_000, "n_values": [2, 3, 4], "p_range": [1.1, 6.0]}
GAP_FLOOR = -1e-12


@dataclass
class Outcome:
    """What the checks of one operation found."""

    samples: int                    # matrix draws (matcheck) or solved cases
    digest: str                     # sha256 of the outputs, timestamps removed
    checks: int = 0                 # report entries and scans evaluated
    checks_failed: int = 0
    problems: list[str] = field(default_factory=list)   # failed output checks
    oracle_linf_max: float | None = None
    fundamental_rel_max: float | None = None
    bytes_written: int = 0


def _count_checks(out: Outcome, report: dict) -> None:
    """Tally the pass/fail sections of one report.

    The serrin entry is left out: it passes whenever its deficit is at least
    -1e-12, which a sum of squares always meets, so it is not a real check.
    """
    for name, sec in report.items():
        if name == "serrin" or not isinstance(sec, dict) or "pass" not in sec:
            continue
        out.checks += 1
        out.checks_failed += not sec["pass"]
    fund = report.get("fundamental")
    if fund is not None:
        out.fundamental_rel_max = max(out.fundamental_rel_max or 0.0, fund["rel_residual"])


def _digest_dir(outdir: Path) -> tuple[str, int]:
    """Digest of every output file (JSON without ``timestamp``) and total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if path.suffix == ".json":
            obj = json.loads(data)
            obj.pop("timestamp", None)
            data = json.dumps(obj, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), total


class _CliWorkload:
    """A workload that runs one plap-lab command on a generated config."""

    command = ""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.config_path = workdir / f"{self.command}.json"

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        cfg = self.config()
        cfg["seed"] = self.seed
        self.config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    def op(self, k: int):
        outdir = self.workdir / f"op{k}"
        code = cli.main([self.command, "--config", str(self.config_path), "--out", str(outdir)])
        return code, outdir

    def check(self, result) -> Outcome:
        code, outdir = result
        digest, nbytes = _digest_dir(outdir)
        out = Outcome(samples=0, digest=digest, bytes_written=nbytes)
        if code != 0:
            out.problems.append(f"plap-lab {self.command} exited {code}")
        self._check_outputs(outdir, out)
        return out

    def _check_outputs(self, outdir: Path, out: Outcome) -> None:
        raise NotImplementedError


class EllipseVerify(_CliWorkload):
    """``plap-lab verify`` on the shipped configs/ellipse_verify.json."""

    name = "ellipse_verify"
    command = "verify"

    def config(self) -> dict:
        return json.loads((self.root / "configs" / "ellipse_verify.json").read_text(encoding="utf-8"))

    def _check_outputs(self, outdir: Path, out: Outcome) -> None:
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
        if summary.get("pass") is not True:
            out.problems.append("summary.json does not report pass")
        reports = sorted(outdir.glob("report_p*_h*.json"))
        if len(reports) != len(summary["cases"]):
            out.problems.append(f"{len(reports)} reports for {len(summary['cases'])} cases")
        for path in reports:
            _count_checks(out, json.loads(path.read_text(encoding="utf-8")))
        out.samples = len(reports)


class Matcheck(_CliWorkload):
    """``plap-lab matcheck`` on a generated config carrying the benchmark seed."""

    name = "matcheck"
    command = "matcheck"

    def config(self) -> dict:
        return {"command": "matcheck", "matcheck": dict(MATCHECK)}

    def _check_outputs(self, outdir: Path, out: Outcome) -> None:
        res = json.loads((outdir / "matcheck.json").read_text(encoding="utf-8"))
        out.samples = res["samples"]
        if res["samples"] != MATCHECK["samples"]:
            out.problems.append(f"matcheck drew {res['samples']} samples")
        if res.get("pass") is not True:
            out.problems.append("matcheck.json does not report pass")
        for key in ("min_gap", "min_gap_loose"):
            out.checks += 1
            if not res[key] >= GAP_FLOOR:
                out.checks_failed += 1
                out.problems.append(f"{key} = {res[key]!r} < {GAP_FLOOR}")


class DiskPLadder:
    """Six ``pipeline.run_case`` calls on one disk mesh built during set-up.

    The flat cases are compared with the exact radial profile at the bounds
    of acceptance criterion 1: 1e-3 at p = 2 and 5e-3 otherwise.
    """

    name = "disk_p_ladder"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root            # the seed changes nothing: no randomness here
        self.spec = geometry.Disk(radius=1.0)
        self.mesh = None
        self.cap = None

    def setup(self) -> None:
        cfg = json.loads((self.root / "configs" / "conformal_disk_verify.json").read_text(encoding="utf-8"))
        self.cap = ConformalMetric.from_json(cfg["metric"])
        self.mesh = geometry.build_mesh(self.spec, DISK_H)

    def cases(self):
        return [(None, p) for p in FLAT_P] + [(self.cap, p) for p in CAP_P]

    def op(self, k: int):
        return [pipeline.run_case(self.spec, met, p, DISK_H, mesh=self.mesh)
                for met, p in self.cases()]

    def check(self, results) -> Outcome:
        h = hashlib.sha256()
        out = Outcome(samples=len(results), digest="")
        r = np.minimum(np.linalg.norm(self.mesh.points, axis=1), self.spec.radius)
        for (met, p), case in zip(self.cases(), results):
            report = case.report.to_json_dict()
            h.update(json.dumps(report, sort_keys=True, default=repr).encode())
            h.update(case.solution.u.tobytes())
            _count_checks(out, report)
            if met is None:
                err = float(np.abs(case.solution.u - oracles.radial_exact(2, p, self.spec.radius).u(r)).max())
                bound = 1e-3 if p == 2.0 else 5e-3
                if not err <= bound:
                    out.problems.append(f"flat p={p:g}: |u_h - u_exact| = {err:.3e} > {bound:g}")
                out.oracle_linf_max = max(out.oracle_linf_max or 0.0, err)
        out.digest = h.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (EllipseVerify, DiskPLadder, Matcheck)}
