#!/usr/bin/env python3
"""plap-lab benchmark: one workload in one process.

    python3 plapbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; plap_lab is imported from its ``src/``.
The workload is set up several times, then its operation repeats until
``--seconds`` have passed.  Every operation's outputs are checked.  The
last line of standard output is one JSON object: with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
operation (traced and untraced operations alternate, so the tracing
overhead is measured in the same process).  See plapbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# shown in the table only: 0 on every correct run, so it cannot carry a
# relative bound; the JSON's "failed" and "attempted" give the same count
TABLE_ONLY_UNITS = {"failed_frac": "ratio"}


def _cap_threads() -> None:
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            keep = 1 <= int(os.environ.get(var, "")) <= ncpu
        except ValueError:
            keep = False
        if not keep:
            os.environ[var] = str(ncpu)


def _import_workloads():
    """Import plap_lab from this checkout's src/ and the workload module."""
    src = ROOT / "src"
    if not (src / "plap_lab" / "__init__.py").is_file():
        raise SystemExit(f"plapbench: no plap_lab package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    import plap_lab
    if Path(plap_lab.__file__).resolve().parent != src / "plap_lab":
        raise SystemExit(f"plapbench: imported plap_lab from {plap_lab.__file__}, not {src}")
    return workloads


@dataclass
class Measured:
    """Operations of one run, their wall times and what their checks found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    walls: dict = field(default_factory=lambda: {False: [], True: []})   # traced? -> s
    traced_layers: list = field(default_factory=list)    # (wall, layer metrics)
    peak_rss_mb: float | None = None   # after the first operation, as one CLI call leaves it


def _measure(wl, tracer, seconds: float) -> Measured:
    """Run operations until ``seconds`` have passed; untraced and traced
    operations alternate when there is a tracer."""
    res = Measured()
    deadline = time.perf_counter() + seconds
    while True:
        for traced in ((False, True) if tracer else (False,)):
            k = res.attempted
            res.attempted += 1
            try:
                with tracer.operation() if traced else contextlib.nullcontext() as op_id:
                    t0 = time.perf_counter()
                    result = wl.op(k)
                    wall = time.perf_counter() - t0
                out = wl.check(result)
                del result
            except Exception:   # an operation that raises counts as failed
                traceback.print_exc()
                res.failed += 1
                res.problems.append(f"op {k} raised")
                continue
            if res.outcomes and out.digest != res.outcomes[0].digest:
                out.problems.append("outputs differ from the first operation's")
            if out.problems:
                res.failed += 1
                res.problems += [f"op {k}: {p}" for p in out.problems]
            res.outcomes.append(out)
            res.walls[traced].append(wall)
            if res.peak_rss_mb is None:
                res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                m = tracer.layer_metrics(op_id)
                m["cli.bytes_written"] = out.bytes_written
                res.traced_layers.append((wall, m))
        if time.perf_counter() >= deadline:
            return res


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(TABLE_ONLY_UNITS)

    _cap_threads()
    t_start = time.perf_counter()
    workloads = _import_workloads()
    import_s = time.perf_counter() - t_start
    import tracing

    scratch = ROOT / ".plapbench"
    scratch.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=scratch) as tmp:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(tmp))
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        res = _measure(wl, tracer, args.seconds)

    if not res.walls[False] or (tracer and not res.walls[True]):
        print("plapbench: every operation of a kind failed", file=sys.stderr)
        return 1
    problems = res.problems
    first = res.outcomes[0]
    checks = max(first.checks, 1)
    median_wall = statistics.median(res.walls[False])
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": median_wall,
        "samples_per_s": first.samples / median_wall,
        "peak_rss_mb": res.peak_rss_mb,
        "checks_passed_frac": 1.0 - first.checks_failed / checks,
        "failed_frac": res.failed / res.attempted,
        "checks_failed_frac": first.checks_failed / checks,
        "oracle_linf_max": first.oracle_linf_max,
        "fundamental_rel_max": first.fundamental_rel_max,
    }
    reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    if tracer:
        counters = [{n: v for n, v in m.items() if units[n] != "s"} for _, m in res.traced_layers]
        if any(c != counters[0] for c in counters):
            problems.append("traced operations disagree on their counters")
        # the traced operation with the median wall time gives the layer values
        res.traced_layers.sort(key=lambda wm: wm[0])
        wall_traced, layer = res.traced_layers[(len(res.traced_layers) - 1) // 2]
        layer["trace.wall_s"] = wall_traced
        layer["trace.overhead_s"] = wall_traced - median_wall
        for name in ("oracle_linf_max", "fundamental_rel_max", "checks_failed_frac"):
            layer[name] = e2e[name] or 0.0
        self_sum = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
        if self_sum > wall_traced:
            problems.append(f"layer self times sum to {self_sum} s > traced wall {wall_traced} s")
        tracer.write(scratch / f"trace-{args.workload}-seed{args.seed}.jsonl", t_start)
        reported = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}

    print(f"plapbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={res.attempted} setups={SETUPS}")
    print(f"  reports_sha256 {first.digest}")
    print("  op wall times, s: untraced " + " ".join(f"{w:.3f}" for w in res.walls[False])
          + ("; traced " + " ".join(f"{w:.3f}" for w in res.walls[True]) if tracer else ""))
    for p in problems:
        print(f"  FAILED CHECK {p}")
    _print_table("end-to-end (untraced operations, medians)", e2e, units)
    if tracer:
        _print_table("per-layer (the median traced operation)", reported, units)
    print(json.dumps({
        "correct": not problems and res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
