#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write BENCH_<parent>.json.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --parent SHA \\
        --change "what the change does" [--pairs 10] [--trace 0] [--seed 1000] \\
        [--set all-workloads] [--append]

PARENT_DIR and CHANGE_DIR are two checkouts (say, `git archive` of the
parent commit and the working tree).  For each workload of the change's
`BENCHMARK.json`, in its order, pair k runs the benchmark command,

    python3 plapbench/run.py --workload W --seed S --seconds T --trace 0|1

once in each checkout, from its root, with PYTHONDONTWRITEBYTECODE=1 so
that neither side runs on bytecode the other left.  Even pairs run the
parent first and odd pairs the change.  Workload i's pair k has seed
SEED + 100 i + k + 1, and T is the file's `run_seconds`.  The file,
BENCH_<parent>.json, is written in the current directory.

Each run becomes one record of `runs`: its workload, seed, pair, side,
which side ran first, exit code, the `reports_sha256` digest line of its
table and `result`, its last stdout line, unedited.  `summary` gives, per
workload and metric, both sides' medians and interquartile ranges and
`change_better_pairs`, the pairs whose change run is strictly better in the
direction of the metric's `better`, and per workload `digests_equal`,
whether every complete pair's two sides have the same `reports_sha256`.
With --append the runs join an existing file for the same parent and
change as a further set (a traced pair, a repeat), and the summary is taken
over all its runs again.

The script reads only `BENCHMARK.json` and runs only `plapbench/` of the
two checkouts; it writes the BENCH file and nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PROTOCOL = ("parent and change checkouts in separate directories, no __pycache__ on either "
            "side (PYTHONDONTWRITEBYTECODE=1); pairs alternate which side runs first; "
            "'result' is the last stdout line of each run, unedited; 'reports_sha256' is the "
            "digest line of the run's table")
SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``: its exit code, digest and result."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", str(trace)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digest = next((line.split()[1] for line in lines
                   if line.strip().startswith("reports_sha256")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit_code": proc.returncode, "reports_sha256": digest, "result": result}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric of the runs' results: both sides' medians and
    interquartile ranges (statistics.quantiles' quartiles), and the number
    of pairs, keyed by set and pair, whose change value is strictly better
    in the direction ``better[metric]`` ("lower" or "higher").  Per
    workload, ``digests_equal`` is true when it has a complete pair (both
    sides with a result) and in every such pair the two sides'
    ``reports_sha256`` are the same digest."""
    values: dict = {}       # workload -> metric -> (set, pair) -> side -> value
    digests: dict = {}      # workload -> (set, pair) -> side -> reports_sha256
    for run in runs:
        if run["result"] is None:
            continue
        digests.setdefault(run["workload"], {}).setdefault(
            (run["set"], run["pair"]), {})[run["side"]] = run.get("reports_sha256")
        for name, metric in run["result"]["metrics"].items():
            pair = values.setdefault(run["workload"], {}).setdefault(name, {}).setdefault(
                (run["set"], run["pair"]), {})
            pair[run["side"]] = metric["value"]
    summary: dict = {}
    for workload, metrics in values.items():
        for name, pairs in metrics.items():
            sides = {side: [pair[side] for pair in pairs.values() if side in pair]
                     for side in SIDES}
            sides = {side: vals for side, vals in sides.items() if vals}
            entry = {f"median_{side}": statistics.median(vals) for side, vals in sides.items()}
            for side, vals in sides.items():
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                entry[f"iqr_{side}"] = q[2] - q[0]
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["change_better_pairs"] = sum(
                1 for pair in pairs.values()
                if len(pair) == 2 and sign * (pair["change"] - pair["parent"]) > 0)
            summary.setdefault(workload, {})[name] = entry
    for workload, pairs in digests.items():
        complete = [pair for pair in pairs.values() if len(pair) == 2]
        summary.setdefault(workload, {})["digests_equal"] = bool(complete) and all(
            pair["parent"] is not None and pair["parent"] == pair["change"]
            for pair in complete)
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir", type=Path, help="checkout of the parent commit")
    ap.add_argument("change_dir", type=Path, help="checkout of the change")
    ap.add_argument("--parent", required=True, help="the parent commit's short sha")
    ap.add_argument("--change", required=True, help="what the change does, in one sentence")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=1000, help="seed base")
    ap.add_argument("--set", default="all-workloads", help="name of this set of runs")
    ap.add_argument("--append", action="store_true", help="add the runs to an existing file")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = Path(f"BENCH_{args.parent}.json")
    record = {"parent": args.parent, "change": args.change,
              "host": f"{os.cpu_count()} CPU {platform.system()} host",
              "command": " ".join(spec["command"]) + f" --workload W --seed S --seconds "
                         f"{seconds:g} --trace {args.trace}",
              "protocol": PROTOCOL, "sets": {}, "summary": {}, "runs": []}
    if args.append:
        record = json.loads(out.read_text(encoding="utf-8"))
        if (record["parent"], record["change"]) != (args.parent, args.change):
            ap.error(f"{out} holds another parent or change")
        if args.set in record["sets"]:
            ap.error(f"{out} holds a set named {args.set!r} already")

    seeds = {w: args.seed + 100 * i for i, w in enumerate(workloads)}
    record["sets"][args.set] = f"--trace {args.trace}; " + ", ".join(
        f"{w} seeds {seeds[w] + 1}-{seeds[w] + args.pairs}" for w in workloads) + (
        f" ({args.pairs} pairs each), run in that order")
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    for workload in workloads:
        for pair in range(args.pairs):
            seed = seeds[workload] + pair + 1
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], spec["command"], workload, seed, seconds,
                               args.trace)
                record["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                       "side": side, "first": order[0], **run,
                                       "set": args.set})
                print(f"{workload} pair {pair} {side}: exit {run['exit_code']}",
                      file=sys.stderr, flush=True)
    record["summary"] = summarize(record["runs"], better)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
