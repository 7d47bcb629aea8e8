#!/usr/bin/env python3
"""Run shipped configs into one output tree, for `compare_outputs.py`.

Each config (by default every `configs/*.json`, then every
`scripts/compare_configs/*.json`) runs through the CLI with its own command
into `OUT/<stem>/`, and the exit codes go to
`OUT/exit_codes.json` as {stem: code}.  Each config's wall time is printed
beside its exit code, and the total after the last; timings are not written
to the tree, so it holds outputs only.  Two trees made from two checkouts
are then compared with

    PYTHONPATH=src python scripts/shipped_outputs.py OLD_OUT   # in the old checkout
    PYTHONPATH=src python scripts/shipped_outputs.py NEW_OUT   # in the new checkout
    python scripts/compare_outputs.py OLD_OUT NEW_OUT

The configs in `scripts/compare_configs/` reach report paths (the skipped
checks) that no shipped config reaches, so the default run covers those
too.  The script exits 0 once every config has run, whatever their exit
codes.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from plap_lab.cli import main as plap_lab

SCRIPTS = Path(__file__).resolve().parent
CONFIG_DIRS = (SCRIPTS.parent / "configs", SCRIPTS / "compare_configs")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path)
    ap.add_argument("configs", type=Path, nargs="*",
                    help="config files (default: every config in configs/, "
                         "then in scripts/compare_configs/)")
    args = ap.parse_args()
    codes = {}
    total = 0.0
    defaults = [c for d in CONFIG_DIRS for c in sorted(d.glob("*.json"))]
    for config in args.configs or defaults:
        command = json.loads(config.read_text(encoding="utf-8"))["command"]
        start = time.perf_counter()
        codes[config.stem] = plap_lab([command, "--config", str(config),
                                       "--out", str(args.out / config.stem)])
        wall = time.perf_counter() - start
        total += wall
        print(f"{config.stem}: exit {codes[config.stem]} in {wall:.2f} s", flush=True)
    print(f"total: {total:.2f} s")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
