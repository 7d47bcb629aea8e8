#!/usr/bin/env python3
"""Time shipped configs as fresh `plap-lab` processes, import included.

Each config (every `configs/*.json` by default) runs as

    python -m plap_lab.cli <command> --config CONFIG --out DIR

in its own interpreter, so its time counts the interpreter's start and the
imports, as a user's run does: plap_lab and numpy for every command, and
scipy only for the 2-D command, verify, which on a disk, ellipse or
annulus loads no public scipy subpackage (only scipy itself and the
compiled extensions it calls); matcheck and radial import no scipy.  `shipped_outputs.py` runs every config in one process and
leaves the import out.  Repeats alternate between configs (run 0 of each
config, then run 1, ...), so a slow spell of the host is spread over all of
them.  Each run prints one JSON line

    {"config": STEM, "run": R, "wall_s": SECONDS, "exit_code": CODE}

and its outputs go to a temporary directory, removed at the end.  The script
exits 0 once every run has finished, whatever their exit codes:

    PYTHONPATH=src python scripts/process_times.py --repeats 5 > times.jsonl
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", type=Path, nargs="*",
                    help="config files (default: every config in configs/)")
    ap.add_argument("--repeats", type=int, default=5, help="runs of each config")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    configs = args.configs or sorted(CONFIGS.glob("*.json"))
    commands = {c: json.loads(c.read_text(encoding="utf-8"))["command"] for c in configs}
    with tempfile.TemporaryDirectory(prefix="process_times-") as tmp:
        for run in range(args.repeats):
            for config in configs:
                out = Path(tmp) / f"{config.stem}-{run}"
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "plap_lab.cli", commands[config],
                                       "--config", str(config), "--out", str(out)],
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                wall = time.perf_counter() - start
                print(json.dumps({"config": config.stem, "run": run, "wall_s": wall,
                                  "exit_code": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
