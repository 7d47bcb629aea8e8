#!/usr/bin/env python3
"""Mesh refinement study against the exact radial torsion profile.

Runs `plap-lab verify` on a flat disk for each h and prints the max and L2
errors of u, with their observed orders, from the run's deficit_vs_h.csv.
"""

import argparse
import csv
import json
import sys
import tempfile
from pathlib import Path

from plap_lab.cli import main as plap_lab


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--h", type=float, nargs="+", default=[0.2, 0.1, 0.05])
    ap.add_argument("--radius", type=float, default=1.0)
    args = ap.parse_args()
    if len(args.h) < 2:
        ap.error("a refinement study needs at least two values of --h")

    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps({"command": "verify", "p": [args.p], "h": args.h,
                                      "domain": {"variant": "disk", "radius": args.radius}}))
        # exit 1 means an identity check failed, which does not spoil the errors
        code = plap_lab(["verify", "--config", str(config), "--out", str(out)])
        if code not in (0, 1):
            sys.exit(code)
        with open(out / "deficit_vs_h.csv", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))

    print(f"{'h':>8} {'Linf':>12} {'L2':>12} {'order(Linf)':>12} {'order(L2)':>10}")
    for r in rows:
        om = f"{float(r['order_u_err_max']):.2f}" if r["order_u_err_max"] else "-"
        ol = f"{float(r['order_u_err_l2']):.2f}" if r["order_u_err_l2"] else "-"
        print(f"{float(r['h']):8.3f} {float(r['u_err_max']):12.3e} "
              f"{float(r['u_err_l2']):12.3e} {om:>12} {ol:>10}")


if __name__ == "__main__":
    main()
