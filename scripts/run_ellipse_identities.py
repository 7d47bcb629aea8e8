#!/usr/bin/env python3
"""Evaluate every integral identity on the 2:1 ellipse and print the report
against the closed-form boundary quadratures."""

import argparse

import numpy as np

from plap_lab import Ellipse, ellipse_boundary_integrals
from plap_lab.pipeline import run_case


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    ap.add_argument("--h", type=float, default=0.05)
    ap.add_argument("--a", type=float, default=2.0)
    ap.add_argument("--b", type=float, default=1.0)
    args = ap.parse_args()

    ei = ellipse_boundary_integrals(args.a, args.b)
    t3_oracle = ei.inv_curvature_integral - 2 * ei.volume
    print(f"oracle: |Omega| = {ei.volume:.6f}, |dOmega| = {ei.perimeter:.6f}, "
          f"int 1/H - 2|Omega| = {t3_oracle:.6f}, H0 = {ei.h0:.6f}")

    mesh = None
    for p in args.p:
        case = run_case(Ellipse(args.a, args.b), None, p, args.h, mesh=mesh)
        mesh = case.mesh
        rep = case.report.sections
        f, hk, sb = rep["fundamental"], rep["hk"], rep["sbt"]
        print(f"\np = {p}")
        print(f"  interior/boundary identity: volume {f['lhs_volume']:+.5f}  "
              f"boundary {f['lhs_boundary']:+.5f}  rhs {f['rhs']:+.5f}  "
              f"(divergence check {f['divergence_check']:.4f})")
        print(f"  Heintze-Karcher: t1 {hk['t1']:+.5f}  t2 {hk['t2']:+.5f}  "
              f"t3 {hk['t3']:+.5f}  [oracle {t3_oracle:.5f}]")
        print(f"  soap bubble: lhs {sb['lhs1'] + sb['lhs2']:+.5f}  rhs {sb['rhs']:+.5f}  "
              f"max |H - H0| {sb['max_h_deviation']:.4f}")
        print(f"  overdetermined deficit t2 {hk['t2']:.4f} "
              f"({hk['t2'] / ei.perimeter:.3f} per unit boundary length)")
        scan = rep.get("subharmonicity")
        if scan is None:
            print(f"  subharmonicity: skipped, {rep['skipped']['subharmonicity']}")
        else:
            print(f"  subharmonicity: min {scan['min']:+.4f} "
                  f"(allowance {scan['tol_scan']:.4f}), integral {scan['integral']:+.4f}")
        print(f"  all checks pass: {case.report.all_passed()}")


if __name__ == "__main__":
    main()
