#!/usr/bin/env python3
"""Solve the torsion problem on the unit disk and compare against the exact
radial profile: nodal errors, boundary flux, and P-function constancy."""

import argparse

import numpy as np

from plap_lab import (Disk, build_mesh, p_ball_constant,
                      p_function, radial_exact, recover_derivatives, solve)
from plap_lab.identities import boundary_trace
from plap_lab.metric import ConformalMetric


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0, 3.0, 4.0])
    ap.add_argument("--h", type=float, default=0.05)
    ap.add_argument("--radius", type=float, default=1.0)
    args = ap.parse_args()

    mesh = build_mesh(Disk(args.radius), args.h)
    flat = ConformalMetric.flat()
    print(f"mesh: {mesh.n_vertices} vertices, min angle {mesh.min_angle_deg():.1f} deg")
    print(f"{'p':>5} {'Linf(u)':>10} {'u_nu dev':>10} {'P std/P0':>10} {'iters':>6}")
    for p in args.p:
        sol = solve(mesh, flat, p)
        prof = radial_exact(2, p, args.radius)
        r = np.minimum(np.linalg.norm(mesh.points, axis=1), args.radius)
        err = np.abs(sol.u - prof.u(r)).max()
        bundle = recover_derivatives(mesh, sol.u, flat)
        tr = boundary_trace(bundle, p)
        nu_dev = np.abs(tr.u_nu - prof.du(args.radius)).max()
        pf = p_function(bundle.gnorm, bundle.u, p, 2)
        pstd = np.std(pf[~bundle.mask]) / p_ball_constant(2, p, args.radius)
        iters = sum(s.iterations for s in sol.steps)
        print(f"{p:5.2f} {err:10.2e} {nu_dev:10.2e} {pstd:10.2e} {iters:6d}")


if __name__ == "__main__":
    main()
