#!/usr/bin/env python3
"""Radius sweep of the volume-growth comparison, with the hemisphere column.

Beyond the cap-vs-(ball + tail) report this also prints where the stepwise
comparison `hemisphere <= ball + exact tail` breaks: the hemisphere excess
over the ball decays like n/(2 R^2) while the wall tail decays like
e^{-R^2/2}, so the inequality flips at moderate radii even though the cap
area itself stays below both and tends to 1.
"""

import argparse

import numpy as np

from gaussmin.density import horizontal_gaussian
from gaussmin.measure import (
    exact_lateral_tail,
    gaussian_ball_volume,
    weighted_sphere_area,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--rmin", type=float, default=0.5)
    ap.add_argument("--rmax", type=float, default=6.0)
    ap.add_argument("--steps", type=int, default=12)
    args = ap.parse_args()

    dens = horizontal_gaussian(args.n)
    print(f"{'R':>6} {'hemisphere':>12} {'ball':>12} {'tail':>12} {'ball+tail':>12}  holds")
    first_flip = None
    for R in np.linspace(args.rmin, args.rmax, args.steps):
        hemi = weighted_sphere_area(dens, float(R))
        ball = gaussian_ball_volume(args.n, float(R))
        tail = exact_lateral_tail(args.n, float(R))
        holds = hemi <= ball + tail + 1e-9
        if not holds and first_flip is None:
            first_flip = float(R)
        print(
            f"{R:>6.2f} {hemi:>12.6f} {ball:>12.6f} {tail:>12.6f} "
            f"{ball + tail:>12.6f}  {'yes' if holds else 'NO'}"
        )
    if first_flip is not None:
        print(f"\nstepwise comparison first fails at R = {first_flip:.2f} (n = {args.n})")
    print("the cap area of the flat entire graph still satisfies the limit bound:")
    print(f"  gaussian ball mass at R = {args.rmax}: {gaussian_ball_volume(args.n, args.rmax):.12f}")


if __name__ == "__main__":
    main()
