#!/usr/bin/env python3
"""Flattening experiment: run the weighted mean-curvature flow from several
initial graphs and tabulate how fast each collapses to a constant."""

import argparse

from gaussmin.flow import flow_run, initial_field, initial_state
from gaussmin.rng import DEFAULT_SEED


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1, choices=(1, 2, 3))
    ap.add_argument("--grid", type=int, default=129)
    ap.add_argument("--tmax", type=float, default=1e6)  # flow's --tmax
    ap.add_argument("--osc-tol", type=float, default=0.005)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    args = ap.parse_args()

    inits = ["sinusoid", "linear", "random_bump", "constant:0.4"]
    print(f"{'init':<14} {'verdict':<22} {'t_end':>8} {'osc_end':>10} {'area_drop':>10}")
    for init in inits:
        fld = initial_field(args.n, 4.0, args.grid, init, args.seed)
        state = initial_state(fld)
        a0 = state.history[0][1]
        result = flow_run(state, args.tmax, args.osc_tol, args.osc_tol)
        drop = a0 - result.state.history[-1][1]
        print(
            f"{init:<14} {result.verdict:<22} {result.state.time:>8.3f} "
            f"{result.state.field.oscillation():>10.2e} {drop:>10.3e}"
        )


if __name__ == "__main__":
    main()
