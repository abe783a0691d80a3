#!/usr/bin/env python3
"""SHA-256 digests of CLI outputs over a fixed matrix of commands.

Every case runs in process through ``gaussmin.cli.main`` and prints one line

    case exit_code sha256(stdout) sha256(stderr) sha256(--out) sha256(--field-out)

with ``-`` for a file the command does not write.  A ``--config`` case
names its config as compact JSON in place of the file.  A case that raises
is recorded as the interpreter would exit, with code 1, and its stderr as
the exception's last line; warnings enter stderr as ``Category: message``
without the source path, so checkouts in different directories compare.
Run it with each checkout's ``src`` on ``PYTHONPATH`` and diff the two
listings to see which outputs, exit codes or error messages a change
alters:

    PYTHONPATH=old/src python scripts/cli_digest.py > old.txt
    PYTHONPATH=new/src python scripts/cli_digest.py > new.txt
    diff old.txt new.txt

The hashes depend on the CPU's libm and SIMD code paths, so compare
listings made on the same machine only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
import warnings

from gaussmin.cli import main as cli_main

MEASURE_ARGS = ["--R", "1.7", "--samples", "200000"]

# inputs that must fail: usage errors (exit 64), and overflowing radii and
# initial flow fields (exit 2)
ERROR_CASES = [
    ["planes", "--profile", "bogus"],
    ["planes", "--profile", "quadratic:abc"],
    ["planes", "--profile", "linear:1,2,3"],
    ["planes", "--lo", "1", "--hi", "0"],
    ["curvature", "--density", "bogus"],
    ["curvature", "--surface", "horizontal_plane", "--params", "profile=bogus"],
    ["curvature", "--params", "r=-1"],
    ["curvature", "--surface", "plane", "--params", "normal=1:0:1"],
    ["curvature", "--surface", "plane", "--params", "normal=1:0"],
    ["curvature", "--surface", "plane", "--params", "normal=0:0:0"],
    ["flow", "--init", "bogus", "--grid", "9"],
    ["flow", "--init", "constant:abc", "--grid", "9"],
    ["measure", "--quantity", "sphere", "--n", "3", "--R", "1e200"],
    ["measure", "--quantity", "hemisphere", "--n", "2", "--method", "monte_carlo",
     "--samples", "1000", "--R", "1e200"],
    # R^3 is a float but the area scale is not
    ["measure", "--quantity", "sphere", "--n", "3", "--R", "5e102"],
    ["measure", "--quantity", "sphere", "--n", "3", "--method", "monte_carlo",
     "--samples", "1000", "--R", "5e102"],
    ["curvature", "--surface", "cylinder", "--params", "radius=2"],
    ["flow", "--init", "sinusoid:3", "--grid", "9"],
    ["flow", "--init", "linear:2", "--grid", "9"],
    ["bound", "--steps", "0"],
    ["flow", "--L", "1e-20", "--grid", "3"],
    ["flow", "--L", "1e200", "--grid", "3"],
    # the initial field's split area overflows: its squared slopes, then W (1 + W)^2
    ["flow", "--init", "random_bump:1e300", "--grid", "9"],
    ["flow", "--init", "random_bump:1e150", "--grid", "9"],
]

# a dict stands for --config with a file holding it; every option of each
# command is set to a value other than its default
CONFIG_CASES = [
    ["verify", {"tolerance": 1e-4, "only": "identity", "seed": 7387}],
    ["bound", {"n": 3, "rmin": 1, "rmax": 2.5, "steps": 4}],
    ["flow", {"n": 2, "L": 3.5, "grid": 17, "init": "random_bump", "tmax": 2,
              "osc_tol": 0.01, "hf_tol": 0.01, "seed": 5}],
    ["curvature", {"surface": "graph", "params": ["preset=random_bump", "seed=5"],
                   "at": "0.4,-0.2", "density": "gaussian"}],
    ["planes", {"profile": "quadratic:0.3", "lo": -1, "hi": 1}],
    ["measure", {"quantity": "cap", "n": 2, "R": 1.7, "method": "monte_carlo",
                 "samples": 200000, "seed": 5, "init": "random_bump"}],
    # flags override the config, and --params flags replace its params list
    ["curvature", {"surface": "graph", "params": ["preset=random_bump", "seed=5"],
                   "at": "0.4,-0.2"}, "--params", "preset=sinusoid", "--at", "0.3,-1.2"],
]


def cases() -> list[list[str]]:
    out = [
        ["verify"],
        ["verify", "--seed", "7387"],
        ["verify", "--only", "catalog"],
        ["verify", "--only", "calibration"],
        *(["bound", "--n", n] for n in ("1", "2", "3", "4")),
        ["measure", "--quantity", "hemisphere", "--n", "4"],
        ["measure", "--quantity", "sphere", "--n", "6", "--R", "1.7"],
        ["bound", "--n", "1", "--rmax", "1e200", "--steps", "2"],
        ["bound", "--n", "2", "--rmax", "1e200", "--steps", "2"],
        ["bound", "--rmax", "1e300", "--steps", "2"],
        ["bound", "--n", "341", "--rmin", "8", "--rmax", "8", "--steps", "1"],
        ["bound", "--n", "400", "--rmin", "4", "--rmax", "40", "--steps", "3"],
        ["measure", "--quantity", "hemisphere", "--n", "1", "--R", "300"],
        ["measure", "--quantity", "hemisphere", "--n", "3", "--R", "1000"],
        ["planes", "--lo", "-1e-3", "--hi", "1"],
        ["curvature", "--surface", "associate", "--at", "-1,0.5"],
        ["measure", "--quantity", "cap", "--n", "2", "--R", "1e200"],
        ["flow", "--n", "1"],
        ["flow", "--n", "1", "--grid", "65"],
        ["flow", "--n", "2", "--grid", "33", "--init", "random_bump", "--seed", "5"],
        ["flow", "--n", "2", "--grid", "65"],
        ["flow", "--n", "3", "--grid", "33"],
        ["flow", "--n", "3", "--grid", "33", "--init", "random_bump", "--seed", "5"],
        # coarse, wide and tiny boxes: Peclet number 25, and FLOW_DT/dx^2 up to 6.2e7
        ["flow", "--n", "1", "--grid", "5", "--L", "10", "--init", "random_bump"],
        ["flow", "--n", "2", "--grid", "9", "--L", "10", "--init", "random_bump"],
        ["flow", "--n", "2", "--grid", "33", "--L", "10", "--init", "random_bump"],
        ["flow", "--n", "2", "--grid", "3", "--L", "1e-3", "--init", "random_bump"],
        ["flow", "--n", "2", "--grid", "3", "--L", "1.8e-5", "--init", "random_bump"],
        # wide boxes whose far field relaxes slowly: pseudo-time 655 and 328
        ["flow", "--n", "1", "--grid", "65", "--L", "20"],
        ["flow", "--n", "1", "--grid", "4", "--L", "10"],
        # steep, but nothing in its split area overflows
        ["flow", "--init", "random_bump:1e100", "--grid", "9"],
        # the node and edge operators' edge regimes: a steep 3-D field, an
        # area that underflows, an even grid at the weight floor and -0.0
        # in three dimensions
        ["flow", "--n", "3", "--grid", "5", "--init", "random_bump:100"],
        ["flow", "--n", "1", "--grid", "3", "--L", "100"],
        ["flow", "--n", "2", "--grid", "4", "--L", "10"],
        ["flow", "--n", "3", "--grid", "5", "--init", "constant:-0.0"],
        # the rare layouts of the field text: 0, -0, a value beyond the power
        # table, an integer and 1e+17
        *(["flow", "--n", "2", "--grid", "5", "--init", init]
          for init in ("constant", "constant:-0.0", "constant:1e-300", "constant:123456789",
                       "constant:1e17")),
        # R^2 is no float, R^1 is
        ["measure", "--quantity", "hemisphere", "--n", "1", "--R", "1e200"],
        ["measure", "--quantity", "hemisphere", "--method", "monte_carlo", "--n", "1",
         "--R", "1e200", "--samples", "1000"],
        ["curvature", "--surface", "cylinder", "--params", "r=2", "--at", "0.3,-0.7"],
        # normals with exact zero components: cofactors that are 0, negated or not
        ["curvature", "--surface", "cylinder", "--params", "r=1", "--at", "0,0"],
        ["curvature", "--surface", "plane", "--params", "normal=0:1:0", "--at", "0.5,-0.5"],
        ["curvature", "--surface", "associate", "--params", "theta=1.2", "--at", "2.9,-1.9"],
        ["curvature", "--surface", "plane", "--params", "offset=0.75", "--at", "0.4,1.1"],
        ["curvature", "--surface", "horizontal_plane", "--params", "a=0.39",
         "--params", "profile=quad_log", "--at", "0.5,-0.2"],
        ["curvature", "--surface", "associate", "--params", "theta=0.7853981633974483",
         "--at", "0.3,0.5"],
        ["curvature", "--surface", "graph", "--params", "preset=random_bump",
         "--params", "seed=5", "--at", "0.4,-0.2"],
        ["curvature", "--surface", "graph", "--params", "preset=sinusoid", "--at", "0.3,-1.2"],
        ["curvature", "--surface", "graph", "--params", "preset=parabola",
         "--density", "product:gaussian+quad_log", "--at", "0.5,0.3"],
        ["measure", "--quantity", "cap", "--method", "quadrature", "--n", "3",
         "--init", "random_bump"],
        ["planes", "--profile", "quad_log"],
        ["planes", "--profile", "quadratic:0.3", "--lo", "-1", "--hi", "1"],
    ]
    for quantity in ("unit-ball", "ball", "sphere", "hemisphere", "cap"):
        for method in ("quadrature", "monte_carlo"):
            for n in ("1", "2", "3"):
                out.append(["measure", "--quantity", quantity, "--method", method,
                            "--n", n, *MEASURE_ARGS])
    for preset in ("parabola", "sinusoid", "linear", "random_bump"):
        for method in ("quadrature", "monte_carlo"):
            out.append(["measure", "--quantity", "cap", "--init", preset, "--method", method,
                        "--n", "2", *MEASURE_ARGS])
    for preset in ("sinusoid", "random_bump"):
        for n in ("1", "3"):
            out.append(["measure", "--quantity", "cap", "--init", preset, "--method",
                        "monte_carlo", "--n", n, *MEASURE_ARGS])
    # 9 ambient columns: the squared norms take np.sum's pairwise path
    for quantity in ("sphere", "hemisphere"):
        for method in ("quadrature", "monte_carlo"):
            out.append(["measure", "--quantity", quantity, "--method", method,
                        "--n", "8", *MEASURE_ARGS])
    # 600,001 samples: two 2^18-sample chunk boundaries
    out.append(["measure", "--quantity", "cap", "--init", "random_bump", "--method", "monte_carlo",
                "--n", "3", "--R", "1.7", "--samples", "600001"])
    out.append(["measure", "--quantity", "hemisphere", "--method", "monte_carlo", "--n", "8",
                "--R", "1.7", "--samples", "600001"])
    # three chunks, shared by the calling thread and its helpers, then the
    # random_bump jet at every n on both routes
    for n in ("2", "1", "3"):
        out.append(["measure", "--quantity", "cap", "--n", n, "--R", "1.7", "--method",
                    "monte_carlo", "--samples", "600001", "--seed", "5", "--init", "random_bump"])
    out.append(["measure", "--quantity", "cap", "--n", "3", "--R", "1.7", "--method", "quadrature",
                "--seed", "5", "--init", "random_bump"])
    out.append(["measure", "--quantity", "hemisphere", "--n", "2", "--R", "2.5", "--method",
                "monte_carlo", "--samples", "600001"])
    return out + CONFIG_CASES + ERROR_CASES


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_case(args: list, workdir: str) -> str:
    out_path = os.path.join(workdir, "out")
    field_path = os.path.join(workdir, "field")
    config_path = os.path.join(workdir, "config.json")
    for path in (out_path, field_path):
        if os.path.exists(path):
            os.remove(path)
    argv = []
    for arg in args:
        if isinstance(arg, dict):
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(arg, fh)
            argv += ["--config", config_path]
        else:
            argv.append(arg)
    argv += ["--out", out_path]
    if args[0] == "flow":
        argv += ["--field-out", field_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error exits 1 with a traceback
            code = 1
            stderr.write("".join(traceback.format_exception_only(exc)))
    for w in caught:
        stderr.write(f"{w.category.__name__}: {w.message}\n")
    digests = [_text_digest(stdout.getvalue()), _text_digest(stderr.getvalue()),
               _digest(out_path), _digest(field_path)]
    label = "_".join(
        a if isinstance(a, str) else json.dumps(a, separators=(",", ":")) for a in args
    )
    return " ".join([label, str(code), *digests])


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        for args in cases():
            print(run_case(args, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
