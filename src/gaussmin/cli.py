"""Command-line entry point.

Subcommands: verify, bound, flow, curvature, planes, measure.  Outputs are
JSON or CSV with deterministic formatting, so identical configurations give
byte-identical files.  Exit codes: 0 all checks pass, 1 verification
failures, 2 runtime/step failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import calibration, catalog, flow, graph, measure
from .density import Density, Profile, density_from_name, profile_from_name, horizontal_gaussian
from .graph import GraphFunction
from .rng import DEFAULT_SEED, substream
from .surface import weighted_mean_curvature

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_params(items: Optional[Sequence[str]]) -> dict:
    out: dict = {}
    for item in items or ():
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"bad --params entry '{item}', expected key=value")
        out[key.strip()] = val.strip()
    return out


# ------------------------------------------------------------------- verify

def _calibration_presets() -> list[tuple[str, GraphFunction, Density, bool]]:
    """(name, graph, density, sample_on_graph) checked by the verify command."""
    quad_log_density = Density.product(Density.gaussian(2), Profile.quad_log())
    return [
        ("constant", GraphFunction.constant(2, 0.7), horizontal_gaussian(2), False),
        ("linear", GraphFunction.linear([0.5, 0.0]), horizontal_gaussian(2), False),
        ("sinusoid", GraphFunction.sinusoid(2), horizontal_gaussian(2), False),
        ("parabola_quad_log", GraphFunction.parabola(2), quad_log_density, True),
    ]


def closedness_suite(
    u: GraphFunction,
    dens: Density,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
    on_graph: bool = False,
    half_width: float = 2.0,
) -> float:
    """Max |closedness residual| over seeded ambient sample points.

    For densities that depend on the vertical coordinate the identity holds
    on the graph itself, so sampling is restricted there.
    """
    rng = substream(seed, 3)
    base = rng.uniform(-half_width, half_width, size=(trials, u.dimension))
    if on_graph:
        z = np.asarray(u.value(base), dtype=float)
    else:
        z = rng.uniform(-1.0, 1.0, size=trials)
    worst = 0.0
    for b, zz in zip(base, z):
        x = np.concatenate([b, [zz]])
        worst = max(worst, abs(calibration.closedness_residual(u, dens, x)))
    return worst


def run_verify(tolerance: float, only: str, seed: int) -> dict:
    checks = []
    if only in ("all", "catalog"):
        report = catalog.verify_catalog(tolerance)
        for r in report.results:
            checks.append(
                {
                    "group": "catalog",
                    "name": r["name"],
                    "residual": r["residual"],
                    "pass": r["pass"],
                }
            )
    if only in ("all", "calibration"):
        for name, u, dens, on_graph in _calibration_presets():
            residual = closedness_suite(u, dens, 100, seed, on_graph)
            checks.append(
                {
                    "group": "calibration",
                    "name": f"closedness:{name}",
                    "residual": residual,
                    "pass": bool(residual <= tolerance),
                }
            )
            comass = calibration.comass_check(u, trials=10_000, seed=seed)
            excess = max(0.0, comass - 1.0)
            checks.append(
                {
                    "group": "calibration",
                    "name": f"comass:{name}",
                    "residual": excess,
                    "pass": bool(excess <= max(tolerance, 1e-12)),
                }
            )
    if only in ("all", "identity"):
        residual = graph.tangent_distance_suite(trials=100, seed=seed)
        checks.append(
            {
                "group": "identity",
                "name": "tangent_distance_identity",
                "residual": residual,
                "pass": bool(residual <= tolerance),
            }
        )
    return {
        "tolerance": tolerance,
        "seed": seed,
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
    }


def _cmd_verify(ns: dict) -> int:
    report = run_verify(ns["tolerance"], ns["only"], ns["seed"])
    _write(_json_text(report), ns["out"])
    if not report["overall_pass"]:
        failures = [c["name"] for c in report["checks"] if not c["pass"]]
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
    return EXIT_OK if report["overall_pass"] else EXIT_CHECK_FAILED


# -------------------------------------------------------------------- bound

def _cmd_bound(ns: dict) -> int:
    n = int(ns["n"])
    if not 1 <= n <= 3:
        raise UsageError("bound supports n in {1, 2, 3}")
    if ns["steps"] < 1 or ns["rmax"] < ns["rmin"]:
        raise UsageError("bad radius range")
    radii = np.linspace(ns["rmin"], ns["rmax"], int(ns["steps"]))
    rows = measure.bound_sweep(n, radii)
    text = measure.VolumeBoundReport.CSV_HEADER + "\n"
    text += "".join(r.csv_row() + "\n" for r in rows)
    _write(text, ns["out"])
    return EXIT_OK


# --------------------------------------------------------------------- flow

def _cmd_flow(ns: dict) -> int:
    n = int(ns["n"])
    if n not in (1, 2):
        raise UsageError("flow supports n in {1, 2}")
    dens = horizontal_gaussian(n)
    fld = flow.initial_field(n, ns["L"], int(ns["grid"]), ns["init"], ns["seed"])
    state = flow.initial_state(fld, dens)
    result = flow.flow_run(state, dens, ns["tmax"], ns["osc_tol"], ns["hf_tol"])
    series = "t,weighted_area,oscillation,max_abs_hf\n"
    series += "".join(
        f"{t:.17g},{a:.17g},{o:.17g},{m:.17g}\n" for t, a, o, m in result.state.history
    )
    _write(series, ns["out"])
    values = result.state.field.values
    if n == 1:
        field_text = "x,u\n" + "".join(
            f"{x:.17g},{v:.17g}\n" for x, v in zip(result.state.field.axis(), values)
        )
    else:
        field_text = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values)
    _write(field_text, ns["field_out"])
    if result.verdict == flow.VERDICT_CONVERGED:
        print(f"verdict: {result.verdict} (constant {result.limit_constant:.6g}, t = {result.state.time:.6g})")
    else:
        print(f"verdict: {result.verdict} (t = {result.state.time:.6g})")
    return EXIT_RUNTIME if result.verdict == flow.VERDICT_STEP_FAILURE else EXIT_OK


# ---------------------------------------------------------------- curvature

def _resolve_surface(ns: dict):
    """Returns (kind, object, density, chart point) for the curvature command."""
    params = _parse_params(ns["params"])
    at = np.array([float(v) for v in ns["at"].split(",")]) if ns["at"] else np.zeros(2)
    name = ns["surface"]
    if name == "cylinder":
        entry = catalog.make_cylinder(float(params.get("r", 1.0)))
        surf, dens = entry.surface, entry.density
    elif name == "plane":
        normal = [float(v) for v in params.get("normal", "1:0:0").split(":")]
        entry = catalog.make_plane(normal, float(params.get("offset", 0.0)))
        surf, dens = entry.surface, entry.density
    elif name == "horizontal_plane":
        prof = profile_from_name(params["profile"]) if "profile" in params else None
        entry = catalog.make_horizontal_plane(float(params.get("a", 0.0)), prof)
        surf, dens = entry.surface, entry.density
    elif name == "associate":
        surf = catalog.make_associate_family(float(params.get("theta", 0.0)))
        dens = horizontal_gaussian(2)
    elif name == "graph":
        n = int(params.get("n", 2))
        presets = graph.graph_presets(n, seed=int(params.get("seed", DEFAULT_SEED)))
        try:
            surf = presets[params.get("preset", "parabola")]
        except KeyError:
            raise UsageError(f"unknown graph preset '{params.get('preset')}'")
        dens = horizontal_gaussian(n)
        at = at if ns["at"] else np.zeros(n)
    else:
        raise UsageError(f"unknown surface '{name}'")
    if ns.get("density"):
        dens = density_from_name(ns["density"], dens.dimension)
    return surf, dens, at


def _cmd_curvature(ns: dict) -> int:
    surf, dens, at = _resolve_surface(ns)
    if isinstance(surf, GraphFunction):
        rep = graph.graph_weighted_mean_curvature(surf, dens, at)
        label = f"graph:{surf.name}"
    else:
        rep = weighted_mean_curvature(surf, dens, at)
        label = surf.name
    payload = {"surface": label, "report": rep.as_dict()}
    _write(_json_text(payload), ns["out"])
    return EXIT_OK


# ------------------------------------------------------------------- planes

def _cmd_planes(ns: dict) -> int:
    prof = profile_from_name(ns["profile"])
    scan = graph.horizontal_plane_roots(prof, (ns["lo"], ns["hi"]))
    payload = {
        "profile": ns["profile"],
        "interval": [ns["lo"], ns["hi"]],
        "roots": list(scan.roots),
        "identically_zero": scan.identically_zero,
    }
    if prof.name == "quad_log":
        payload["candidate_heights"] = graph.audit_root_candidates(
            prof, graph.QUAD_LOG_ROOT_CANDIDATES
        )
    _write(_json_text(payload), ns["out"])
    return EXIT_OK


# ------------------------------------------------------------------ measure

def _cmd_measure(ns: dict) -> int:
    n = int(ns["n"])
    R = float(ns["R"])
    quantity = ns["quantity"]
    payload: dict = {"quantity": quantity, "n": n}
    if quantity == "unit-ball":
        payload["value"] = measure.unit_ball_volume(n)
    elif quantity == "ball":
        payload["R"] = R
        payload["value"] = measure.gaussian_ball_volume(n, R)
        if ns["method"] == "monte_carlo":
            est, se = measure.gaussian_ball_volume_mc(n, R, int(ns["samples"]), ns["seed"])
            payload["monte_carlo"] = {"value": est, "stderr": se, "seed": ns["seed"]}
    elif quantity in ("sphere", "hemisphere"):
        payload["R"] = R
        spec = (
            measure.QuadratureSpec(
                method="monte_carlo", samples=int(ns["samples"]), seed=ns["seed"]
            )
            if ns["method"] == "monte_carlo"
            else None
        )
        payload["value"] = measure.weighted_sphere_area(
            horizontal_gaussian(n), n, R, upper_half=quantity == "hemisphere", quad=spec
        )
    elif quantity == "cap":
        payload["R"] = R
        presets = graph.graph_presets(n, seed=ns["seed"])
        try:
            u = presets[ns["init"]]
        except KeyError:
            raise UsageError(f"unknown graph preset '{ns['init']}'")
        method = "spherical_product" if ns["method"] == "quadrature" else "monte_carlo"
        spec = measure.QuadratureSpec(
            method=method, samples=int(ns["samples"]), seed=ns["seed"]
        )
        payload["graph"] = ns["init"]
        payload["value"] = measure.graph_cap_weighted_area(u, R, spec)
    else:
        raise UsageError(f"unknown quantity '{quantity}'")
    _write(_json_text(payload), ns["out"])
    return EXIT_OK


# --------------------------------------------------------------------- main

def _check_ranges(ns: dict) -> None:
    """Usage checks shared by every command: a dimension n >= 1 and finite,
    non-negative radii."""
    if "n" in ns and int(ns["n"]) < 1:
        raise UsageError("dimension n must be >= 1")
    for key in ("R", "rmin", "rmax"):
        if key in ns and not 0.0 <= float(ns[key]) < math.inf:
            raise UsageError(f"{key} must be finite and non-negative, got {ns[key]}")


_DEFAULTS: dict[str, dict] = {
    "verify": {"tolerance": 1e-5, "only": "all", "out": None, "seed": DEFAULT_SEED},
    "bound": {"n": 2, "rmin": 0.5, "rmax": 6.0, "steps": 12, "out": None},
    "flow": {
        "n": 1,
        "L": 4.0,
        "grid": 257,
        "init": "sinusoid",
        "tmax": 50.0,
        "osc_tol": 0.005,
        "hf_tol": 0.005,
        "seed": DEFAULT_SEED,
        "out": None,
        "field_out": None,
    },
    "curvature": {"surface": "cylinder", "params": [], "at": "", "density": None, "out": None},
    "planes": {"profile": "quad_log", "lo": 0.0, "hi": 2.0, "out": None},
    "measure": {
        "quantity": "ball",
        "n": 2,
        "R": 1.0,
        "method": "quadrature",
        "samples": 1_000_000,
        "seed": DEFAULT_SEED,
        "init": "constant",
        "out": None,
    },
}

_HANDLERS = {
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "flow": _cmd_flow,
    "curvature": _cmd_curvature,
    "planes": _cmd_planes,
    "measure": _cmd_measure,
}


def _build_parser() -> _Parser:
    sup = argparse.SUPPRESS
    parser = _Parser(prog="gaussmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run catalog, calibration and distance-identity checks")
    p.add_argument("--tolerance", type=float, default=sup)
    p.add_argument("--only", choices=["all", "catalog", "calibration", "identity"], default=sup)
    p.add_argument("--out", default=sup)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=sup)

    p = sub.add_parser("bound", help="CSV sweep of the volume-growth report")
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--rmin", type=float, default=sup)
    p.add_argument("--rmax", type=float, default=sup)
    p.add_argument("--steps", type=int, default=sup)
    p.add_argument("--out", default=sup)

    p = sub.add_parser("flow", help="weighted mean-curvature flow run")
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--L", type=float, default=sup)
    p.add_argument("--grid", type=int, default=sup)
    p.add_argument("--init", default=sup)
    p.add_argument("--tmax", type=float, default=sup)
    p.add_argument("--osc-tol", dest="osc_tol", type=float, default=sup)
    p.add_argument("--hf-tol", dest="hf_tol", type=float, default=sup)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=sup)
    p.add_argument("--out", default=sup)
    p.add_argument("--field-out", dest="field_out", default=sup)

    p = sub.add_parser("curvature", help="single-point weighted curvature report")
    p.add_argument("--surface", default=sup)
    p.add_argument("--params", action="append", default=sup)
    p.add_argument("--at", default=sup)
    p.add_argument("--density", default=sup)
    p.add_argument("--out", default=sup)

    p = sub.add_parser("planes", help="roots of the profile slope (stationary horizontal planes)")
    p.add_argument("--profile", default=sup)
    p.add_argument("--lo", type=float, default=sup)
    p.add_argument("--hi", type=float, default=sup)
    p.add_argument("--out", default=sup)

    p = sub.add_parser("measure", help="Gaussian measure quantities")
    p.add_argument(
        "--quantity", choices=["unit-ball", "ball", "sphere", "hemisphere", "cap"], default=sup
    )
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--R", type=float, default=sup)
    p.add_argument("--method", choices=["quadrature", "monte_carlo"], default=sup)
    p.add_argument("--samples", type=int, default=sup)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=sup)
    p.add_argument("--init", default=sup)
    p.add_argument("--out", default=sup)

    for sp in sub.choices.values():
        sp.add_argument("--config", default=sup, help="JSON config file; flags override")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = vars(parser.parse_args(argv))
    command = ns.pop("command")
    config_path = ns.pop("config", None)
    merged = dict(_DEFAULTS[command])
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"gaussmin: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        unknown = set(loaded) - set(merged)
        if unknown:
            print(f"gaussmin: unknown config keys: {sorted(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        merged.update(loaded)
    merged.update(ns)
    try:
        _check_ranges(merged)
        return _HANDLERS[command](merged)
    except UsageError as exc:
        print(f"gaussmin: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"gaussmin: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
