"""Command-line entry point.

Subcommands: verify, bound, flow, curvature, planes, measure.  Outputs are
JSON or CSV with deterministic formatting, so identical configurations give
byte-identical files.  Exit codes: 0 all checks pass, 1 verification
failures, 2 runtime/step failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import calibration, catalog, flow, graph, measure
from .density import Density, density_from_name, profile_from_name, horizontal_gaussian
from .graph import GraphFunction
from .numtext import g17_rows
from .rng import DEFAULT_SEED, VERIFY_STREAMS, substream
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


def _finite(text, what: str, kind=float):
    """``text`` as a finite number of type ``kind``; UsageError otherwise."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{what} must be a finite number, got '{text}'")
    return value


def _checked(what: str, build, *args):
    """``build(*args)`` for a name or value given on the command line; the
    ValueError it raises for a bad one is a UsageError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _graph_preset(name: str, n: int, seed: int) -> GraphFunction:
    """The named graph preset, built alone, for n in {1, 2, 3}."""
    if not 1 <= n <= 3:
        raise UsageError(f"graph presets support n in {{1, 2, 3}}, got {n}")
    try:
        return graph.graph_preset(name, n, seed)
    except KeyError:
        raise UsageError(f"unknown graph preset '{name}'") from None


# ------------------------------------------------------------------- verify

def _calibration_presets() -> list[tuple[str, GraphFunction, Density, bool]]:
    """(name, graph, density, sample_on_graph) checked by the verify command."""
    presets = [(name, graph.graph_preset(name, 2), horizontal_gaussian(2), False)
               for name in ("constant", "linear", "sinusoid")]
    parabola = catalog.make_parabola_with_profile()
    return presets + [(parabola.name, parabola.surface, parabola.density, True)]


CLOSEDNESS_TRIALS = 100


def closedness_suite(u: GraphFunction, dens: Density, seed: int, on_graph: bool) -> float:
    """Max |closedness residual| over CLOSEDNESS_TRIALS seeded ambient sample
    points.

    For densities that depend on the vertical coordinate the identity holds
    on the graph itself, so sampling is restricted there.
    """
    rng = substream(seed, VERIFY_STREAMS["closedness"])
    x = calibration.ambient_samples(u, rng, CLOSEDNESS_TRIALS, on_graph)
    residuals = calibration.closedness_residual(u, dens, x)
    return float(np.max(np.abs(residuals), initial=0.0))


def _check(group: str, name: str, residual: float, ok: bool) -> dict:
    return {"group": group, "name": name, "residual": residual, "pass": bool(ok)}


def run_verify(tolerance: float, only: str, seed: int) -> dict:
    checks = []
    if only in ("all", "catalog"):
        for r in catalog.verify_catalog(tolerance):
            checks.append(_check("catalog", r["name"], r["residual"], r["pass"]))
    if only in ("all", "calibration"):
        for name, u, dens, on_graph in _calibration_presets():
            residual = closedness_suite(u, dens, seed, on_graph)
            ok = residual <= tolerance
            checks.append(_check("calibration", f"closedness:{name}", residual, ok))
            residual = calibration.comass_check(u, seed=seed)
            ok = residual <= max(tolerance, 1e-12)
            checks.append(_check("calibration", f"comass:{name}", residual, ok))
    if only in ("all", "identity"):
        residual = graph.tangent_distance_suite(seed=seed)
        ok = residual <= tolerance
        checks.append(_check("identity", "tangent_distance_identity", residual, ok))
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
    if ns["rmax"] < ns["rmin"]:
        raise UsageError("bad radius range")
    radii = np.linspace(ns["rmin"], ns["rmax"], ns["steps"])
    rows = measure.bound_sweep(ns["n"], radii)
    text = measure.VolumeBoundReport.CSV_HEADER + "\n"
    text += "".join(r.csv_row() + "\n" for r in rows)
    _write(text, ns["out"])
    return EXIT_OK


# --------------------------------------------------------------------- flow

def _cmd_flow(ns: dict) -> int:
    n = ns["n"]
    if n not in (1, 2, 3):
        raise UsageError("flow supports n in {1, 2, 3}")
    L, dx = ns["L"], 2.0 * ns["L"] / (ns["grid"] - 1)
    # |x|^2 and the box volume must be floats.  FLOW_DT/dx^2 <= 1/sqrt(eps) bounds
    # the first step's conditioning at dt = FLOW_DT, not at the ladder's FIRST_DT;
    # it is kept, not re-derived, as the set of boxes accepted: below it the
    # grid-3 sinusoid at L = 1e-15 overflows its area on the ladder
    finite = n * L * L < math.inf and 2.0 * L < sys.float_info.max ** (1.0 / n)
    if not (finite and dx * dx / math.sqrt(sys.float_info.epsilon) >= flow.FLOW_DT):
        raise UsageError(f"--L {L:g} on --grid {ns['grid']}: needs finite n L^2 and (2L)^n, FLOW_DT/dx^2 <= 6.7e7")
    fld = _checked("--init", flow.initial_field, n, L, ns["grid"], ns["init"], ns["seed"])
    state = flow.initial_state(fld)
    result = flow.flow_run(state, ns["tmax"], ns["osc_tol"], ns["hf_tol"])
    series = g17_rows(np.array(result.state.history))
    _write("t,weighted_area,oscillation,max_abs_hf\n" + series, ns["out"])
    values = result.state.field.values
    if n == 1:
        field_text = "x,u\n" + g17_rows(np.column_stack([result.state.field.axis(), values]))
    else:  # one line per row along the last axis, in C order
        field_text = g17_rows(values.reshape(-1, values.shape[-1]))
    _write(field_text, ns["field_out"])
    if result.verdict == flow.VERDICT_CONVERGED:
        print(f"verdict: {result.verdict} (constant {result.limit_constant:.6g}, t = {result.state.time:.6g})")
    else:
        print(f"verdict: {result.verdict} (t = {result.state.time:.6g})")
    return EXIT_RUNTIME if result.verdict == flow.VERDICT_STEP_FAILURE else EXIT_OK


# ---------------------------------------------------------------- curvature

def _chart_point(text: str, dim: int) -> np.ndarray:
    """The --at chart point: ``dim`` finite comma-separated numbers, or the
    origin when empty."""
    at = np.array([_finite(v, "--at") for v in text.split(",")]) if text else np.zeros(dim)
    if at.shape != (dim,):
        raise UsageError(f"--at needs {dim} finite comma-separated numbers, got '{text}'")
    return at


# surface -> the --params keys it takes
_SURFACE_PARAMS = {
    "cylinder": ["r"], "plane": ["normal", "offset"], "horizontal_plane": ["a", "profile"],
    "associate": ["theta"], "graph": ["n", "preset", "seed"],
}


def _resolve_surface(ns: dict):
    """Returns (surface, density, chart point) for the curvature command."""
    params = _parse_params(ns["params"])
    name = ns["surface"]
    if name not in _SURFACE_PARAMS:
        raise UsageError(f"unknown surface '{name}'")
    takes = _SURFACE_PARAMS[name]
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise UsageError(f"unknown --params keys {unknown}: surface '{name}' takes {takes}")

    def number(key: str, default, kind=float):
        return _finite(params.get(key, default), f"--params {key}", kind)

    if name == "cylinder":
        entry = _checked("--params r", catalog.make_cylinder, number("r", 1.0))
        surf, dens = entry.surface, entry.density
    elif name == "plane":
        normal = [_finite(v, "--params normal") for v in params.get("normal", "1:0:0").split(":")]
        entry = _checked("--params normal", catalog.make_plane, normal, number("offset", 0.0))
        surf, dens = entry.surface, entry.density
    elif name == "horizontal_plane":
        prof = None
        if "profile" in params:
            prof = _checked("--params profile", profile_from_name, params["profile"])
        entry = _checked("--params a", catalog.make_horizontal_plane, number("a", 0.0), prof)
        surf, dens = entry.surface, entry.density
    elif name == "associate":
        surf = catalog.make_associate_family(number("theta", 0.0))
        dens = horizontal_gaussian(2)
    else:  # "graph"
        n = number("n", 2, int)
        surf = _graph_preset(params.get("preset", "parabola"), n, number("seed", DEFAULT_SEED, int))
        dens = horizontal_gaussian(n)
    if ns.get("density"):
        dens = _checked("--density", density_from_name, ns["density"], dens.dimension)
    dim = surf.dimension if isinstance(surf, GraphFunction) else surf.chart_dim
    return surf, dens, _chart_point(ns["at"], dim)


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
    prof = _checked("--profile", profile_from_name, ns["profile"])
    if not ns["hi"] > ns["lo"]:
        raise UsageError(f"--hi must exceed --lo, got [{ns['lo']}, {ns['hi']}]")
    scan = _checked("--lo", graph.horizontal_plane_roots, prof, (ns["lo"], ns["hi"]))
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
    n, R = ns["n"], ns["R"]
    quantity = ns["quantity"]
    spec = measure.QuadratureSpec(method=ns["method"], samples=ns["samples"], seed=ns["seed"])
    payload: dict = {"quantity": quantity, "n": n}
    if quantity != "unit-ball":
        payload["R"] = R
    if quantity == "unit-ball":
        payload["value"] = measure.unit_ball_volume(n)
    elif quantity == "ball":
        payload["value"] = measure.gaussian_ball_volume(n, R)
        if spec.method == "monte_carlo":
            est, se = measure.gaussian_ball_volume_mc(n, R, spec.samples, spec.seed)
            payload["monte_carlo"] = {"value": est, "stderr": se, "seed": spec.seed}
    elif quantity in ("sphere", "hemisphere"):
        payload["value"] = measure.weighted_sphere_area(
            horizontal_gaussian(n), R, upper_half=quantity == "hemisphere", quad=spec
        )
    else:  # "cap", the last of the --quantity choices
        u = _graph_preset(ns["init"], n, ns["seed"])
        payload["graph"] = ns["init"]
        payload["value"] = measure.graph_cap_weighted_area(u, R, spec)
    _write(_json_text(payload), ns["out"])
    return EXIT_OK


# --------------------------------------------------------------------- main

# option -> (test of its value, what the test asks), for whichever command has it
_RANGES = {
    **dict.fromkeys(("n", "steps"), (lambda v: v >= 1, ">= 1")),
    "grid": (lambda v: v >= 3, ">= 3"),
    "samples": (lambda v: v >= 1_000, ">= 1000"),
    "L": (lambda v: 0.0 < v < math.inf, "finite and positive"),
    **dict.fromkeys(
        ("R", "rmin", "rmax", "tmax", "osc_tol", "hf_tol", "tolerance"),
        (lambda v: 0.0 <= v < math.inf, "finite and non-negative"),
    ),
    **dict.fromkeys(("lo", "hi"), (math.isfinite, "finite")),
}


def _check_ranges(ns: dict) -> None:
    """Usage checks shared by every command, one ``_RANGES`` row per option."""
    for key, (ok, requirement) in _RANGES.items():
        if key in ns and not ok(float(ns[key])):
            raise UsageError(f"{key} must be {requirement}, got {ns[key]}")


_SEED = (DEFAULT_SEED, lambda s: int(s, 0))  # any base: 7387 or 0x1cdb

# command -> (handler, help, {option: (default, type or list of choices)}).
# An option's flag is --option with '-' for '_'; the type ``list`` makes a
# repeatable flag.  Every command also takes --out (``_options``) and --config.
_COMMANDS: dict[str, tuple] = {
    "verify": (_cmd_verify, "run catalog, calibration and distance-identity checks", {
        "tolerance": (1e-5, float),
        "only": ("all", ["all", "catalog", "calibration", "identity"]),
        "seed": _SEED,
    }),
    "bound": (_cmd_bound, "CSV sweep of the volume-growth report", {
        "n": (2, int), "rmin": (0.5, float), "rmax": (6.0, float), "steps": (12, int),
    }),
    # tmax bounds pseudo-time, which the dt ladder doubles each step from
    # FIRST_DT = 100: 1e6 admits 14 steps, and the L = 100 boxes tried need up to 9
    "flow": (_cmd_flow, "weighted mean-curvature flow run", {
        "n": (1, int), "L": (4.0, float), "grid": (257, int), "init": ("sinusoid", str),
        "tmax": (1e6, float), "osc_tol": (0.005, float), "hf_tol": (0.005, float),
        "seed": _SEED, "field_out": (None, str),
    }),
    "curvature": (_cmd_curvature, "single-point weighted curvature report", {
        "surface": ("cylinder", str), "params": ((), list), "at": ("", str), "density": (None, str),
    }),
    "planes": (_cmd_planes, "roots of the profile slope (stationary horizontal planes)", {
        "profile": ("quad_log", str), "lo": (0.0, float), "hi": (2.0, float),
    }),
    "measure": (_cmd_measure, "Gaussian measure quantities", {
        "quantity": ("ball", ["unit-ball", "ball", "sphere", "hemisphere", "cap"]),
        "n": (2, int), "R": (1.0, float), "method": ("quadrature", ["quadrature", "monte_carlo"]),
        "samples": (1_000_000, int), "seed": _SEED, "init": ("constant", str),
    }),
}


def _options(command: str) -> dict:
    """The command's ``_COMMANDS`` options with --out; the config file keys."""
    return {**_COMMANDS[command][2], "out": (None, str)}


@functools.cache  # one parser per process; handlers are looked up per call
def _build_parser() -> _Parser:
    sup = argparse.SUPPRESS
    parser = _Parser(prog="gaussmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (_, kind) in _options(command).items():
            if kind is list:
                how = {"action": "append"}
            elif isinstance(kind, list):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=sup, **how)
        p.add_argument("--config", default=sup, help="JSON config file; flags override")
    return parser


def _read_config(path: str, options: dict) -> dict:
    """The config file's values, each converted and checked by its option's
    type or choices, as its text would be on the command line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    if not isinstance(loaded, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(loaded) - set(options)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in loaded.items():
        kind = options[key][1]
        if kind is list:
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise UsageError(f"config {key} must be a list of strings")
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config {key} must be a string or a number, got {json.dumps(value)}")
        if isinstance(kind, list):
            if str(value) not in kind:
                raise UsageError(f"config {key} must be one of {kind}, got {json.dumps(value)}")
            kind = str
        try:
            loaded[key] = kind(str(value))
        except ValueError:
            raise UsageError(f"config {key}: invalid value {json.dumps(value)}") from None
    return loaded


def _attach_values(argv: Sequence[str]) -> list[str]:
    """argv with each ``--flag value`` written ``--flag=value``: every option
    takes one value, and argparse reads a value such as -1e-3 or -1,0.5 as a
    flag.  Flags match in full or, as in argparse, by a unique prefix."""
    keys = [*_options(argv[0]), "config"] if argv and argv[0] in _COMMANDS else []
    flags = ["--" + key.replace("_", "-") for key in keys]
    out, rest = list(argv[:1]), iter(argv[1:])
    for arg in rest:
        named = arg in flags or [f.startswith(arg) for f in flags].count(True) == 1
        value = next(rest, None) if named else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = vars(_build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    command = ns.pop("command")
    config_path = ns.pop("config", None)
    options = _options(command)
    merged = {key: default for key, (default, _) in options.items()}
    try:
        if config_path:
            merged.update(_read_config(config_path, options))
        merged.update(ns)  # a flag replaces its config value; --params too
        _check_ranges(merged)
        return _COMMANDS[command][0](merged)
    except UsageError as exc:
        print(f"gaussmin: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader closed an output early: end quietly
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # stdout itself: keep the exit-time flush from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"gaussmin: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
