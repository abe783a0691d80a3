"""Workload definitions and output checks for the gaussmin benchmark.

A workload is an endless sequence of *cycles*; a cycle is a fixed pattern of
CLI invocations whose parameters (seeds, radii, initial graphs) are drawn
from ``(workload, seed, cycle index)``.  Runs execute whole cycles only, so
every run has the same mix of op kinds and the median and tail land on the
same kind of op from run to run.

Each op is checked against references recomputed here, independently of
the gaussmin code paths it exercises; a check returns ``None`` when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy import special

OUT = "{out}"
FIELD_OUT = "{field_out}"

MC_SAMPLES = 1_000_000
SMOKE_MC_SAMPLES = 20_000
MC_SIGMAS = 5.0
FLOW_OSC_TOL = 0.005  # gaussmin flow's default --osc-tol
AREA_RISE_MAX = 1e-12
REF_MC_SAMPLES = 1 << 17

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "verify_suite": "gaussmin verify with a new --seed per op: pointwise catalog, "
    "calibration and graph geometry in Python loops; flow and Monte Carlo barely run",
    "flow_2d": "flow --n 2 --grid 65, 2-3k steps on 4,225-node arrays: array "
    "throughput of the flow step dominates",
    "measure_sweep": "bound --n 3/--n 2 and 1M-sample Monte Carlo measure queries: "
    "quadrature node builds and large-array sampling; surface, catalog and flow idle",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its check needs to know."""

    kind: str
    argv: tuple[str, ...]
    params: dict

    def materialize(self, out: str, field_out: str) -> list[str]:
        return [out if a == OUT else field_out if a == FIELD_OUT else a for a in self.argv]


def _flow(rng: random.Random, n: int, grid: int, init: str) -> Op:
    seed = rng.randrange(1, 1 << 31)
    argv = ("flow", "--n", str(n), "--grid", str(grid), "--init", init,
            "--seed", str(seed), "--out", OUT, "--field-out", FIELD_OUT)
    return Op("flow", argv, {"n": n, "grid": grid, "init": init, "seed": seed})


def _bound(rng: random.Random, n: int, steps: int) -> Op:
    rmin = round(rng.uniform(0.25, 1.0), 6)
    rmax = round(rng.uniform(5.0, 7.0), 6)
    argv = ("bound", "--n", str(n), "--rmin", repr(rmin), "--rmax", repr(rmax),
            "--steps", str(steps), "--out", OUT)
    return Op("bound", argv, {"n": n, "rmin": rmin, "rmax": rmax, "steps": steps})


def _measure(rng: random.Random, quantity: str, n: int, samples: int, init: str = "constant") -> Op:
    R = round(rng.uniform(0.75, 3.0), 6)
    seed = rng.randrange(1, 1 << 31)
    argv = ("measure", "--quantity", quantity, "--n", str(n), "--R", repr(R),
            "--method", "monte_carlo", "--samples", str(samples), "--seed", str(seed),
            "--init", init, "--out", OUT)
    kind = f"measure_{quantity}" + ("" if quantity != "cap" else ("_flat" if init == "constant" else "_graph"))
    return Op(kind, argv, {"quantity": quantity, "n": n, "R": R, "samples": samples,
                           "seed": seed, "init": init})


def cycle(workload: str, seed: int, index: int, smoke: bool = False) -> list[Op]:
    """The ops of cycle ``index``.  ``smoke`` shrinks every op for the self-test."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "verify_suite":
        return [Op("verify", ("verify", "--seed", str(s), "--out", OUT), {"seed": s})
                for s in (rng.randrange(1, 1 << 31) for _ in range(3))]
    if workload == "flow_2d":
        grid = 17 if smoke else 65
        # two sinusoid ops per random bump: the median op is always a
        # sinusoid, whose step count does not depend on the seed
        return [_flow(rng, 2, grid, "sinusoid"), _flow(rng, 2, grid, "sinusoid"),
                _flow(rng, 2, grid, "random_bump")]
    if workload == "measure_sweep":
        samples = SMOKE_MC_SAMPLES if smoke else MC_SAMPLES
        steps = 3 if smoke else 12
        # nine ops per cycle: the median falls among the sinusoid caps and
        # the tail among the two random_bump caps, the slowest kind
        return [
            _bound(rng, 3, steps),
            _measure(rng, "cap", 2, samples, "random_bump"),
            _measure(rng, "ball", 3, samples),
            _measure(rng, "cap", 2, samples, "sinusoid"),
            _measure(rng, "cap", 2, samples, "constant"),
            _bound(rng, 2, steps),
            _measure(rng, "cap", 2, samples, "random_bump"),
            _measure(rng, "hemisphere", 2, samples),
            _measure(rng, "cap", 2, samples, "sinusoid"),
        ]
    raise ValueError(f"unknown workload '{workload}'")


# ------------------------------------------------------------------ references

def ball_mass(n: int, R: float) -> float:
    """Normalized Gaussian mass of B^n(0, R)."""
    return float(special.gammainc(n / 2.0, R * R / 2.0))


def unit_ball(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def exact_tail(n: int, R: float) -> float:
    """(2 pi)^{-n/2} e^{-R^2/2} n C_n R^n, the weighted lateral cylinder wall."""
    return (2.0 * math.pi) ** (-n / 2.0) * math.exp(-R * R / 2.0) * n * unit_ball(n) * R**n


def nominal_tail(n: int, R: float) -> float:
    return n * math.exp(-R * R) * unit_ball(n) * R ** (n - 1)


def hemisphere_moments(n: int, R: float) -> tuple[float, float]:
    """Weighted area of the upper half of S^n(0, R) in R^{n+1} under the
    horizontal Gaussian, and the integral of the squared weight over it.

    The projection x = R sin(t) w onto the horizontal R^n reduces both to
    one-dimensional integrals in the polar angle t.
    """
    from scipy import integrate

    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)  # |S^{n-1}|

    def moment(power: int) -> float:
        def f(t):
            r = R * math.sin(t)
            phi = (2.0 * math.pi) ** (-n / 2.0) * math.exp(-r * r / 2.0)
            return phi**power * math.sin(t) ** (n - 1)

        val, _ = integrate.quad(f, 0.0, math.pi / 2.0, epsabs=1e-15, epsrel=1e-13, limit=200)
        return sphere * R**n * val

    return moment(1), moment(2)


def hemisphere_reference(n: int, R: float, samples: int) -> tuple[float, float]:
    """(value, Monte Carlo standard error) for the upper hemisphere estimator
    that samples the full sphere uniformly and zeroes the lower half."""
    first, second = hemisphere_moments(n, R)
    area = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0) * R**n  # |S^n(R)|
    mean, mean_sq = first / area, second / area
    return first, area * math.sqrt(max(mean_sq - mean * mean, 0.0) / samples)


def cap_reference(n: int, R: float, init: str, seed: int, samples: int) -> tuple[float, float]:
    """Independent Monte Carlo estimate of the weighted graph cap area and the
    standard error the CLI's ``samples``-point estimate should have."""
    from gaussmin.graph import graph_presets

    u = graph_presets(n, seed=seed)[init]
    x = np.random.default_rng([seed, 1]).standard_normal((REF_MC_SAMPLES, n))
    g = np.asarray(u.gradient(x), dtype=float)
    du = np.asarray(u.value(x), dtype=float) - float(u.value(np.zeros(n)))
    v = np.sqrt(1.0 + np.sum(g * g, axis=-1)) * (np.sum(x * x, axis=-1) + du * du <= R * R)
    sd = float(np.std(v))
    return float(np.mean(v)), math.sqrt(sd * sd / REF_MC_SAMPLES + sd * sd / samples)


def reference(op: Op):
    """Precomputed reference for ``op``, or None when the check needs none."""
    p = op.params
    if op.kind == "measure_hemisphere":
        return hemisphere_reference(p["n"], p["R"], p["samples"])
    if op.kind == "measure_cap_graph":
        return cap_reference(p["n"], p["R"], p["init"], p["seed"], p["samples"])
    return None


# ---------------------------------------------------------------------- checks

def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(b), 1e-300)


def _within(value: float, ref: float, se: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= MC_SIGMAS * se


def check_verify(op: Op, out: str, stdout: str, field: str, ref):
    report = json.loads(out)
    if report.get("seed") != op.params["seed"]:
        return f"report seed {report.get('seed')} != {op.params['seed']}"
    groups = {c["group"] for c in report["checks"]}
    if groups != {"catalog", "calibration", "identity"}:
        return f"check groups {sorted(groups)}"
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    if failing or not report["overall_pass"]:
        return "failed checks: " + ",".join(failing)
    return None


def check_flow(op: Op, out: str, stdout: str, field: str, ref):
    if "verdict: converged_to_constant" not in stdout:
        return "verdict: " + stdout.strip()[:80]
    lines = out.splitlines()
    if lines[0] != "t,weighted_area,oscillation,max_abs_hf" or len(lines) < 2:
        return "bad series header"
    area = np.array([float(line.split(",")[1]) for line in lines[1:]])
    rise = float(np.max(np.diff(area), initial=0.0))
    if not np.all(np.isfinite(area)) or rise > AREA_RISE_MAX:
        return f"weighted area rose by {rise:.3g}"
    vals = np.array([[float(v) for v in r.split(",")] for r in field.splitlines()])  # the 2-D grid
    if vals.size != op.params["grid"] ** op.params["n"] or not np.all(np.isfinite(vals)):
        return f"final field has {vals.size} values"
    osc = float(np.max(vals) - np.min(vals))
    if osc > FLOW_OSC_TOL:
        return f"final oscillation {osc:.3g}"
    return None


def check_bound(op: Op, out: str, stdout: str, field: str, ref):
    p = op.params
    lines = out.splitlines()
    if lines[0] != "n,R,lhs,ball_term,nominal_tail,exact_tail,chain_ok":
        return "bad header"
    radii = np.linspace(p["rmin"], p["rmax"], p["steps"])
    if len(lines) - 1 != radii.size:
        return f"{len(lines) - 1} rows, expected {radii.size}"
    for line, R_expected in zip(lines[1:], radii):
        f = line.split(",")
        n, R, lhs, ball, nominal, exact = int(f[0]), *map(float, f[1:6])
        if n != p["n"] or not _close(R, float(R_expected), 1e-15):
            return f"row for n={n}, R={R}"
        if not _close(ball, ball_mass(n, R), 1e-13):
            return f"ball_term {ball!r} at R={R}"
        if not _close(exact, exact_tail(n, R), 1e-12):
            return f"exact_tail {exact!r} at R={R}"
        if not _close(nominal, nominal_tail(n, R), 1e-12):
            return f"nominal_tail {nominal!r} at R={R}"
        # default graph is the constant one, whose cap is exactly the ball
        if not abs(lhs - ball) <= 1e-9:
            return f"lhs {lhs!r} vs ball_term {ball!r} at R={R}"
    return None


def check_measure(op: Op, out: str, stdout: str, field: str, ref):
    p = op.params
    payload = json.loads(out)
    if payload.get("quantity") != p["quantity"] or payload.get("n") != p["n"] or payload.get("R") != p["R"]:
        return "payload does not echo the query"
    n, R, N = p["n"], p["R"], p["samples"]
    value = float(payload["value"])
    if op.kind == "measure_ball":
        mass = ball_mass(n, R)
        if not _close(value, mass, 1e-13):
            return f"closed-form value {value!r} vs {mass!r}"
        mc = payload["monte_carlo"]
        if mc["seed"] != p["seed"] or not _within(mc["value"], mass, math.sqrt(mass * (1 - mass) / N)):
            return f"monte carlo {mc['value']!r} vs {mass!r}"
    elif op.kind == "measure_cap_flat":
        mass = ball_mass(n, R)
        if not _within(value, mass, math.sqrt(mass * (1 - mass) / N)):
            return f"flat cap {value!r} vs ball mass {mass!r}"
    elif op.kind == "measure_hemisphere":
        target, se = ref
        if not _within(value, target, se):
            return f"hemisphere {value!r} vs {target!r} (se {se:.3g})"
    elif op.kind == "measure_cap_graph":
        target, se = ref
        if not _within(value, target, se):
            return f"cap {value!r} vs independent estimate {target!r} (se {se:.3g})"
    return None


_CHECKS = {"verify": check_verify, "flow": check_flow, "bound": check_bound}


def check(op: Op, rc, out: str, stdout: str, field: str, ref):
    """None when the op's exit code and outputs are right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    fn = _CHECKS.get(op.kind, check_measure)
    try:
        return fn(op, out, stdout, field, ref)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"
