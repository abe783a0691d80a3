"""Tracing from the benchmark's side: wrap gaussmin's public functions and methods
where their callers look them up, time every call, and derive the per-layer
metrics of the benchmark.

Every wrapped call pushes a frame on one stack, so a call's self time is its
duration minus the time its wrapped children took.  Calls at layer
boundaries (the CLI op, catalog entries, measure queries, flow runs) are
also kept as spans with name, start, end, parent span and op id; hot leaf
calls (flow steps, density and surface evaluations) are only aggregated
into per-op counters, which keeps the tracing overhead low.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child_seconds, span index, name]
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = defaultdict(float)
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.total_counts: dict[str, float] = defaultdict(float)
        self.per_op: list[dict] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def wrap(self, name: str, fn, span: bool = False, extra=None):
        """A timed stand-in for ``fn``.  ``extra(counts, args, kwargs, result,
        parent)`` adds layer counters after a call that returned."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, counts, clock = self.stack, self.spans, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = -1
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.op])
            frame = [0.0, index, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                if span:
                    spans[index][1], spans[index][2] = t0, t1
            if extra is not None:
                extra(counts, args, kwargs, result, stack[-1][2] if stack else None)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, span: bool = False, extra=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, span, extra))

    def share(self, namespaces, attr: str, name: str, fn=None) -> None:
        """Wrap a function (``fn``, or the one the first namespace holds) once
        and install it in every module that imported it by name."""
        wrapped = self.wrap(name, fn or getattr(namespaces[0], attr))
        for mod in namespaces:
            self._patched.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def end_op(self, extra_counts: dict) -> None:
        self.counts.update(extra_counts)
        for name, (calls, secs, self_secs) in self.stats.items():
            t = self.totals[name]
            t[0] += calls
            t[1] += secs
            t[2] += self_secs
        for key, val in self.counts.items():
            self.total_counts[key] += val
        self.per_op.append(
            {"op": self.op, "calls": {k: v[0] for k, v in self.stats.items() if v[0]},
             "counts": dict(self.counts)}
        )

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    # ------------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap gaussmin's public entry points in every namespace that looks
        them up.  ``gaussmin/`` itself is not modified."""
        from gaussmin import calibration, catalog, cli, density, flow, graph, measure, rng, surface

        def points(counts, args, kwargs, result, parent):
            counts["density.points"] += math.prod(np.shape(args[1])[:-1])

        self.patch(density.Density, "log_weight", "density.log_weight", extra=points)
        self.patch(density.Density, "grad_log_weight", "density.grad_log_weight", extra=points)

        self.patch(surface.ParametricSurface, "partials", "surface.partials")
        self.patch(surface.ParametricSurface, "hessian", "surface.hessian")
        self.patch(surface, "generalized_cross", "surface.generalized_cross")
        self.share((surface, catalog, cli), "weighted_mean_curvature", "surface.weighted_mean_curvature")

        for meth in ("value", "gradient", "hessian"):
            self.patch(graph.GraphFunction, meth, f"graph.{meth}")
        self.share((graph, catalog, calibration), "graph_curvature_samples", "graph.graph_curvature_samples")
        self.patch(graph, "tangent_distance_suite", "graph.tangent_distance_suite", span=True)
        self.patch(graph, "graph_presets", "graph.graph_presets", span=True)

        def entry_points(counts, args, kwargs, result, parent):
            entry = args[0]
            per_axis = args[2] if len(args) > 2 else kwargs.get("per_axis", 21)
            dim = getattr(entry.surface, "chart_dim", None) or entry.surface.dimension
            counts["catalog.points"] += per_axis**dim

        self.patch(catalog, "verify_catalog", "catalog.verify_catalog", span=True)
        self.patch(catalog, "verify_entry", "catalog.verify_entry", span=True, extra=entry_points)

        self.patch(calibration, "closedness_residual", "calibration.closedness_residual")
        self.patch(calibration, "comass_check", "calibration.comass_check", span=True)

        self._install_rng(rng, (rng, measure, graph, calibration, cli))
        self._install_measure(measure)

        def step(counts, args, kwargs, result, parent):
            counts["flow.steps"] += 1
            counts["flow.nodes"] += result.field.values.size

        def area(counts, args, kwargs, result, parent):
            if parent == "flow.flow_step":
                counts["flow.attempts"] += 1

        self.patch(flow, "flow_step", "flow.flow_step", extra=step)
        self.patch(flow, "grid_weighted_mean_curvature", "flow.grid_weighted_mean_curvature")
        self.patch(flow, "weighted_area", "flow.weighted_area", extra=area)
        for fn in ("initial_field", "initial_state", "flow_run"):
            self.patch(flow, fn, f"flow.{fn}", span=True)

        self.patch(cli, "main", "cli.main", span=True)

    def _install_rng(self, rng, namespaces) -> None:
        def draws(counts, args, kwargs, result, parent):
            counts["rng.normals"] += np.size(result)

        normal = self.wrap("rng.standard_normal", lambda gen, *a, **k: gen.standard_normal(*a, **k),
                           extra=draws)

        class CountingGenerator:
            """Delegates to the Philox generator; counts normal draws."""

            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, *args, **kwargs):
                return normal(self._gen, *args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        original = rng.substream
        self.share(namespaces, "substream", "rng.substream",
                   lambda *args, **kwargs: CountingGenerator(original(*args, **kwargs)))

    def _install_measure(self, measure) -> None:
        def nodes(counts, args, kwargs, result, parent):
            counts["measure.quad_nodes"] += len(result[1])

        def mc(fn):
            sig = inspect.signature(fn)

            def count(counts, args, kwargs, result, parent):
                counts["measure.mc_samples"] += sig.bind(*args, **kwargs).arguments.get(
                    "samples", sig.parameters["samples"].default)

            return count

        for name in ("ball_quadrature", "sphere_quadrature"):
            self.patch(measure, name, f"measure.{name}", span=True, extra=nodes)
        for name in ("gaussian_mc_mean", "weighted_sphere_area_mc"):
            self.patch(measure, name, f"measure.{name}", span=True, extra=mc(getattr(measure, name)))
        for name in ("bound_sweep", "volume_bound_report", "graph_cap_weighted_area",
                     "weighted_sphere_area", "gaussian_ball_volume", "gaussian_ball_volume_mc"):
            self.patch(measure, name, f"measure.{name}", span=True)


# ------------------------------------------------------------------ metrics

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("import.gaussmin_ms", "ms"),
    ("import.scipy_optimize_ms", "ms"),
    ("import.scipy_special_ms", "ms"),
    ("cli.self_ms", "ms/op"),
    ("cli.out_bytes", "bytes/op"),
    ("catalog.verify_ms", "ms"),
    ("catalog.points", "count/op"),
    ("catalog.points_per_s", "1/s"),
    ("surface.wmc_calls", "count/op"),
    ("surface.wmc_us", "us"),
    ("surface.partials_calls", "count/op"),
    ("surface.hessian_calls", "count/op"),
    ("surface.cross_calls", "count/op"),
    ("calibration.closedness_calls", "count/op"),
    ("calibration.closedness_us", "us"),
    ("calibration.comass_ms", "ms"),
    ("graph.curvature_samples_calls", "count/op"),
    ("graph.curvature_samples_us", "us"),
    ("graph.tangent_suite_ms", "ms"),
    ("density.log_weight_calls", "count/op"),
    ("density.grad_calls", "count/op"),
    ("density.points_per_call", "points"),
    ("density.self_ms", "ms/op"),
    ("rng.substream_calls", "count/op"),
    ("rng.normals_per_s", "1/s"),
    ("measure.quad_nodes", "count/op"),
    ("measure.node_build_ms", "ms/op"),
    ("measure.mc_samples", "count/op"),
    ("measure.mc_samples_per_s", "1/s"),
    ("measure.bound_row_ms", "ms"),
    ("measure.cap_ms", "ms"),
    ("flow.steps", "count/op"),
    ("flow.attempts", "count/op"),
    ("flow.accept_ratio", "ratio"),
    ("flow.step_us", "us"),
    ("flow.step_self_us", "us"),
    ("flow.grid_hf_us", "us"),
    ("flow.area_us", "us"),
    ("flow.nodes_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer values from the traced ops; a layer that never ran reads 0.
    ``import.*``, ``cli.out_bytes`` and ``trace.overhead_ratio`` are filled
    by the caller."""
    t, c = tracer.totals, tracer.total_counts

    def calls(name):
        return t[name][0]

    def per_op(name):
        return calls(name) / ops

    def per_call(name, scale):
        return _ratio(t[name][1], calls(name)) * scale

    step = t["flow.flow_step"]
    mc_time = t["measure.gaussian_mc_mean"][1] + t["measure.weighted_sphere_area_mc"][1]
    density_self = t["density.log_weight"][2] + t["density.grad_log_weight"][2]
    density_calls = calls("density.log_weight") + calls("density.grad_log_weight")
    return {
        "cli.self_ms": t["cli.main"][2] / ops * 1e3,
        "catalog.verify_ms": per_call("catalog.verify_catalog", 1e3),
        "catalog.points": c["catalog.points"] / ops,
        "catalog.points_per_s": _ratio(c["catalog.points"], t["catalog.verify_catalog"][1]),
        "surface.wmc_calls": per_op("surface.weighted_mean_curvature"),
        "surface.wmc_us": per_call("surface.weighted_mean_curvature", 1e6),
        "surface.partials_calls": per_op("surface.partials"),
        "surface.hessian_calls": per_op("surface.hessian"),
        "surface.cross_calls": per_op("surface.generalized_cross"),
        "calibration.closedness_calls": per_op("calibration.closedness_residual"),
        "calibration.closedness_us": per_call("calibration.closedness_residual", 1e6),
        "calibration.comass_ms": per_call("calibration.comass_check", 1e3),
        "graph.curvature_samples_calls": per_op("graph.graph_curvature_samples"),
        "graph.curvature_samples_us": per_call("graph.graph_curvature_samples", 1e6),
        "graph.tangent_suite_ms": per_call("graph.tangent_distance_suite", 1e3),
        "density.log_weight_calls": per_op("density.log_weight"),
        "density.grad_calls": per_op("density.grad_log_weight"),
        "density.points_per_call": _ratio(c["density.points"], density_calls),
        "density.self_ms": density_self / ops * 1e3,
        "rng.substream_calls": per_op("rng.substream"),
        "rng.normals_per_s": _ratio(c["rng.normals"], t["rng.standard_normal"][1]),
        "measure.quad_nodes": c["measure.quad_nodes"] / ops,
        "measure.node_build_ms": (t["measure.ball_quadrature"][1] + t["measure.sphere_quadrature"][1])
        / ops * 1e3,
        "measure.mc_samples": c["measure.mc_samples"] / ops,
        "measure.mc_samples_per_s": _ratio(c["measure.mc_samples"], mc_time),
        "measure.bound_row_ms": per_call("measure.volume_bound_report", 1e3),
        "measure.cap_ms": per_call("measure.graph_cap_weighted_area", 1e3),
        "flow.steps": c["flow.steps"] / ops,
        "flow.attempts": c["flow.attempts"] / ops,
        "flow.accept_ratio": _ratio(c["flow.steps"], c["flow.attempts"]),
        "flow.step_us": _ratio(step[1], c["flow.steps"]) * 1e6,
        "flow.step_self_us": _ratio(step[2], c["flow.steps"]) * 1e6,
        "flow.grid_hf_us": per_call("flow.grid_weighted_mean_curvature", 1e6),
        "flow.area_us": per_call("flow.weighted_area", 1e6),
        "flow.nodes_per_s": _ratio(c["flow.nodes"], step[1]),
    }
