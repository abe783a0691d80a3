"""Workload process of the gaussmin benchmark.

Runs one workload's ops in this process, one caller in a closed loop: each
op is a call of ``gaussmin.cli.main(argv)`` that writes its ``--out`` files
into a scratch directory, and the next op starts when it returns.  Every op
is checked, outside its timed interval, by ``workloads.check``.

Prints one JSON object on its last stdout line.  Modes:

* ``--setup-only``: import gaussmin and generate the inputs, then report
  the ``time.monotonic()`` at which it was ready;
* default: run whole cycles for about ``--seconds`` and report every op's
  latency and check result;
* ``--trace``: run cycle 0 untraced and then traced the same number of
  times, and report the per-layer metrics of the traced ops.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


class Runner:
    """Runs and checks ops; keeps each distinct op's reference."""

    def __init__(self, workdir: Path):
        self.out = workdir / "out"
        self.field = workdir / "field"
        self.refs: dict = {}
        self.sampler = None  # a speed.Sampler whose probe time is taken out of latencies
        self.windows: list[tuple[float, float]] = []  # perf_counter() span of each sampled op

    def prepare(self, ops) -> None:
        for op in ops:
            if op.argv not in self.refs:
                self.refs[op.argv] = workloads.reference(op)

    def run(self, op) -> tuple[float, str | None, int]:
        """(latency in seconds, failure reason or None, output bytes)."""
        from gaussmin import cli

        for path in (self.out, self.field):
            path.unlink(missing_ok=True)
        argv = op.materialize(str(self.out), str(self.field))
        stdout, stderr = io.StringIO(), io.StringIO()
        probed = self.sampler.spent if self.sampler else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            rc = f"raised {exc!r}"
        t1 = time.perf_counter()
        latency = t1 - t0
        if self.sampler:
            latency -= self.sampler.spent - probed
            self.windows.append((t0, t1))
        out = self.out.read_text(encoding="utf-8") if self.out.exists() else ""
        field = self.field.read_text(encoding="utf-8") if self.field.exists() else ""
        failure = workloads.check(op, rc, out, stdout.getvalue(), field, self.refs[op.argv])
        if failure is not None and stderr.getvalue():
            failure += " | stderr: " + stderr.getvalue().strip()[:200]
        nbytes = len(out.encode()) + len(field.encode()) + len(stdout.getvalue().encode())
        return latency, failure, nbytes


def _summary(records) -> dict:
    failures = [f for _, f, _ in records if f is not None]
    return {
        "latencies": [lat for lat, _, _ in records],
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
    }


def timed_run(runner: Runner, workload: str, seed: int, seconds: float, first, smoke: bool) -> dict:
    """Whole cycles, each with fresh seeded inputs, while the next cycle is
    expected to end within ``seconds``; at least one cycle.  The speed
    probe samples the machine throughout."""
    records = []
    start = time.monotonic()
    index = 0
    with speed.Sampler() as sampler:
        runner.sampler = sampler
        while True:
            ops = first if index == 0 else workloads.cycle(workload, seed, index, smoke)
            runner.prepare(ops)
            records.extend(runner.run(op) for op in ops)
            index += 1
            elapsed = time.monotonic() - start
            if elapsed * (index + 1) / index > seconds:
                break
    runner.sampler = None
    slowness = [sampler.slowness(*window) for window in runner.windows]
    return {**_summary(records), "cycles": index, "probe": sampler.units, "slowness": slowness}


def traced_run(runner: Runner, workload: str, seed: int, seconds: float, ops) -> dict:
    """Cycle 0 untraced for about half of ``seconds``, then traced as many
    times; counts therefore repeat exactly for a given seed."""
    from tracing import Tracer, layer_metrics

    runner.prepare(ops)
    plain = []
    start = time.monotonic()
    reps = 0
    while True:
        plain.extend(runner.run(op) for op in ops)
        reps += 1
        if (time.monotonic() - start) * (reps + 1) / reps > seconds / 2:
            break
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for _ in range(reps):
            for op in ops:
                tracer.begin_op(len(traced))
                traced.append(runner.run(op))
                tracer.end_op({"cli.out_bytes": traced[-1][2]})
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(spans)
    n = len(traced)
    layers = layer_metrics(tracer, n)
    layers["cli.out_bytes"] = tracer.total_counts["cli.out_bytes"] / n
    layers["trace.overhead_ratio"] = sum(r[0] for r in traced) / sum(r[0] for r in plain)
    # counts of each op of one cycle, for comparison with hand counts
    per_op = [{"argv": " ".join(op.argv[:8]), **rec["counts"], "calls": rec["calls"]}
              for op, rec in zip(ops, tracer.per_op)]
    summary = _summary(plain + traced)
    return {**summary, "reps": reps, "layers": layers, "per_op": per_op,
            "spans": str(spans.relative_to(ROOT)), "span_count": len(tracer.spans)}


def blas_threads():
    """Thread count OpenBLAS reports from inside this process, or None."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import gaussmin.cli  # noqa: F401  (set-up cost is part of the measurement)

    first = workloads.cycle(args.workload, args.seed, 0, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        if args.trace:
            result = traced_run(runner, args.workload, args.seed, args.seconds, first)
        else:
            result = timed_run(runner, args.workload, args.seed, args.seconds, first, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready"] = ready
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["meta"] = metadata()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
