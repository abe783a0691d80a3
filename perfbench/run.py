#!/usr/bin/env python3
"""gaussmin benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload verify_suite --seed 20131227 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median of three fresh interpreters that import gaussmin and generate the
inputs), then the workload in its own process for about ``--seconds``.
Times are scaled to the nominal speed of a probe unit timed throughout the
run (see speed.py), because the shared host's own speed drifts by tens of
percent; the unscaled figures are printed beside them.  ``--trace 1`` gives the per-layer metrics instead: ``-X importtime`` of
three fresh interpreters, then the workload's first cycle untraced and
traced.  Every op's output is checked; failed ops are counted, not hidden.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 whenever that line is printed, and 2 without it when the benchmark
itself cannot run (for example when ``src/gaussmin`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracing import LAYER_METRICS

DEFAULT_SEED = 20131227
HELD_OUT_SEED = 7387  # never used while the benchmark was tuned
IMPORT_PROBES = 3
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
IMPORTS = {"gaussmin": "import.gaussmin_ms", "scipy.optimize": "import.scipy_optimize_ms",
           "scipy.special": "import.scipy_special_ms"}


class BenchError(RuntimeError):
    pass


class Children:
    """Starts each child with the checkout's ``src`` on the path and a
    fixed BLAS thread count, and ends it before the run's time limit."""

    def __init__(self, src: Path):
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        try:
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {args[:3]}") from exc
        if proc.returncode != 0:
            raise BenchError(f"child {args[:3]} exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
        return proc

    def worker(self, args: list[str]) -> tuple[float, dict]:
        """(monotonic start time, the worker's JSON result)."""
        start = time.monotonic()
        proc = self.run([str(WORKER), *args])
        return start, json.loads(proc.stdout.strip().splitlines()[-1])


def package_import_ms(importtime: str, package: str) -> float:
    """Cumulative ``-X importtime`` milliseconds spent importing ``package``
    and its submodules: the sum over the outermost matching entries.  (A
    package that scipy loads lazily has no line of its own, only its
    submodules do.)  0 when nothing of the package was imported."""
    entries = []
    for line in importtime.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, module = line.split("|")
            if cumulative.strip().isdigit():
                name = module.rstrip()
                entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = 0
    ancestors: list[tuple[int, bool]] = []  # (depth, matches) of the enclosing imports
    for depth, name, cumulative in reversed(entries):  # parents now precede children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        matches = name == package or name.startswith(package + ".")
        if matches and not any(m for _, m in ancestors):
            total += cumulative
        ancestors.append((depth, matches))
    return total / 1e3


def import_times(children: Children) -> dict[str, float]:
    """Import times of gaussmin, scipy.optimize and scipy.special in a fresh
    interpreter, median of IMPORT_PROBES."""
    samples = {name: [] for name in IMPORTS.values()}
    for _ in range(IMPORT_PROBES):
        stderr = children.run(["-X", "importtime", "-c", "import gaussmin"]).stderr
        for package, name in IMPORTS.items():
            samples[name].append(package_import_ms(stderr, package))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond it) at the highest percentile with at
    least ten ops beyond it; runs of 20 ops or fewer report their slowest
    op, so the tail never falls below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def setup_probe(children: Children, common: list[str]) -> float:
    start, probe = children.worker([*common, "--setup-only"])
    return probe["ready"] - start


def end_to_end(children: Children, common: list[str]) -> tuple[dict, dict]:
    # set-up is sampled before, at the start of and after the workload, so
    # its median spans the run's window
    setups = [setup_probe(children, common)]
    start, result = children.worker(common)
    setups.append(result["ready"] - start)
    setups.append(setup_probe(children, common))
    # times are scaled to the speed probe's nominal speed (speed.py): each
    # op's latency by the slowness measured around it, set-up by the run's
    raw_lat = result["latencies"]
    lat = [t / k for t, k in zip(raw_lat, result["slowness"])]
    slow = speed.factor(result["probe"])
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups) / slow,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(raw_lat) / sum(raw_lat),
        "op_p50_ms": statistics.median(raw_lat) * 1e3,
        "op_tail_ms": tail(raw_lat)[0] * 1e3,
    }
    print(f"# load: closed loop, 1 process, 1 caller; {result['cycles']} whole cycles, {len(lat)} ops")
    print(f"# setup samples (s, unscaled): {' '.join(f'{s:.4f}' for s in setups)}")
    probe = result["probe"]
    print(f"# speed probe: {len(probe)} units, median {statistics.median(probe) * 1e3:.3f} ms "
          f"(nominal {speed.REF_UNIT_S * 1e3:g} ms); op slowness {min(result['slowness']):.4f}"
          f"-{max(result['slowness']):.4f}, run slowness {slow:.4f}")
    print("# unscaled: " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    notes = {
        "op_p50_ms": f"median of {len(lat)} ops",
        "op_tail_ms": f"p{pct:.1f}, {beyond} ops beyond it, of {len(lat)} ops",
    }
    for name, unit in END_TO_END:
        print(f"{name} {metrics[name]:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, result


def per_layer(children: Children, common: list[str]) -> tuple[dict, dict]:
    imports = import_times(children)
    _, result = children.worker([*common, "--trace"])
    values = {**result["layers"], **imports}
    print(f"# traced: cycle 0 run {result['reps']} times untraced, then as many times traced; "
          f"{result['span_count']} spans written to {result['spans']}")
    for op in result["per_op"]:
        print(f"# op: {json.dumps(op)}")
    for name, unit in LAYER_METRICS:
        print(f"{name} {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gaussmin" / "__init__.py").is_file():
        print(f"run.py: no gaussmin sources under {src}", file=sys.stderr)
        return 2
    children = Children(src)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    print(f"# gaussmin benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# why: {workloads.WHY[args.workload]}")
    try:
        if args.trace:
            metrics, result = per_layer(children, common)
        else:
            metrics, result = end_to_end(children, common)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    meta = {**result["meta"], "blas_threads_requested": int(BLAS_THREADS), "commit": git_commit(),
            "src_lines": src_lines(src)}
    print("# meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for failure in result["failures"]:
        print(f"# failed op: {failure}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
