#!/usr/bin/env python3
"""Smoke self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at minimal size with tracing off and on, and asserts
that each run passes its checks and prints every metric BENCHMARK.json
names, with its unit.  Then feeds deliberately wrong references to the
checks and asserts that the affected ops count as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]], w["name"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.py"
    assert layers == dict(LAYER_METRICS), "BENCHMARK.json per_layer differs from tracing.py"
    return e2e, layers


def smoke_runs(e2e: dict, layers: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: {sorted(set(got) ^ set(expected))}"
            for name, unit in expected.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)), (name, value)
                assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, all metrics printed")


def wrong_references() -> None:
    """A wrong reference must turn a correct op into a failed one."""
    workdir = worker.OUT_DIR / "work-selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = worker.Runner(workdir)
    try:
        ops = workloads.cycle("measure_sweep", 1, 0, smoke=True)
        ops += workloads.cycle("flow_2d", 1, 0, smoke=True)[:1]
        runner.prepare(ops)
        assert worker._summary([runner.run(op) for op in ops])["failed"] == 0
        ball_mass, osc_tol = workloads.ball_mass, workloads.FLOW_OSC_TOL
        workloads.ball_mass = lambda n, R: ball_mass(n, R) + 0.01
        workloads.FLOW_OSC_TOL = 0.0
        try:
            records = [runner.run(op) for op in ops]
        finally:
            workloads.ball_mass, workloads.FLOW_OSC_TOL = ball_mass, osc_tol
        expected = {"bound", "measure_ball", "measure_cap_flat", "flow"}
        for op, (_, failure, _) in zip(ops, records):
            assert (failure is not None) == (op.kind in expected), (op.kind, failure)
        summary = worker._summary(records)
        assert summary["failed"] == sum(op.kind in expected for op in ops) > 0
        print(f"ok  wrong references: {summary['failed']} of {summary['attempted']} ops failed as expected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    e2e, layers = declared()
    wrong_references()
    smoke_runs(e2e, layers)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
