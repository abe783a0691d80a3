import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """``scripts/<name>`` in a fresh interpreter, with the checkout's ``src``
    first on the path and every warning an error."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)


def test_catalog_report_prints_every_result_and_its_summary():
    done = run_script("catalog_report.py")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert len(results) == 10 and all(r["pass"] for r in results)
    worst = max(r["residual"] for r in results)
    assert done.stderr == f"catalog: all claims hold (worst residual {worst:.3e} at tolerance 1e-05)\n"


def test_bound_sweep_experiment_prints_its_table():
    done = run_script("bound_sweep_experiment.py", "--steps", "4")
    assert done.returncode == 0 and done.stderr == "", done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["R", "hemisphere", "ball", "tail", "ball+tail", "holds"]
    assert [row.split()[0] for row in lines[1:5]] == ["0.50", "2.33", "4.17", "6.00"]
    assert lines[-1] == "  gaussian ball mass at R = 6.0: 0.999999984770"


def test_flow_flattening_demo_prints_one_row_per_init():
    done = run_script("flow_flattening_demo.py", "--grid", "9")
    assert done.returncode == 0 and done.stderr == "", done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["init", "verdict", "t_end", "osc_end", "area_drop"]
    assert [row.split()[:2] for row in rows] == [
        [init, "converged_to_constant"] for init in ("sinusoid", "linear", "random_bump", "constant:0.4")
    ]


def test_cli_digest_runs_every_case_to_a_documented_exit_code():
    # code 1 would mark a case that raised or a verify that failed
    done = run_script("cli_digest.py")
    assert done.returncode == 0 and done.stderr == "", done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 142 and all(len(line.split()) == 6 for line in lines)
    assert {line.split()[1] for line in lines} <= {"0", "2", "64"}
