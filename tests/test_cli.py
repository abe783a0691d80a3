import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussmin
from gaussmin.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


def run(args):
    return main(args)


def test_verify_passes_and_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--tolerance", "1e-5", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["overall_pass"] is True
    groups = {c["group"] for c in report["checks"]}
    assert groups == {"catalog", "calibration", "identity"}


def test_verify_below_noise_floor_fails(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--tolerance", "1e-15", "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    assert not report["overall_pass"]
    assert "failed checks" in capsys.readouterr().err


def test_verify_subset(tmp_path):
    out = tmp_path / "cat.json"
    assert run(["verify", "--only", "catalog", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert {c["group"] for c in report["checks"]} == {"catalog"}


def test_verify_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--only", "identity", "--out", str(a)])
    run(["verify", "--only", "identity", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bound_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bound", "--n", "2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,R,lhs,ball_term,nominal_tail,exact_tail,chain_ok"
    assert len(lines) == 13
    assert all(line.endswith("true") for line in lines[1:])


def test_bound_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert (
        run(["bound", "--n", "1", "--rmin", "0.5", "--rmax", "0.5", "--steps", "1", "--out", str(out)])
        == EXIT_OK
    )
    assert len(out.read_text().strip().splitlines()) == 2


def test_bound_rejects_unsupported_dimension(capsys):
    assert run(["bound", "--n", "4"]) == EXIT_USAGE
    assert "n in {1, 2, 3}" in capsys.readouterr().err


def test_bound_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["bound", "--n", "1", "--out", str(a)])
    run(["bound", "--n", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_flow_constant_converges_immediately(tmp_path, capsys):
    out = tmp_path / "series.csv"
    fout = tmp_path / "field.csv"
    code = run(
        [
            "flow", "--n", "1", "--grid", "33", "--init", "constant:0.7",
            "--tmax", "1.0", "--out", str(out), "--field-out", str(fout),
        ]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "converged_to_constant" in stdout and "0.7" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,weighted_area,oscillation,max_abs_hf"
    field_lines = fout.read_text().strip().splitlines()
    assert field_lines[0] == "x,u"
    assert len(field_lines) == 34


def test_flow_sinusoid_short_run(tmp_path, capsys):
    out = tmp_path / "series.csv"
    code = run(
        [
            "flow", "--n", "1", "--grid", "33", "--init", "sinusoid",
            "--tmax", "0.05", "--out", str(out), "--field-out", str(tmp_path / "f.csv"),
        ]
    )
    assert code == EXIT_OK
    assert "max_time_reached" in capsys.readouterr().out


def test_flow_rejects_bad_dimension(capsys):
    assert run(["flow", "--n", "3"]) == EXIT_USAGE


def test_curvature_cylinder(tmp_path):
    out = tmp_path / "c.json"
    assert (
        run(["curvature", "--surface", "cylinder", "--params", "r=1", "--at", "0,0", "--out", str(out)])
        == EXIT_OK
    )
    payload = json.loads(out.read_text())
    assert payload["report"]["weighted_mean_curvature"] == pytest.approx(0.0, abs=1e-12)


def test_curvature_associate_at_quarter(tmp_path):
    out = tmp_path / "a.json"
    theta = math.pi / 2.0
    assert (
        run(
            [
                "curvature", "--surface", "associate", "--params", f"theta={theta}",
                "--at", "0.3,0.5", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    payload = json.loads(out.read_text())
    assert payload["report"]["weighted_mean_curvature"] == pytest.approx(1.0, abs=1e-9)


def test_curvature_graph_preset(tmp_path):
    out = tmp_path / "g.json"
    assert (
        run(
            [
                "curvature", "--surface", "graph", "--params", "preset=parabola",
                "--params", "n=2", "--at", "1,0",
                "--density", "product:gaussian+quad_log", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    payload = json.loads(out.read_text())
    assert payload["report"]["weighted_mean_curvature"] == pytest.approx(0.0, abs=1e-12)


def test_curvature_unknown_surface(capsys):
    assert run(["curvature", "--surface", "torus"]) == EXIT_USAGE


def test_planes_roots_and_candidates(tmp_path):
    out = tmp_path / "p.json"
    assert (
        run(["planes", "--profile", "quad_log", "--lo", "0", "--hi", "2", "--out", str(out)])
        == EXIT_OK
    )
    payload = json.loads(out.read_text())
    assert payload["roots"] == pytest.approx([(math.sqrt(17.0) - 1.0) / 8.0], abs=1e-9)
    flags = {round(c["value"], 6): c["is_root"] for c in payload["candidate_heights"]}
    assert flags[round((math.sqrt(17.0) - 1.0) / 8.0, 6)] is True
    assert flags[round((math.sqrt(17.0) + 1.0) / 8.0, 6)] is False


def test_measure_ball_and_cap(tmp_path):
    out = tmp_path / "m.json"
    assert run(["measure", "--quantity", "ball", "--n", "2", "--R", "1", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    assert (
        run(
            [
                "measure", "--quantity", "cap", "--n", "2", "--R", "8", "--init", "constant",
                "--method", "quadrature", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0, abs=1e-8)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-15, "only": "calibration"}))
    out = tmp_path / "r.json"
    # config alone fails at 1e-15 (finite-difference floor); flag overrides it
    assert run(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILED
    assert (
        run(["verify", "--config", str(cfg), "--tolerance", "1e-5", "--out", str(out)])
        == EXIT_OK
    )


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerence": 1e-5}))
    assert run(["verify", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown config keys" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--steps", "not_a_number"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "args",
    [
        ["measure", "--quantity", "sphere", "--R", "-1"],
        ["measure", "--quantity", "cap", "--R", "-1"],
        ["measure", "--quantity", "ball", "--R", "nan"],
        ["measure", "--quantity", "hemisphere", "--R", "inf"],
        ["measure", "--n", "0"],
        ["bound", "--rmin", "nan"],
        ["bound", "--rmax", "inf"],
        ["bound", "--n", "0"],
        ["flow", "--n", "0"],
    ],
)
def test_bad_radius_or_dimension_is_usage_error(args, capsys):
    assert run(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gaussmin:" in captured.err


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(gaussmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, gaussmin.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"
