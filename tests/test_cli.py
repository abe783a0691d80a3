import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import special

import gaussmin
from gaussmin import cli, measure
from gaussmin.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from gaussmin.flow import AREA_SLACK, flow_run, initial_field, initial_state, mass_mean
from gaussmin.graph import GraphFunction
from gaussmin.density import horizontal_gaussian
from gaussmin.measure import gaussian_ball_volume, weighted_sphere_area
from oracles import flow_texts, lateral_tails


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


def test_verify_checks_draw_their_own_streams(monkeypatch):
    # each verify check keys its row of rng.VERIFY_STREAMS with the one seed,
    # and no two rows share a stream
    from collections import Counter

    from gaussmin import calibration, graph, rng

    drawn = []

    def recorded(seed, stream):
        drawn.append((sys._getframe(1).f_code.co_name, seed, stream))
        return rng.substream(seed, stream)

    for module in (cli, calibration, graph):
        monkeypatch.setattr(module, "substream", recorded)
    streams = rng.VERIFY_STREAMS
    assert len(set(streams.values())) == len(streams) == 3
    presets = len(cli._calibration_presets())
    for seed in (rng.DEFAULT_SEED, 7387):
        drawn.clear()
        assert cli.run_verify(1e-5, "all", seed)["overall_pass"]
        assert Counter(drawn) == {
            ("comass_check", seed, streams["comass"]): presets,
            ("closedness_suite", seed, streams["closedness"]): presets,
            ("tangent_distance_suite", seed, streams["tangent_distance"]): 1,
        }


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


@pytest.mark.parametrize("n", ["4", "10"])
def test_bound_accepts_any_dimension(tmp_path, n):
    out = tmp_path / "sweep.csv"
    assert run(["bound", "--n", n, "--out", str(out)]) == EXIT_OK
    for line in out.read_text().strip().splitlines()[1:]:
        _, _, lhs, ball_term, *_ = line.split(",")
        assert abs(float(lhs) - float(ball_term)) <= 1e-13


def test_measure_hemisphere_quadrature_in_ten_dimensions(tmp_path):
    out = tmp_path / "m.json"
    args = ["measure", "--quantity", "hemisphere", "--n", "10", "--R", "5", "--method", "quadrature"]
    assert run([*args, "--out", str(out)]) == EXIT_OK
    value = json.loads(out.read_text())["value"]
    assert value == weighted_sphere_area(horizontal_gaussian(10), 5.0)
    assert value > gaussian_ball_volume(10, 5.0)


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


@pytest.mark.parametrize("init", ["sinusoid", "random_bump"])
def test_flow_2d_grid_65_converges_in_few_monotone_steps(tmp_path, capsys, init):
    out = tmp_path / "series.csv"
    args = ["flow", "--n", "2", "--grid", "65", "--init", init, "--out", str(out)]
    assert run(args) == EXIT_OK
    assert "converged_to_constant" in capsys.readouterr().out
    rows = out.read_text().strip().splitlines()[1:]
    areas = [float(row.split(",")[1]) for row in rows]
    assert max(b - a for a, b in zip(areas, areas[1:])) <= AREA_SLACK
    # one row per accepted step plus the initial state; a regression guard
    # on the step count (2 steps for each, from the first dt of 100)
    assert len(rows) - 1 <= 2


def test_flow_rejects_bad_dimension(capsys):
    assert run(["flow", "--n", "4"]) == EXIT_USAGE
    assert "flow supports n in {1, 2, 3}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        # Peclet number L dx / 2 = 25: the central-difference flow ended in a step failure
        ["--n", "1", "--grid", "5", "--L", "10", "--init", "random_bump"],
        # tiny boxes, where FLOW_DT / dx^2 reaches 6.2e7: it ran out of time
        ["--n", "2", "--grid", "3", "--L", "1e-3", "--init", "random_bump"],
        ["--n", "2", "--grid", "3", "--L", "1.8e-5", "--init", "random_bump"],
        *(["--n", "2", "--grid", str(m), "--L", "10", "--init", "random_bump"] for m in (9, 17, 33, 65)),
        # boxes it converged on at t = 6.6 and 41.8, where the ladder needs
        # pseudo-time 655 and 328: more than the 50 that --tmax once defaulted to
        ["--n", "1", "--grid", "65", "--L", "20"],
        ["--n", "1", "--grid", "4", "--L", "10"],
    ],
)
def test_flow_converges_on_coarse_wide_and_tiny_boxes(args, tmp_path, capsys):
    out = tmp_path / "series.csv"
    code = run(["flow", *args, "--out", str(out), "--field-out", str(tmp_path / "field.csv")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("verdict: converged_to_constant (constant ")
    areas = [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]
    assert max(b - a for a, b in zip(areas, areas[1:])) <= AREA_SLACK


TOO_STEEP = ("gaussmin: error: the initial field is too steep: its weighted area "
             "or H_F overflows (overflow encountered in multiply)\n")


@pytest.mark.parametrize(
    "amplitude, code, out, err",
    [
        # slopes of ~1e300 square to inf in the split area; at ~1e150 the
        # squares are floats but W (1 + W)^2 is not
        ("1e300", EXIT_RUNTIME, "", TOO_STEEP),
        ("1e150", EXIT_RUNTIME, "", TOO_STEEP),
        # ...and at ~1e100 the flow runs out of its default budget: the
        # ladder's 14th step is clipped to end at t = 1e6
        ("1e100", EXIT_OK, "verdict: max_time_reached (t = 1e+06)\n", ""),
    ],
)
def test_flow_steep_initial_fields(amplitude, code, out, err, tmp_path, capsys):
    series = tmp_path / "series.csv"
    args = ["flow", "--init", f"random_bump:{amplitude}", "--grid", "9",
            "--out", str(series), "--field-out", str(tmp_path / "field.csv")]
    assert run(args) == code
    assert capsys.readouterr() == (out, err)
    assert series.exists() == (code == EXIT_OK)


@pytest.mark.parametrize("n, grid", [(1, 257), (2, 65), (3, 17)])
def test_flow_prints_the_initial_mass_mean(n, grid, tmp_path, capsys):
    # the flow conserves sum M u, so the constant it converges to is fixed by
    # the initial field alone
    fld = initial_field(n, 4.0, grid, "random_bump", seed=5)
    args = ["flow", "--n", str(n), "--grid", str(grid), "--init", "random_bump", "--seed", "5",
            "--out", str(tmp_path / "s"), "--field-out", str(tmp_path / "f")]
    assert run(args) == EXIT_OK
    assert f"(constant {mass_mean(fld):.6g}, t = " in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--n", "1", "--grid", "65"],
    ["--n", "2", "--grid", "33", "--init", "random_bump", "--seed", "5"],
    ["--n", "3", "--grid", "9"],
])
def test_flow_files_are_pythons_17g_text_of_the_run(args, tmp_path):
    out, fout = tmp_path / "series.csv", tmp_path / "field.csv"
    assert run(["flow", *args, "--out", str(out), "--field-out", str(fout)]) == EXIT_OK
    opts = {k: v[0] for k, v in cli._COMMANDS["flow"][2].items()}
    opts.update(zip((a[2:] for a in args[::2]), args[1::2]))
    fld = initial_field(int(opts["n"]), opts["L"], int(opts["grid"]), opts["init"], int(opts["seed"]))
    result = flow_run(initial_state(fld), opts["tmax"], opts["osc_tol"], opts["hf_tol"])
    assert (out.read_text(), fout.read_text()) == flow_texts(result)


def test_flow_3d_field_out_has_one_line_per_last_axis_row(tmp_path):
    fout = tmp_path / "field.csv"
    args = ["flow", "--n", "3", "--grid", "5", "--init", "sinusoid", "--tmax", "0.05",
            "--out", str(tmp_path / "series.csv"), "--field-out", str(fout)]
    assert run(args) == EXIT_OK
    result = flow_run(initial_state(initial_field(3, 4.0, 5, "sinusoid")), 0.05)
    rows = [[float(v) for v in line.split(",")] for line in fout.read_text().splitlines()]
    assert rows == result.state.field.values.reshape(25, 5).tolist()


def test_curvature_cylinder(tmp_path):
    out = tmp_path / "c.json"
    assert (
        run(["curvature", "--surface", "cylinder", "--params", "r=1", "--at", "0,0", "--out", str(out)])
        == EXIT_OK
    )
    payload = json.loads(out.read_text())
    assert payload["report"]["weighted_mean_curvature"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("args, normal", [
    (["--surface", "cylinder", "--params", "r=1", "--at", "0,0"], [1.0, 0.0, 0.0]),
    (["--surface", "plane", "--params", "normal=0:1:0", "--at", "0.5,-0.5"], [0.0, 1.0, 0.0]),
])
def test_exact_zero_normal_components_print_as_zero(args, normal, capsys):
    # a zero cofactor, negated or not, is 0.0 in the output, never -0.0
    assert run(["curvature", *args]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["report"]["unit_normal"] == normal
    assert "-0.0" not in out


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


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli._build_parser.cache_clear()
    try:
        assert run(["planes"]) == EXIT_OK
        assert run(["bound", "--steps", "1"]) == EXIT_OK
    finally:
        cli._build_parser.cache_clear()  # drop the parser built from CountingParser
    assert built.count("gaussmin") == 1


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


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("verify", {"only": "bogus"}, None),
        ("measure", {"method": "exact"}, None),
        ("bound", {"steps": 2.5}, None),
        ("bound", {"n": True}, None),
        ("flow", {"n": 1, "grid": 33.5}, None),
        ("verify", {"tolerance": "x"}, None),
        ("bound", {"rmin": None}, None),
        ("curvature", {"params": "r=2"}, None),
        ("verify", {"seed": "7", "only": "identity"}, ["--seed", "7", "--only", "identity"]),
        # every option of each command, none at its default
        (
            "verify",
            {"tolerance": 1e-4, "only": "identity", "seed": 7387},
            ["--tolerance", "1e-4", "--only", "identity", "--seed", "7387"],
        ),
        (
            "bound",
            {"n": 3, "rmin": 1, "rmax": 2.5, "steps": 4},
            ["--n", "3", "--rmin", "1", "--rmax", "2.5", "--steps", "4"],
        ),
        (
            "flow",
            {"n": 2, "L": 3.5, "grid": 9, "init": "random_bump", "tmax": 0.5, "osc_tol": 0.01,
             "hf_tol": 0.01, "seed": 5, "field_out": "-"},
            ["--n", "2", "--L", "3.5", "--grid", "9", "--init", "random_bump", "--tmax", "0.5",
             "--osc-tol", "0.01", "--hf-tol", "0.01", "--seed", "5", "--field-out", "-"],
        ),
        (
            "curvature",
            {"surface": "graph", "params": ["preset=random_bump", "seed=5"], "at": "0.4,-0.2",
             "density": "gaussian"},
            ["--surface", "graph", "--params", "preset=random_bump", "--params", "seed=5",
             "--at", "0.4,-0.2", "--density", "gaussian"],
        ),
        (
            "planes",
            {"profile": "quadratic:0.3", "lo": -1, "hi": 1},
            ["--profile", "quadratic:0.3", "--lo", "-1", "--hi", "1"],
        ),
        (
            "measure",
            {"quantity": "cap", "n": 2, "R": 1.7, "method": "monte_carlo", "samples": 2000,
             "seed": 5, "init": "random_bump"},
            ["--quantity", "cap", "--n", "2", "--R", "1.7", "--method", "monte_carlo",
             "--samples", "2000", "--seed", "5", "--init", "random_bump"],
        ),
    ],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "config.out"
    code = run([command, "--config", str(cfg), "--out", str(out)])
    if flags is None:
        # rejected as a usage error, in one line, before anything runs
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("gaussmin: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert code == EXIT_OK
        by_config = capsys.readouterr()
        by_flags = tmp_path / "flags.out"
        assert run([command, *flags, "--out", str(by_flags)]) == EXIT_OK
        assert out.read_bytes() == by_flags.read_bytes()
        assert capsys.readouterr() == by_config


def test_params_flags_replace_the_config_params(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": "graph", "params": ["preset=random_bump", "seed=5"]}))
    outs = {name: tmp_path / name for name in ("config", "flags", "seed5")}
    args = ["curvature", "--params", "preset=random_bump", "--at", "0.4,-0.2"]
    assert run([*args, "--config", str(cfg), "--out", str(outs["config"])]) == EXIT_OK
    # the config's seed=5 is dropped, not merged with the flags
    args += ["--surface", "graph"]
    assert run([*args, "--out", str(outs["flags"])]) == EXIT_OK
    assert run([*args, "--params", "seed=5", "--out", str(outs["seed5"])]) == EXIT_OK
    assert outs["config"].read_bytes() == outs["flags"].read_bytes()
    assert outs["config"].read_bytes() != outs["seed5"].read_bytes()


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


@pytest.mark.parametrize(
    "args",
    [
        ["--surface", "cylinder", "--at", "1,2,3"],
        ["--surface", "cylinder", "--at", "1"],
        ["--surface", "plane", "--at", "abc"],
        ["--surface", "graph", "--params", "n=3", "--at", "1,2"],
        ["--surface", "associate", "--at", "nan,0"],
    ],
)
def test_bad_chart_point_is_usage_error(args, capsys):
    assert run(["curvature", *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--at" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["flow", "--L", "0"],
        ["flow", "--L", "-1"],
        ["flow", "--grid", "9", "--osc-tol", "nan"],
        ["flow", "--grid", "9", "--hf-tol", "-1"],
        ["flow", "--grid", "2"],
        ["measure", "--quantity", "ball", "--method", "monte_carlo", "--samples", "0"],
        ["measure", "--quantity", "ball", "--method", "monte_carlo", "--samples", "-5"],
        ["planes", "--hi", "inf"],
        ["planes", "--lo", "nan"],
        ["verify", "--tolerance", "nan"],
        ["curvature", "--params", "r=nan"],
        ["curvature", "--surface", "plane", "--params", "normal=1:inf:0"],
        ["curvature", "--surface", "associate", "--params", "theta=abc"],
        ["curvature", "--surface", "graph", "--params", "n=0"],
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
        ["flow", "--init", "sinusoid:3", "--grid", "9"],
        ["flow", "--init", "linear:2", "--grid", "9"],
        ["curvature", "--surface", "cylinder", "--params", "radius=2"],
        ["curvature", "--surface", "graph", "--params", "preset=sinusoid", "--params", "r=1"],
        ["curvature", "--surface", "plane", "--params", "theta=0.5"],
        ["bound", "--steps", "0"],
    ],
)
def test_bad_numeric_option_is_usage_error(args, capsys):
    assert run(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gaussmin:" in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["bound", "--steps", "0"], "gaussmin: steps must be >= 1, got 0\n"),
        (
            ["curvature", "--surface", "cylinder", "--params", "radius=2"],
            "gaussmin: unknown --params keys ['radius']: surface 'cylinder' takes ['r']\n",
        ),
        (
            ["flow", "--init", "sinusoid:3"],
            "gaussmin: --init: initial condition 'sinusoid' takes no argument, got 'sinusoid:3'\n",
        ),
        # a profile domain left by a number typed on the command line
        (
            ["planes", "--profile", "quad_log", "--lo", "-0.25", "--hi", "1"],
            "gaussmin: --lo: interval [-0.25, 1.0] leaves the domain of profile 'quad_log'\n",
        ),
        (
            ["curvature", "--surface", "horizontal_plane", "--params", "a=-0.3",
             "--params", "profile=quad_log"],
            "gaussmin: --params a: profile 'quad_log' is undefined for z <= -0.25\n",
        ),
    ],
)
def test_usage_error_names_the_fault(args, message, capsys):
    assert run(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_density_undefined_at_the_ambient_point_is_runtime_error(capsys):
    # the height a = -0.3 is in range for the surface; the --density profile
    # fails only where it is evaluated, so the error is a runtime one
    args = ["curvature", "--surface", "horizontal_plane", "--params", "a=-0.3",
            "--density", "product:gaussian+quad_log"]
    assert run(args) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gaussmin: error: profile 'quad_log' is undefined for z <= -0.25\n"


def _numeric_and_list_options():
    for command, (_, _, options) in cli._COMMANDS.items():
        for key, (_, kind) in options.items():
            if key == "at" or kind is not str and not isinstance(kind, list):
                yield command, key


@pytest.mark.parametrize("value", ["-1e-3", "-1,0.5", "-0x1", "-2"])
@pytest.mark.parametrize("command, key", list(_numeric_and_list_options()))
def test_value_after_a_space_reads_as_after_equals(command, key, value, tmp_path, capsys):
    # argparse alone reads -1e-3 or -1,0.5 after a space as a flag
    flag = "--" + key.replace("_", "-")
    seen = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / f"out{len(seen)}"
        try:
            code = run([command, *spelling, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err, out.read_bytes() if out.exists() else None))
    assert seen[0] == seen[1]


def test_negative_radius_keeps_its_range_error(capsys):
    assert run(["measure", "--R", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "gaussmin: R must be finite and non-negative, got -1.0\n"


@pytest.mark.parametrize(
    "args, ok",
    [
        # n L^2, the squared norm at the box corner, must be a float
        (["--L", "1.34e154"], True),
        (["--L", "1.35e154"], False),
        (["--L", "1e200"], False),
        # and so must the box volume (2 L)^n
        (["--n", "3", "--L", "2.8e102"], True),
        (["--n", "3", "--L", "2.83e102"], False),
        # FLOW_DT/dx^2 <= 1/sqrt(eps) = 6.7e7, dx = L on grid 3
        (["--L", "1.8e-5"], True),
        (["--L", "1.7e-5"], False),
        (["--L", "1e-9"], False),
        (["--L", "1e-20"], False),
    ],
)
def test_flow_box_bounds(args, ok, tmp_path, capsys):
    code = run(["flow", "--grid", "3", *args, "--out", str(tmp_path / "o"),
                "--field-out", str(tmp_path / "f")])
    captured = capsys.readouterr()
    if ok:
        assert code == EXIT_OK and captured.err == ""
    else:
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("gaussmin: --L ") and captured.err.count("\n") == 1


def test_out_of_memory_is_runtime_error(monkeypatch, capsys):
    def out_of_memory(n, radii):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(measure, "bound_sweep", out_of_memory)
    assert run(["bound", "--steps", "3"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gaussmin: error: Unable to allocate 745. GiB for an array\n"


@pytest.mark.parametrize(
    "args, message",
    [
        # the nominal tail itself exceeds the largest float near R = 30
        (["bound", "--n", "2000", "--rmax", "60"], None),
        (["measure", "--quantity", "sphere", "--n", "3", "--R", "1e200"], None),
        (["measure", "--quantity", "hemisphere", "--n", "2", "--method", "monte_carlo",
          "--samples", "1000", "--R", "1e200"], None),
        # Gamma(n/2 + 1) overflows past n = 341 and Gamma(n/2) past n = 343,
        # where C_n and |S^{n-1}| would read 0
        (["measure", "--quantity", "unit-ball", "--n", "342"],
         "unit ball volume C_342: Gamma(172) overflows"),
        (["measure", "--quantity", "hemisphere", "--n", "400"],
         "unit sphere area |S^399|: Gamma(200) overflows"),
        (["measure", "--quantity", "unit-ball", "--n", "400"],
         "unit ball volume C_400: Gamma(201) overflows"),
    ],
)
def test_overflowing_radius_is_runtime_error(args, message, capsys):
    assert run(args) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gaussmin: error:") and captured.err.count("\n") == 1
    if message is not None:
        assert captured.err == f"gaussmin: error: {message}\n"


@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
@pytest.mark.parametrize("R,scale", [("1e200", "1e+200"), ("5e102", "5e+102")])
def test_overflowing_sphere_area_is_named(method, R, scale, capsys):
    # at 5e102, R^3 is a float but |S| R^3 is not, so the product itself is checked
    unit = {"quadrature": "|S^2|", "monte_carlo": "|S^3|"}[method]
    args = ["measure", "--quantity", "sphere", "--n", "3", "--R", R, "--method", method]
    assert run(args + ["--samples", "1000"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gaussmin: error: sphere area scale {unit} R^3 overflows at R = {scale}\n"


def test_bound_rows_where_the_old_products_overflowed(tmp_path):
    # lhs is the ball mass and each tail one exp of a sum of logs, so neither
    # R^n at a huge radius nor Gamma(n/2) at n = 400 stops a row
    out = tmp_path / "o"
    assert run(["bound", "--n", "2", "--rmax", "1e200", "--steps", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[-1] == "2,9.9999999999999997e+199,1,1,0,0,true"
    assert run(["bound", "--n", "400", "--rmin", "4", "--rmax", "5", "--steps", "2",
                "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        n, R, lhs, ball, nominal, exact, ok = line.split(",")
        assert lhs == ball and ok == "true"
        assert float(ball) == pytest.approx(special.gammainc(200.0, float(R) ** 2 / 2.0), rel=1e-13)
        for got, ref in zip((float(exact), float(nominal)), lateral_tails(400, float(R))):
            assert 0.0 < got and abs(got - ref) <= 2e-13 * ref


def test_huge_radius_gives_the_full_gaussian_mass(tmp_path):
    # bound's lhs is the ball mass, and the cap quadrature stops where the
    # Gaussian has no double-precision mass, so radii far past it neither
    # overflow nor lose the mass
    out = tmp_path / "o"
    assert run(["bound", "--n", "1", "--rmax", "1e200", "--steps", "2", "--out", str(out)]) == EXIT_OK
    row = out.read_text().strip().splitlines()[-1].split(",")
    assert float(row[3]) == 1.0
    assert float(row[2]) == pytest.approx(1.0, abs=1e-13)
    assert run(["measure", "--quantity", "cap", "--n", "2", "--R", "1e200", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0, abs=1e-13)


def test_measure_cap_builds_only_the_requested_preset(tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("random_bump built for another preset")

    monkeypatch.setattr(GraphFunction, "random_bump", staticmethod(unused))
    out = tmp_path / "cap.json"
    args = ["measure", "--quantity", "cap", "--n", "3", "--init", "constant", "--R", "2"]
    assert run([*args, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["value"] == pytest.approx(gaussian_ball_volume(3, 2.0))


@pytest.mark.parametrize(
    "args",
    [
        ["measure", "--quantity", "cap", "--n", "4", "--init", "constant"],
        ["measure", "--quantity", "cap", "--init", "vortex"],
        ["curvature", "--surface", "graph", "--params", "n=4", "--params", "preset=random_bump"],
        ["curvature", "--surface", "graph", "--params", "preset=vortex"],
    ],
)
def test_unsupported_graph_preset_is_usage_error(args, capsys):
    assert run(args) == EXIT_USAGE
    assert "graph preset" in capsys.readouterr().err


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(gaussmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, gaussmin.cli; "
        "from gaussmin.density import Profile; "
        "from gaussmin.graph import horizontal_plane_roots; "
        "loaded = lambda: [m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules]; "
        "print(loaded()); "
        "print(horizontal_plane_roots(Profile.quad_log(), (0.0, 2.0)).roots, loaded())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    # the plane scan bisects in numpy: scipy.optimize alone takes ~0.5 s to import
    assert proc.stdout.splitlines() == ["[]", "(0.3903882032022812,) []"]


def test_package_import_loads_no_submodule():
    # callers import the submodules they use; the package itself re-exports nothing
    src = str(Path(gaussmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, gaussmin; print(sorted(m for m in sys.modules if m.startswith('gaussmin.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines() == ["[]"]


def test_benchmark_tracer_finds_and_restores_its_names(monkeypatch):
    # perfbench/tracing.py wraps library names where their callers look them
    # up; install() fails on a name that moved, and uninstall() restores all
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original
    finally:
        tracer.uninstall()
    assert cli.main is original


def test_benchmark_tracer_counts_a_catalog_verify_op(monkeypatch, tmp_path):
    # the tracer reads verify_entry's positional arguments to count points:
    # a catalog op must run traced, ten entries of 21 x 21 chart points
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        code = cli.main(["verify", "--only", "catalog", "--out", str(tmp_path / "v.json")])
        tracer.end_op({})
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    (op,) = tracer.per_op
    assert op["counts"]["catalog.points"] == 4410
    assert op["calls"]["catalog.verify_entry"] == 10


@pytest.mark.parametrize("field_out", ["-", "/dev/stdout"])
def test_a_reader_that_closes_stdout_early_ends_the_command_quietly(field_out):
    # ~99 kB of field text overfill the pipe once the reader has gone
    src = str(Path(gaussmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = ["flow", "--n", "2", "--grid", "65", "--field-out", field_out]
    proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "gaussmin.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_RUNTIME
    assert err == b""  # no error line and no "Exception ignored" at exit


@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_hemisphere_at_a_radius_whose_square_overflows(method):
    # n = 1 keeps R^n a float up to 1.8e308, but (R sin t)^2 on the outer
    # polar panel (and at the Monte Carlo points) is none past 1.34e154
    src = str(Path(gaussmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = ["measure", "--quantity", "hemisphere", "--n", "1", "--R", "1e200",
            "--method", method, "--samples", "1000"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gaussmin.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    value = json.loads(proc.stdout)["value"]
    # 1000 uniform points on the circle miss the polar peak of width ~1/R, so
    # the Monte Carlo estimate reads 0; the point is that nothing overflows
    assert value == (0.9999999999999951 if method == "quadrature" else 0.0)
