"""Acceptance suite.

Each test pins one verification target at its stated tolerance and prints a
pass/fail line.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math

import numpy as np
import pytest

from gaussmin.calibration import (
    closedness_residual,
    comass_check,
    weighted_normal_divergence,
)
from gaussmin.catalog import make_associate_family, make_cylinder
from gaussmin.density import Density, Profile, horizontal_gaussian
from gaussmin.flow import (
    AREA_SLACK,
    FIRST_DT,
    VERDICT_CONVERGED,
    flow_run,
    flow_step,
    initial_field,
    initial_state,
)
from gaussmin.graph import (
    GraphFunction,
    QUAD_LOG_ROOT_CANDIDATES,
    audit_root_candidates,
    bernstein_functional,
    graph_curvature_samples,
    graph_presets,
    horizontal_plane_roots,
    tangent_distance_suite,
)
from gaussmin.measure import (
    exact_lateral_tail,
    gaussian_ball_volume,
    gaussian_ball_volume_mc,
    graph_cap_weighted_area,
    nominal_lateral_tail,
    QuadratureSpec,
    weighted_sphere_area,
)
from gaussmin.rng import substream
from gaussmin.surface import weighted_mean_curvature
from oracles import density_normal_pairing, mean_curvature, random_frame_comass, refinement_order

HG1, HG2, HG3 = (horizontal_gaussian(n) for n in (1, 2, 3))
SEED = 0xD1CE
GRID_RADII = np.linspace(0.5, 6.0, 12)


def _line(name: str, ok: bool) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_cylinder_weighted_curvature_sweep():
    rng = substream(SEED, 101)
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        entry = make_cylinder(r)
        target = r - 1.0 / r
        for _ in range(100):
            p = rng.uniform([-math.pi, -2.0], [math.pi, 2.0])
            rep = weighted_mean_curvature(entry.surface, entry.density, p)
            worst = max(worst, abs(rep.weighted_mean_curvature - target))
    ok = worst <= 1e-8
    assert _line(f"cylinder sweep H_F = r - 1/r (worst {worst:.2e})", ok)


def test_associate_family_curvature_and_pairing():
    us = np.linspace(-math.pi + 1e-9, math.pi, 20)
    vs = np.linspace(-2.0, 2.0, 20)
    worst_h = 0.0
    worst_pair = 0.0
    for theta in (0.0, math.pi / 4.0, math.pi / 2.0):
        surf = make_associate_family(theta)
        target = abs(math.sin(theta))
        for u in us:
            for v in vs:
                worst_h = max(worst_h, abs(mean_curvature(surf, (u, v))))
                pair = abs(density_normal_pairing(surf, HG2, (u, v)))
                worst_pair = max(worst_pair, abs(pair - target))
    catenoid = make_associate_family(math.pi / 2.0)
    worst_hf = max(
        abs(weighted_mean_curvature(catenoid, HG2, (u, v)).weighted_mean_curvature - 1.0)
        for u in us[::4]
        for v in vs[::4]
    )
    ok = worst_h <= 1e-6 and worst_pair <= 1e-6 and worst_hf <= 1e-6
    assert _line(
        f"associate family: |H| {worst_h:.2e}, pairing {worst_pair:.2e}, "
        f"catenoid H_F-1 {worst_hf:.2e}",
        ok,
    )


def test_parabola_graph_weighted_minimality():
    dens = Density.product(Density.gaussian(2), Profile.quad_log())
    u = GraphFunction.parabola(2)
    x1 = np.linspace(-3.0, 3.0, 200)
    pts = np.stack([x1, substream(SEED, 102).uniform(-3.0, 3.0, 200)], axis=-1)
    _, _, hf = graph_curvature_samples(u, dens, pts)
    worst = float(np.max(np.abs(hf)))
    ok = worst <= 1e-8
    assert _line(f"parabola graph weighted minimality (worst {worst:.2e})", ok)


def test_stationary_plane_root_and_candidate_flags():
    oracle = (math.sqrt(17.0) - 1.0) / 8.0  # positive zero of 4z^2 + z - 1
    scan = horizontal_plane_roots(Profile.quad_log(), (0.0, 2.0))
    audit = audit_root_candidates(Profile.quad_log(), QUAD_LOG_ROOT_CANDIDATES)
    ok = (
        len(scan.roots) == 1
        and abs(scan.roots[0] - oracle) <= 1e-10
        and audit[0]["is_root"]
        and not audit[1]["is_root"]
    )
    assert _line(
        f"stationary plane root {scan.roots[0]:.10f}, sign-slipped candidate flagged "
        f"(slope {audit[1]['slope']:.4f})",
        ok,
    )


def test_gaussian_ball_mass_exact_and_monte_carlo():
    exact_ok = abs(gaussian_ball_volume(2, 1.0) - (1.0 - math.exp(-0.5))) <= 1e-12
    worst_z = 0.0
    for n in (1, 2, 3):
        for R in (0.5, 1.0, 2.0, 4.0):
            est, se = gaussian_ball_volume_mc(n, R, samples=1_000_000, seed=SEED)
            z = abs(est - gaussian_ball_volume(n, R)) / max(se, 1e-15)
            worst_z = max(worst_z, z)
    ok = exact_ok and worst_z <= 3.0
    assert _line(
        f"gaussian ball mass: closed form exact, MC worst z = {worst_z:.2f}", ok
    )


def test_weighted_area_rigidity_gap():
    const_val = bernstein_functional(GraphFunction.constant(2, 0.4), 8.0)
    lin_small = bernstein_functional(GraphFunction.linear([0.1, 0.0]), 8.0)
    lin_unit = bernstein_functional(GraphFunction.linear([1.0, 0.0]), 8.0)
    ok = (
        abs(const_val - 1.0) <= 1e-6
        and abs(lin_small - math.sqrt(1.01)) <= 1e-6
        and abs(lin_unit - math.sqrt(2.0)) <= 1e-6
    )
    gaps = {}
    for name, u in graph_presets(2, seed=SEED).items():
        if name == "constant":
            continue
        gaps[name] = bernstein_functional(u, 8.0) - 1.0
    ok = ok and all(gap >= 1e-8 for gap in gaps.values())
    assert _line(
        "weighted area rigidity: constants at mass 1, nonconstant gap >= "
        f"{min(gaps.values()):.2e}",
        ok,
    )


def test_hemisphere_ball_tail_chain():
    # the comparison-surface inequality asserted by the volume-growth
    # estimate, checked term by term over the radius grid
    failures = []
    for n, dens in ((1, HG1), (2, HG2), (3, HG3)):
        for R in GRID_RADII:
            hemi = weighted_sphere_area(dens, float(R), upper_half=True)
            bound = gaussian_ball_volume(n, float(R)) + exact_lateral_tail(n, float(R))
            if hemi > bound + 1e-9:
                failures.append((n, float(R), hemi, bound))
    ok = not failures
    _line(
        f"hemisphere <= ball + lateral tail on the radius grid "
        f"({len(failures)}/36 violations)",
        ok,
    )
    assert ok, (
        "the weighted upper-hemisphere area exceeds ball mass + exact lateral "
        f"tail at {len(failures)} of 36 grid points, first at n={failures[0][0]}, "
        f"R={failures[0][1]:.2f} ({failures[0][2]:.6f} > {failures[0][3]:.6f}); "
        "the hemisphere excess decays like 1/R^2 while the wall tail decays "
        "like e^{-R^2/2}, so the stepwise bound cannot hold for mid radii even "
        "though the limiting volume bound (cap area -> 1) does"
    )


def test_lateral_tails_vanish_monotonically():
    ok = True
    for n in (1, 2, 3):
        tail_grid = [r for r in GRID_RADII if r >= 2.0]
        ex = [exact_lateral_tail(n, r) for r in tail_grid]
        nom = [nominal_lateral_tail(n, r) for r in tail_grid]
        ok = ok and all(a > b for a, b in zip(ex, ex[1:]))
        ok = ok and all(a > b for a, b in zip(nom, nom[1:]))
        # vanishing: three decades lost across the grid, negligible far out
        ok = ok and ex[-1] <= 1e-3 * ex[0] and nom[-1] <= 1e-3 * nom[0]
        ok = ok and exact_lateral_tail(n, 30.0) < 1e-100
        ok = ok and nominal_lateral_tail(n, 30.0) < 1e-100
    assert _line("both lateral tails decrease to 0 for R >= 2", ok)


def test_cap_area_limit_for_constant_graphs():
    val = graph_cap_weighted_area(
        GraphFunction.constant(2, 0.3), 8.0, QuadratureSpec()
    )
    ok = abs(val - 1.0) <= 1e-9
    assert _line(f"constant-graph cap area at R = 8 is 1 ({val - 1.0:+.2e})", ok)


def test_calibration_closedness_and_comass(monkeypatch):
    rng = substream(SEED, 103)
    worst_identity = 0.0
    for name, u in graph_presets(2, seed=SEED).items():
        for _ in range(100):
            x = np.append(rng.uniform(-2.0, 2.0, 2), rng.uniform(-1.0, 1.0))
            worst_identity = max(worst_identity, abs(closedness_residual(u, HG2, x)))
    worst_minimal = 0.0
    flat = GraphFunction.constant(2, 0.7)
    for _ in range(100):
        x = np.append(rng.uniform(-2.0, 2.0, 2), rng.uniform(-1.0, 1.0))
        worst_minimal = max(worst_minimal, abs(weighted_normal_divergence(flat, HG2, x)))
    quad_log_dens = Density.product(Density.gaussian(2), Profile.quad_log())
    parab = GraphFunction.parabola(2)
    for _ in range(100):
        base = rng.uniform(-2.0, 2.0, 2)
        x = np.append(base, parab.value(base))
        worst_minimal = max(
            worst_minimal, abs(weighted_normal_divergence(parab, quad_log_dens, x))
        )
    comass = random_frame_comass(parab, trials=100_000, seed=SEED)
    monkeypatch.setattr("gaussmin.calibration.COMASS_TRIALS", 100_000)
    tangent = comass_check([parab], seed=SEED)[0]
    ok = worst_identity <= 1e-4 and worst_minimal <= 1e-4 and comass <= 1.0 + 1e-12
    ok = ok and tangent <= 1e-12
    assert _line(
        f"calibration: identity {worst_identity:.2e}, minimal divergence "
        f"{worst_minimal:.2e}, comass max {comass:.12f}, tangent-frame residual {tangent:.2e}",
        ok,
    )


def test_axis_distance_identity():
    worst = tangent_distance_suite(seed=SEED)
    ok = worst <= 1e-6
    assert _line(f"axis-projection distance identity (worst {worst:.2e})", ok)


def test_flow_flattening_and_refinement():
    state = initial_state(initial_field(1, 4.0, 257, "sinusoid"))
    result = flow_run(state, t_max=2500.0 * FIRST_DT, osc_tol=0.005, hf_tol=0.005)
    areas = np.array([rec[1] for rec in result.state.history])
    monotone = float(np.max(np.diff(areas))) <= AREA_SLACK
    converged = (
        result.verdict == VERDICT_CONVERGED
        and result.state.time < 2500.0 * FIRST_DT
        and result.state.field.oscillation() <= 0.005
    )
    const_state = initial_state(initial_field(1, 4.0, 257, "constant:0.25"))
    const_fixed = np.array_equal(
        flow_step(const_state).field.values, const_state.field.values
    )
    order = refinement_order()
    ok = monotone and converged and const_fixed and order >= 1.8
    assert _line(
        f"flow flattening: monotone area, converged at t = {result.state.time:.2f}, "
        f"constant fixed point, refinement order {order:.2f}",
        ok,
    )


@pytest.mark.parametrize("init", ["sinusoid", "random_bump"])
def test_flow_flattens_in_three_dimensions(init):
    # the 2-D gates on G^3 x R: converged, monotone area, constant fixed point
    state = initial_state(initial_field(3, 4.0, 33, init, seed=5))
    result = flow_run(state, t_max=2500.0 * FIRST_DT, osc_tol=0.005, hf_tol=0.005)
    areas = np.array([rec[1] for rec in result.state.history])
    monotone = float(np.max(np.diff(areas))) <= AREA_SLACK
    converged = result.verdict == VERDICT_CONVERGED and result.state.time < 2500.0 * FIRST_DT
    const_state = initial_state(initial_field(3, 4.0, 33, "constant:0.25"))
    const_fixed = np.array_equal(
        flow_step(const_state).field.values, const_state.field.values
    )
    assert _line(
        f"3-D flow ({init}): monotone area, converged in "
        f"{len(areas) - 1} steps, constant fixed point",
        monotone and converged and const_fixed,
    )
