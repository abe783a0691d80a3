import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from gaussmin import flow
from gaussmin.density import Density, horizontal_gaussian
from gaussmin.flow import (
    AREA_SLACK,
    FIRST_DT,
    FLOW_DT,
    GridField,
    VERDICT_CONVERGED,
    VERDICT_MAX_TIME,
    VERDICT_STEP_FAILURE,
    flow_run,
    flow_step,
    grid_nodes,
    grid_weighted_mean_curvature,
    initial_field,
    initial_state,
    weighted_area,
)
from gaussmin.graph import GraphFunction, graph_weighted_mean_curvature
from oracles import refinement_order, run_to_time, same_bits


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(4.0, np.zeros((2,)))
    with pytest.raises(ValueError):
        GridField(4.0, np.array([0.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        GridField(4.0, np.zeros((3, 3, 3, 3)))
    assert GridField(4.0, np.zeros((3, 3, 3))).dimension == 3
    fld = GridField(4.0, np.zeros(257))
    assert fld.dx == pytest.approx(8.0 / 256.0)


def test_initial_fields_by_name():
    const = initial_field(1, 4.0, 65, "constant:0.7")
    assert np.all(const.values == 0.7)
    sin = initial_field(1, 4.0, 257, "sinusoid")
    assert sin.oscillation() == pytest.approx(1.0, abs=1e-12)
    bump1 = initial_field(2, 4.0, 33, "random_bump", seed=5)
    bump2 = initial_field(2, 4.0, 33, "random_bump", seed=5)
    assert np.array_equal(bump1.values, bump2.values)
    with pytest.raises(ValueError):
        initial_field(1, 4.0, 33, "vortex")


def test_initial_state_starts_at_first_dt():
    assert initial_state(initial_field(1, 4.0, 65, "sinusoid")).dt == FIRST_DT


def test_grid_curvature_matches_analytic_on_interior():
    # u = 0.25 x: H = 0 and H_F = -x * 0.25 / sqrt(1 + 0.0625).  Every cell has
    # that slope, so H_F^h = (2/dx) (above - below) 0.25 / W, with above and
    # below the node's mass shares phi(x +- dx/2) / (phi(x - dx/2) + phi(x + dx/2)):
    # -(2/dx) tanh(x dx/2) 0.25 / W, within |x|^3 dx^2 / 12 of the continuum
    fld = initial_field(1, 4.0, 257, "linear")
    hf = grid_weighted_mean_curvature(fld)
    x, dx = fld.axis(), fld.dx
    slope = 0.25 / math.sqrt(1.0625)
    expected = -(2.0 / dx) * np.tanh(0.5 * x * dx) * slope
    interior = slice(2, -2)
    assert np.max(np.abs(hf[interior] - expected[interior])) <= 1e-6
    assert np.all(np.abs(expected + x * slope) <= np.abs(x) ** 3 * dx * dx / 12.0 * slope)


def test_two_dimensional_operator_reduces_to_one_dimensional_columns():
    # a field constant along y has u_y = u_yy = u_xy = 0 exactly, so the
    # general-n operator must give the 1-D H_F in every column, bit for bit
    f1 = initial_field(1, 4.0, 65, "sinusoid")
    f2 = GridField(4.0, np.repeat(f1.values[:, None], 65, axis=1))
    hf1 = grid_weighted_mean_curvature(f1)
    hf2 = grid_weighted_mean_curvature(f2)
    assert np.array_equal(hf2, np.repeat(hf1[:, None], 65, axis=1))
    # likewise a 3-D field constant along one axis gives the 2-D H_F on every
    # slice across it; each axis leaves one of the three mixed pairs alone
    f2 = initial_field(2, 4.0, 33, "random_bump", seed=5)
    hf2 = grid_weighted_mean_curvature(f2)
    for axis in range(3):
        f3 = GridField(4.0, np.repeat(np.expand_dims(f2.values, axis), 33, axis=axis))
        hf3 = grid_weighted_mean_curvature(f3)
        assert np.array_equal(hf3, np.repeat(np.expand_dims(hf2, axis), 33, axis=axis))


def test_two_dimensional_operator_is_second_order_on_interior():
    # the closed-form graph kernel is the reference, including the mixed
    # derivative terms; the errors are taken on the coarse interior nodes.
    # n = 3 takes amplitude 1: at 0.3 a dropped mixed pair's u_i u_j u_ij stays
    # below the grid-17 truncation error, at 1 it stalls the grid-65 errors
    for n, amplitude, grids in ((2, 0.3, (33, 65, 129)), (3, 1.0, (17, 33, 65))):
        u = GraphFunction.random_bump(n, seed=5, amplitude=amplitude)
        errors = []
        for m in grids:
            fld = initial_field(n, 4.0, m, f"random_bump:{amplitude}", seed=5)
            exact = graph_weighted_mean_curvature(
                u, horizontal_gaussian(n), grid_nodes(4.0, m, n)
            ).weighted_mean_curvature
            stride = (m - 1) // (grids[0] - 1)
            common = (slice(stride, -stride, stride),) * n
            hf = grid_weighted_mean_curvature(fld)
            errors.append(float(np.max(np.abs(hf[common] - exact[common]))))
        assert errors[0] / errors[1] >= 3.5, n
        assert errors[1] / errors[2] >= 3.5, n


def test_constant_is_exact_fixed_point():
    state = initial_state(initial_field(1, 4.0, 65, "constant:0.7"))
    stepped = flow_step(state)
    assert np.array_equal(stepped.field.values, state.field.values)
    result = flow_run(initial_state(initial_field(1, 4.0, 65, "constant:0.7")), 10.0)
    assert result.verdict == VERDICT_CONVERGED
    assert result.limit_constant == pytest.approx(0.7, abs=1e-15)
    assert result.state.time == 0.0


def test_first_step_strictly_decreases_area():
    state = initial_state(initial_field(1, 4.0, 257, "sinusoid"))
    a0 = state.history[0][1]
    stepped = flow_step(state)
    a1 = stepped.history[-1][1]
    assert a1 < a0


def test_linear_initial_data_flattens():
    state = initial_state(initial_field(1, 4.0, 65, "linear"))
    osc0 = state.field.oscillation()
    for _ in range(400):
        state = flow_step(state)
    assert state.field.oscillation() < osc0


def test_flow_run_converges_and_areas_monotone():
    state = initial_state(initial_field(1, 4.0, 65, "sinusoid"))
    result = flow_run(state, t_max=2500.0 * FIRST_DT, osc_tol=0.005, hf_tol=0.005)
    assert result.verdict == VERDICT_CONVERGED
    areas = np.array([rec[1] for rec in result.state.history])
    assert float(np.max(np.diff(areas))) <= AREA_SLACK
    # converged constant is the odd-symmetric limit 0
    assert abs(result.limit_constant) <= 0.005
    # stationarity implies flatness
    fld = result.state.field
    grad = np.gradient(fld.values, fld.dx)
    assert np.max(np.abs(grad)) <= 10.0 * 0.005 / fld.half_width


def test_flow_run_hits_time_budget():
    # from FIRST_DT the ladder flattens to 1e-9 in 5 steps, before it has
    # spent 20 first dts; the budget is met on the ladder from FLOW_DT
    state = dataclasses.replace(initial_state(initial_field(1, 4.0, 65, "sinusoid")), dt=FLOW_DT)
    result = flow_run(state, t_max=20.0 * state.dt, osc_tol=1e-9, hf_tol=1e-9)
    assert result.verdict == VERDICT_MAX_TIME
    assert result.state.time >= 20.0 * state.dt


@pytest.mark.parametrize("t_max", [2.0, 0.05, 1e-9, 250.0])
def test_flow_run_clips_the_last_step_to_end_at_the_budget(t_max):
    # the ladder's steps are 100, 200, ...; the one that would pass t_max
    # ends there instead, at the ladder's dt, however short it is
    result = flow_run(initial_state(initial_field(1, 4.0, 65, "sinusoid")), t_max=t_max,
                      osc_tol=1e-9, hf_tol=1e-9)
    assert result.verdict == VERDICT_MAX_TIME
    times = [rec[0] for rec in result.state.history]
    assert times[-1] == t_max and all(t < t_max for t in times[:-1])
    assert result.state.dt == (FIRST_DT if t_max < FIRST_DT else 2.0 * FIRST_DT)


def test_a_clipped_step_that_is_rejected_halves_the_ladder(monkeypatch):
    # the clipped step's first attempt goes uphill: it is retried at half its
    # length, and the ladder's dt is halved once, as for any rejected step
    calls = _force_uphill(monkeypatch, lambda k: k == 1)
    result = flow_run(initial_state(initial_field(1, 4.0, 65, "sinusoid")), t_max=2.0,
                      osc_tol=1e-9, hf_tol=1e-9)
    assert calls == [2.0, 1.0, 1.0]
    assert [rec[0] for rec in result.state.history] == [0.0, 1.0, 2.0]
    assert result.verdict == VERDICT_MAX_TIME and result.state.dt == FIRST_DT / 2


def _force_uphill(monkeypatch, uphill):
    # the semi-implicit step does not go uphill on its own: reverse the
    # increment of the k-th solve when uphill(k); returns each solve's dt
    solve, calls = flow._ou_solve, []

    def reversed_when(half_width, rhs, dt):
        calls.append(dt)
        w = solve(half_width, rhs, dt)
        return -w if uphill(len(calls)) else w

    monkeypatch.setattr(flow, "_ou_solve", reversed_when)
    return calls


def test_unstable_dt_triggers_rejection_and_halving(monkeypatch):
    calls = _force_uphill(monkeypatch, lambda k: k == 1)
    state = initial_state(initial_field(1, 4.0, 65, "sinusoid"))
    for _ in range(20):
        state = flow_step(state)
    # the uphill attempt was rejected and retried at half the step size,
    # and every accepted step kept the area monotone
    assert calls[:2] == [FIRST_DT, FIRST_DT / 2]
    assert state.dt == FIRST_DT / 2 and len(state.history) == 21
    areas = np.array([rec[1] for rec in state.history])
    assert float(np.max(np.diff(areas))) <= AREA_SLACK


def test_flow_run_fails_once_dt_has_halved_max_rejections_times(monkeypatch):
    # each step's first attempt goes uphill, so every accepted step halves
    # dt for good; the run must stop rather than crawl on a vanishing step.
    # From FIRST_DT the halved steps of 50 and 25 flatten the field before
    # then, so the run starts at FLOW_DT: the floor is relative to the first dt
    _force_uphill(monkeypatch, lambda k: k % 2 == 1)
    state = dataclasses.replace(initial_state(initial_field(1, 4.0, 65, "sinusoid")), dt=FLOW_DT)
    result = flow_run(state, t_max=50.0)
    assert result.verdict == VERDICT_STEP_FAILURE
    assert result.state.dt == FLOW_DT * 0.5**11 and len(result.state.history) == 12


def _cell_weight(L, m, n=1):
    # phi at the cell centres, floored as the flow floors an axis of an n-D box
    x = np.linspace(-L, L, m)
    phi = np.exp(-0.5 * (0.5 * (x[:-1] + x[1:])) ** 2) / math.sqrt(2.0 * math.pi)
    return np.maximum(phi, np.max(phi) * math.exp(-flow.LOG_WEIGHT_SPAN / max(n, 2)))


def _edge_mass(L, m, n=1):
    # M_j = (dx/2) (phi(x_{j-1/2}) + phi(x_{j+1/2})), one half cell at each end
    phi, dx = _cell_weight(L, m, n), 2.0 * L / (m - 1)
    return 0.5 * dx * (np.append(0.0, phi) + np.append(phi, 0.0))


def _ou_matrix(L, m, n=1):
    # reference L_1 = -M^{-1} K, K the stiffness with edge weights
    # phi(x_{j+1/2}) / dx: the 1-D Hessian of the area at a constant
    k = _cell_weight(L, m, n) / (2.0 * L / (m - 1))
    stiffness = np.diag(np.append(k, 0.0) + np.append(0.0, k)) - np.diag(k, 1) - np.diag(k, -1)
    return -stiffness / _edge_mass(L, m, n)[:, None]


def _kronecker_system(n, m, L, dt):
    # I - dt sum_i L_1 along axis i: (M + dt K) scaled by M^{-1}, dense
    ou, eye = _ou_matrix(L, m, n), np.eye(m)
    return np.eye(m**n) - dt * sum(
        functools.reduce(np.kron, [ou if j == i else eye for j in range(n)]) for i in range(n)
    )


@pytest.mark.parametrize("L", [4.0, 10.0])
@pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3) for m in (3, 5, 9, 65)
                                  if n < 3 or m < 65])
def test_ou_solve_matches_dense_solve(n, m, L):
    # at L = 10, M spans e^48 along an axis (e^33, floored, for n = 3), and the
    # eigenvectors scale by M^{-1/2}
    rhs = np.random.default_rng(m).standard_normal((m,) * n)
    # a 4,225-unknown dense solve takes seconds: the 2-D grid 65 checks FLOW_DT only
    for dt in (FLOW_DT,) if m**n > 1000 else (FLOW_DT, 1.0, FIRST_DT, 1e3):
        system = _kronecker_system(n, m, L, dt)
        dense = np.linalg.solve(system, rhs.ravel()).reshape(rhs.shape)
        # at dt = 1e3 the system is conditioned ~3e5 and LU alone misses the
        # exact solution by 2e-12 (1-D grid 65, L = 4); one refinement step on
        # a residual taken in extended precision brings it to roundoff
        ou, resid = _ou_matrix(L, m, n).astype(np.longdouble), rhs - dense.astype(np.longdouble)
        for i in range(n):
            resid = resid + dt * np.moveaxis(np.tensordot(ou, dense, axes=([1], [i])), 0, i)
        dense = dense + np.linalg.solve(system, resid.astype(float).ravel()).reshape(rhs.shape)
        fast = flow._ou_solve(L, rhs, dt)
        assert np.linalg.norm(fast - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("L", [4.0, 10.0])
@pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3) for m in (3, 4, 9, 65)
                                  if n < 3 or m < 65])
def test_field_geometry_matches_np_pad_reference_bit_for_bit(monkeypatch, n, m, L):
    # the edges' sums at the nodes are written into slices, so a face node gets
    # its one edge; built instead on np.pad's zero edges beyond the box, the
    # area and H_F must come out the same, bit for bit
    def padded(edge, ax, axis):
        n = edge.ndim
        p = np.pad(edge, [(1, 1) if k == axis else (0, 0) for k in range(n)])
        up = p[tuple(slice(1, None) if k == axis else slice(None) for k in range(n))]
        down = p[tuple(slice(None, -1) if k == axis else slice(None) for k in range(n))]
        return flow._along(ax.above, axis, n) * up, flow._along(ax.below, axis, n) * down

    values = 0.5 * np.random.default_rng(10 * m + n).standard_normal((m,) * n)
    fld = GridField(L, values)
    area, hf = flow._field_geometry(fld)
    monkeypatch.setattr(flow, "_to_nodes", lambda e, ax, axis: np.add(*padded(e, ax, axis)))
    monkeypatch.setattr(flow, "_divergence",
                        lambda e, ax, axis: (2.0 / ax.dx) * np.subtract(*padded(e, ax, axis)))
    ref_area, ref_hf = flow._field_geometry(fld)
    assert np.float64(area).tobytes() == np.float64(ref_area).tobytes()
    assert hf.tobytes() == ref_hf.tobytes()


def test_even_coarse_grid_step_at_large_dt_is_accepted():
    # an even grid has no node at the centre, and grid 4 of L = 10 has a cell
    # Peclet number of 33; the step descends there too, and were an
    # increment oversized, the guard would halve dt until the area did not rise
    fld = initial_field(2, 10.0, 4, "random_bump", seed=5)
    state = dataclasses.replace(initial_state(fld), dt=5.0)
    stepped = flow_step(state)
    assert len(stepped.history) == 2
    assert stepped.history[-1][1] <= state.history[0][1] + AREA_SLACK


@pytest.mark.parametrize("n", [1, 2])
def test_ou_matrix_is_linear_part_of_hf(n):
    # H_F is odd in u, so H_F(eps s) - eps L_h s = O(eps^3), boundary nodes
    # included: the reference matrix of the solve test is H_F's linear part,
    # and for n = 2 the Kronecker sum is the area's Hessian at a constant
    s = initial_field(n, 4.0, 33, "sinusoid").values
    ou_s = s @ _ou_matrix(4.0, 33).T
    if n == 2:
        ou_s = ou_s + _ou_matrix(4.0, 33) @ s
    errors = [
        float(np.max(np.abs(grid_weighted_mean_curvature(GridField(4.0, eps * s)) - eps * ou_s)))
        for eps in (1e-1, 5e-2, 2.5e-2)
    ]
    assert errors[0] / errors[1] == pytest.approx(8.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(8.0, rel=0.05)


def test_odd_symmetry_is_preserved():
    state = initial_state(initial_field(1, 4.0, 129, "sinusoid"))
    for _ in range(300):
        state = flow_step(state)
    v = state.field.values
    assert np.max(np.abs(v + v[::-1])) <= 1e-10


def test_two_dimensional_bump_decays():
    fld = initial_field(2, 4.0, 33, "random_bump", seed=0xD1CE)
    osc0 = fld.oscillation()
    state = run_to_time(fld, 2.0)
    assert state.field.oscillation() < 0.5 * osc0
    areas = np.array([rec[1] for rec in state.history])
    assert float(np.max(np.diff(areas))) <= AREA_SLACK


def test_refinement_order_is_second_order():
    order = refinement_order()
    assert order >= 1.8


def test_run_to_time_lands_exactly():
    fld = initial_field(1, 4.0, 33, "sinusoid")
    state = run_to_time(fld, 0.5)
    assert state.time == pytest.approx(0.5, abs=1e-12)


def test_flow_step_evaluates_no_density(monkeypatch):
    calls = {"log_weight": 0, "grad_log_weight": 0}
    for name in calls:
        def counted(self, x, _name=name, _original=getattr(Density, name)):
            calls[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(Density, name, counted)
    state = initial_state(initial_field(2, 4.0, 17, "sinusoid"))
    for _ in range(50):
        state = flow_step(state)
    # at most the one evaluation of the memoized Gaussian factor of the grid
    assert calls["log_weight"] <= 1
    assert calls["grad_log_weight"] == 0


@pytest.mark.parametrize("n, m", [(1, 65), (2, 33), (2, 65), (3, 33), (3, 65)])
def test_weighted_area_of_constant_is_gaussian_trapezoid_mass(n, m):
    # W = 1 for a constant, so the area is sum M, every cell weighed by phi at
    # its centre: the n-th power of the 1-D midpoint mass (the trapezoid rule
    # applied to the cell-centre samples, half a cell at each end)
    ax = np.linspace(-4.0, 4.0, m)
    mid = 0.5 * (ax[:-1] + ax[1:])
    mass = float(np.sum((ax[1] - ax[0]) * np.exp(-0.5 * mid * mid))) / math.sqrt(2.0 * math.pi)
    assert mass == pytest.approx(float(np.sum(_edge_mass(4.0, m))), rel=1e-15)
    area = weighted_area(initial_field(n, 4.0, m, "constant:0.3"))
    assert area == pytest.approx(mass**n, rel=1e-15, abs=0.0)
    assert area == weighted_area(initial_field(n, 4.0, m, "constant:-2"))
    assert abs(area - math.erf(4.0 / math.sqrt(2.0)) ** n) <= 2e-5


@pytest.mark.parametrize("n, m", [(1, 257), (2, 65), (3, 17)])
def test_mass_mean_is_conserved_whatever_the_dt_path(n, m):
    # 1^T M (M + dt K)^{-1} = 1^T and 1^T grad A_h = 0, and each increment has
    # its M-weighted mean taken out, so sum M u never moves: along the doubling
    # ladder (every step accepted at its first dt, for n = 3 too), in the limit
    # flow_run reports, and on the uniform path of run_to_time
    fld = initial_field(n, 4.0, m, "random_bump", seed=5)
    mean0 = flow.mass_mean(fld)
    state = initial_state(fld)
    for k in range(1, 12):
        state = flow_step(state)
        assert state.time == pytest.approx(FIRST_DT * (2**k - 1), rel=1e-12)
        assert abs(flow.mass_mean(state.field) - mean0) <= 1e-15
        state.dt *= 2.0
    result = flow_run(initial_state(fld), t_max=2500.0 * FIRST_DT)
    assert result.verdict == VERDICT_CONVERGED
    assert abs(result.limit_constant - mean0) <= 1e-15
    uniform = run_to_time(fld, 3.0)
    assert abs(flow.mass_mean(uniform.field) - mean0) <= 1e-15
    assert abs(flow.mass_mean(uniform.field) - result.limit_constant) <= 1e-15


@pytest.mark.parametrize("dt", [1e3, 1e6])
def test_three_dimensional_step_descends_at_any_dt(dt):
    # for n = 3 too, one step at any dt is accepted at that dt and lowers
    # the area: K is its Hessian at a constant, and stays above it elsewhere
    fld = initial_field(3, 4.0, 17, "random_bump:1", seed=5)
    state = dataclasses.replace(initial_state(fld), dt=dt)
    stepped = flow_step(state)
    assert stepped.dt == dt and stepped.time == dt
    assert stepped.history[-1][1] < state.history[0][1]


def test_near_subnormal_field_on_a_wide_box_steps_at_dt_one():
    # values ~1e-300 on the half-width 1e6 box, where a solve not scaled by a
    # power of two would take subnormal roundoff and fail its accuracy check,
    # though at scale 1e-290 or at L = 4 it would not.  The CLI never takes
    # this step: such a field has converged at t = 0
    fld = GridField(1e6, 1e-300 * np.linspace(-3.0, 3.0, 4))
    stepped = flow_step(dataclasses.replace(initial_state(fld), dt=1.0))
    assert stepped.dt == 1.0
    assert np.max(np.abs(stepped.field.values)) <= np.max(np.abs(fld.values))


@pytest.mark.parametrize("n, m, L", [(1, 4, 1e6), (1, 9, 1e6), (2, 4, 1e6), (2, 9, 1e3), (3, 5, 1e6)])
@pytest.mark.parametrize("dt", [1.0, 100.0])
def test_solve_is_scale_free_on_wide_boxes(n, m, L, dt):
    # the solve is linear and runs on its rhs scaled by a power of two, so
    # scaling rhs by 2^j scales the solution by 2^j bit for bit, near the
    # subnormal range and near overflow alike; without that scaling the
    # roundoff of these wide boxes goes subnormal or overflows at some j
    rhs = np.random.default_rng(0).uniform(-1.0, 1.0, (m,) * n)
    solution = flow._ou_solve(L, rhs, dt)
    for j in (-1000, -990, -980, -960, -900, 900, 1000, 1020):
        assert same_bits(flow._ou_solve(L, np.ldexp(rhs, j), dt), np.ldexp(solution, j)), j


@pytest.fixture
def fresh_axis_factors():
    flow._axis.cache_clear()
    yield
    flow._axis.cache_clear()


def test_unsettled_solve_is_a_step_failure(monkeypatch, fresh_axis_factors):
    # unfloored, the 3-D weights at L = 12 span e^189 over the box, and the
    # refinement sweeps cannot recover the light corners; the solve's
    # maximum-principle check turns that into a step failure, not a field of
    # roundoff that the area (which does not see those corners) would accept
    monkeypatch.setattr(flow, "LOG_WEIGHT_SPAN", 400.0)
    fld = initial_field(3, 12.0, 17, "random_bump", seed=5)
    result = flow_run(initial_state(fld), t_max=50.0)
    assert result.verdict == VERDICT_STEP_FAILURE
    assert result.state.field is fld


@pytest.mark.parametrize("n, resolution, limit_mb", [(3, 33, 2.5), (2, 65, 0.3)])
def test_cached_box_keeps_two_shares_per_axis(fresh_axis_factors, n, resolution, limit_mb):
    # the full-shape shares up and down are an axis's only edge-sized arrays,
    # the inner shares being views of them: five such arrays per axis held
    # 4.44 MB at 3-D grid 33 and 0.44 MB at 2-D grid 65
    tracemalloc.start()
    try:
        flow._axis(4.0, resolution, n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= limit_mb * 1e6
