import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaussmin import graph
from gaussmin.density import Density, DomainError, Profile, horizontal_gaussian
from gaussmin.graph import (
    _PRESETS,
    BUMP_COUNT,
    SINUSOID_AMPLITUDE,
    GraphFunction,
    MINIMAL_HORIZONTAL,
    MINIMAL_TILTED,
    NOT_MINIMAL,
    QUAD_LOG_ROOT_CANDIDATES,
    QUAD_LOG_STATIONARY_HEIGHT,
    as_parametric,
    audit_root_candidates,
    bernstein_functional,
    graph_curvature_samples,
    graph_preset,
    graph_presets,
    graph_slope,
    graph_weighted_mean_curvature,
    horizontal_plane_roots,
    hyperplane_minimality,
    tangent_distance_suite,
)
from gaussmin.measure import (
    _MC_CHUNK,
    _ROW_BLOCK,
    QuadratureSpec,
    gaussian_ball_volume,
    graph_cap_weighted_area,
)
from gaussmin.rng import DEFAULT_SEED, VERIFY_STREAMS, substream
from gaussmin.surface import CurvatureReport, tangent_plane_distance, weighted_mean_curvature
from oracles import (
    central_difference,
    classify_hyperplane,
    graph_mean_curvature,
    random_quadratic_graph,
    same_bits,
)

HG2 = horizontal_gaussian(2)
ROOT = (math.sqrt(17.0) - 1.0) / 8.0  # zero of 4z^2 + z - 1 (quadratic formula)


# ----------------------------------------------------------------- slope and H

def test_slope_examples():
    assert graph_slope(GraphFunction.constant(2, 3.0), [0.4, 0.1]) == pytest.approx(1.0)
    assert graph_slope(GraphFunction.linear([1.0, 0.0]), [0.2, 0.9]) == pytest.approx(
        math.sqrt(2.0)
    )
    assert graph_slope(GraphFunction.parabola(2), [1.0, 0.0]) == pytest.approx(
        math.sqrt(5.0)
    )


@given(st.lists(st.floats(min_value=-4, max_value=4), min_size=2, max_size=2))
def test_slope_at_least_one(v):
    u = GraphFunction.parabola(2)
    assert graph_slope(u, np.asarray(v)) >= 1.0


def test_parabola_mean_curvature_closed_form():
    u = GraphFunction.parabola(2)
    assert graph_mean_curvature(u, [0.0, 0.0]) == pytest.approx(2.0, abs=1e-14)
    assert graph_mean_curvature(u, [1.0, 0.0]) == pytest.approx(
        0.17888543819998318, abs=1e-14
    )


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=2))
def test_linear_graphs_are_flat(v):
    u = GraphFunction.quadratic_form(0.3, [0.8, -0.4], np.zeros((2, 2)))
    assert graph_mean_curvature(u, np.asarray(v)) == pytest.approx(0.0, abs=1e-13)


def test_mean_curvature_against_flux_divergence_oracle():
    # independent route: central differences of the flux grad u / W
    u = GraphFunction.parabola(2)

    def flux(x):
        g = u.gradient(x)
        return g / np.sqrt(1.0 + np.sum(g * g, axis=-1))[..., None]

    h = 1e-5
    for x in ([0.3, 0.2], [1.0, -0.5], [-2.0, 0.8]):
        x = np.asarray(x)
        div = sum(
            (flux(x + h * e)[i] - flux(x - h * e)[i]) / (2 * h)
            for i, e in enumerate(np.eye(2))
        )
        assert graph_mean_curvature(u, x) == pytest.approx(div, abs=1e-6)


# ------------------------------------------------------------- weighted variant

def test_parabola_with_companion_profile_is_weighted_minimal():
    dens = Density.product(Density.gaussian(2), Profile.quad_log())
    u = GraphFunction.parabola(2)
    rng = substream(3, 0)
    pts = np.stack(
        [np.linspace(-3.0, 3.0, 200), rng.uniform(-3.0, 3.0, 200)], axis=-1
    )
    _, _, hf = graph_curvature_samples(u, dens, pts)
    assert np.max(np.abs(hf)) <= 1e-8


def test_constant_graph_weighted_minimal_over_gauss_strip():
    u = GraphFunction.constant(2, 1.3)
    _, _, hf = graph_curvature_samples(u, HG2, np.array([[0.2, -1.0], [2.0, 2.0]]))
    assert np.max(np.abs(hf)) <= 1e-14


def test_linear_graph_report_values():
    rep = graph_weighted_mean_curvature(GraphFunction.linear([1.0, 0.0]), HG2, [1.0, 0.0])
    assert rep.mean_curvature == pytest.approx(0.0, abs=1e-14)
    assert rep.density_term == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-14)
    assert rep.weighted_mean_curvature == pytest.approx(-0.70710678, abs=1e-7)


@pytest.mark.parametrize("u", [GraphFunction.constant(2, 0.7), GraphFunction.parabola(2)])
def test_zero_slope_normal_has_no_negative_zero(u):
    # `curvature` prints the normal: a flat direction reads 0.0, not -0.0
    for x in ([0.0, 0.5], [[0.0, 0.5], [0.0, -1.5]]):
        normal = graph_weighted_mean_curvature(u, HG2, x).unit_normal
        assert not np.any(np.signbit(normal)), (u.name, x)


def test_graph_matches_parametric_embedding():
    box = ((-2.0, 2.0), (-2.0, 2.0))
    rng = substream(17, 0)
    for name, u in graph_presets(2).items():
        surf = as_parametric(u, box)
        for _ in range(20):
            p = rng.uniform(-2.0, 2.0, size=2)
            rep_g = graph_weighted_mean_curvature(u, HG2, p)
            rep_s = weighted_mean_curvature(surf, HG2, p)
            assert rep_g.mean_curvature == pytest.approx(
                rep_s.mean_curvature, abs=1e-6
            ), name
            assert rep_g.weighted_mean_curvature == pytest.approx(
                rep_s.weighted_mean_curvature, abs=1e-6
            ), name


@pytest.mark.parametrize("name", ["constant", "linear", "parabola", "sinusoid", "random_bump"])
def test_batched_graph_report_matches_pointwise_calls(name):
    u = graph_presets(2)[name]
    pts = substream(23, 0).uniform(-2.0, 2.0, size=(21, 21, 2))
    batch = graph_weighted_mean_curvature(u, HG2, pts)
    for idx in np.ndindex(pts.shape[:-1]):
        single = graph_weighted_mean_curvature(u, HG2, pts[idx])
        for field in dataclasses.fields(CurvatureReport):
            diff = np.abs(getattr(batch, field.name)[idx] - getattr(single, field.name))
            assert np.max(diff) <= 1e-15, (field.name, idx)


def difference_gradient_and_hessian(u, x):
    """Gradient of u.value with step 1e-6, and the symmetrized Hessian as
    step-1e-4 differences of that gradient."""
    def grad(p):
        return central_difference(u.value, p, 1e-6)

    hess = central_difference(grad, x, 1e-4)
    return grad(x), 0.5 * (hess + np.swapaxes(hess, -1, -2))


def test_sinusoid_derivatives_match_central_differences():
    u = GraphFunction.sinusoid(2)
    for p in ([0.3, -1.2], [1.7, 0.4]):
        grad, hess = difference_gradient_and_hessian(u, p)
        assert np.max(np.abs(u.gradient(p) - grad)) <= 1e-6
        assert np.max(np.abs(u.hessian(p) - hess)) <= 1e-4


# ------------------------------------------- column kernels vs broadcast formulas

def broadcast_random_bump(n: int, seed: int, amplitude: float = 0.3):
    """(value, gradient, Hessian) of random_bump from (..., bumps, n) arrays,
    each reduced by np.sum over its bump axis."""
    rng = substream(seed, 0)
    centers = rng.uniform(-2.0, 2.0, size=(BUMP_COUNT, n))
    widths = rng.uniform(0.8, 1.6, size=BUMP_COUNT)
    heights = rng.uniform(-1.0, 1.0, size=BUMP_COUNT)
    h2 = widths**2

    def bumps_at(x):
        diff = x[..., None, :] - centers
        return diff, heights * np.exp(-np.sum(diff**2, axis=-1) / (2.0 * h2))

    axis = np.linspace(-4.0, 4.0, 161)

    def probe_max(a):  # one first-coordinate slice of the 161^n probe; max is exact
        pts = np.stack(np.meshgrid([a], *([axis] * (n - 1)), indexing="ij"), axis=-1)
        return np.max(np.abs(np.sum(bumps_at(pts)[1], axis=-1)))

    scale = amplitude / max(probe_max(a) for a in axis)

    def value(x):
        return scale * np.sum(bumps_at(x)[1], axis=-1)

    def grad(x):
        diff, bump = bumps_at(x)
        return scale * np.sum(-bump[..., None] * diff / h2[:, None], axis=-2)

    def hess(x):
        diff, bump = bumps_at(x)
        outer = diff[..., :, None] * diff[..., None, :]
        terms = bump[..., None, None] * (
            outer / h2[:, None, None] ** 2 - np.eye(n) / h2[:, None, None]
        )
        return scale * np.sum(terms, axis=-3)

    return value, grad, hess


def broadcast_sinusoid(n: int, half_width: float = 4.0):
    """(value, gradient, Hessian) of the sinusoid from np.sin and np.cos of
    whole (..., n) arrays, with np.prod and np.delete over coordinates."""
    k = math.pi / half_width

    def value(x):
        return SINUSOID_AMPLITUDE * np.prod(np.sin(k * x), axis=-1)

    def grad(x):
        s, c = np.sin(k * x), np.cos(k * x)
        g = np.empty_like(x)
        for i in range(n):
            others = np.prod(np.delete(s, i, axis=-1), axis=-1) if n > 1 else 1.0
            g[..., i] = SINUSOID_AMPLITUDE * k * c[..., i] * others
        return g

    def hess(x):
        s, c = np.sin(k * x), np.cos(k * x)
        h = np.empty(x.shape + (n,))
        for i in range(n):
            for j in range(n):
                fac = np.ones(x.shape[:-1])
                for l in range(n):
                    if l == i == j:
                        fac = fac * (-(k**2) * s[..., l])
                    elif l in (i, j):
                        fac = fac * k * c[..., l]
                    else:
                        fac = fac * s[..., l]
                h[..., i, j] = SINUSOID_AMPLITUDE * fac
        return h

    return value, grad, hess


def kernel_sample_points(n: int, seed: int):
    """Points of shape (n,), (k, n) and (a, b, n); the far ones make bumps
    underflow, where only the summation order fixes the signs of zeros."""
    rng = substream(seed, 77)
    shapes = [(n,), (3000, n), (5, 6, n)]
    return [rng.uniform(-4.0, 4.0, shape) for shape in shapes] + [
        np.zeros(n), rng.uniform(-90.0, 90.0, (500, n))]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 5, 7387])
def test_random_bump_columns_match_broadcast_formulas(n, seed):
    u = GraphFunction.random_bump(n, seed=seed)
    value, grad, hess = broadcast_random_bump(n, seed)
    for x in kernel_sample_points(n, seed):
        assert np.array_equal(u.value(x), value(x))
        assert np.array_equal(u.gradient(x), grad(x))
        assert np.array_equal(u.hessian(x), hess(x))
        # stricter than array_equal: the signs of zeros agree too
        assert same_bits(u.value(x), value(x)) and same_bits(u.gradient(x), grad(x))
        assert same_bits(u.hessian(x), hess(x))


@pytest.mark.parametrize("n", [1, 2, 3, 4])  # from n = 4 on, product order shows in the bits
def test_sinusoid_columns_match_broadcast_formulas(n):
    u = GraphFunction.sinusoid(n)
    value, grad, hess = broadcast_sinusoid(n)
    for x in kernel_sample_points(n, 11):
        assert np.array_equal(u.value(x), value(x))
        assert np.array_equal(u.gradient(x), grad(x))
        assert np.array_equal(u.hessian(x), hess(x))
        assert same_bits(u.value(x), value(x)) and same_bits(u.gradient(x), grad(x))


# --------------------------------------------------------------------- the jet

def assert_jet_matches_views(u, x):
    views = (u.value(x), u.gradient(x), u.hessian(x))
    for order in range(3):
        terms = u.jet(x, order)
        assert len(terms) == order + 1
        for term, view in zip(terms, views):
            assert same_bits(term, view), order


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", list(_PRESETS))
def test_jet_of_every_order_matches_value_gradient_and_hessian(name, n):
    u = graph_preset(name, n, seed=7387)
    for x in kernel_sample_points(n, 3):
        assert_jet_matches_views(u, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_of_stacked_quadratic_family_matches_its_views(n):
    rng = substream(41, n)
    c, a, q = (rng.uniform(-1.0, 1.0, shape) for shape in [6, (6, n), (6, n, n)])
    family = GraphFunction.quadratic_form(c, a, q)
    x = kernel_sample_points(n, 3)[2]  # shape (5, 6, n): one point per member, five times
    for pts in (x, x[0]):
        assert_jet_matches_views(family, pts)


def stacks_and_layouts(n: int):
    """Stacks of leading shapes (), (k,) and (a, b), near and far out, each
    as a C- and an F-ordered copy."""
    rng = substream(43, n)
    stacks = [rng.uniform(-4.0, 4.0, shape) for shape in [(n,), (200, n), (12, 15, n)]]
    stacks.append(rng.uniform(-90.0, 90.0, (3, 4, n)))
    return [layout(x) for x in stacks for layout in (np.ascontiguousarray, np.asfortranarray)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", list(_PRESETS))
def test_stacked_jets_and_curvature_match_each_points_bit_for_bit(name, n):
    # jets return fresh arrays: callers such as the cap integrand overwrite them
    u = graph_preset(name, n, seed=7387)
    for x in stacks_and_layouts(n):
        points = list(np.ndindex(x.shape[:-1]))
        for order in range(3):
            terms = u.jet(x, order)
            for k, term in enumerate(terms):
                assert not np.may_share_memory(term, x), order
                assert not any(np.may_share_memory(term, other) for other in terms[k + 1:]), order
            for idx in points:
                alone = u.jet(x[idx].copy(), order)
                assert all(same_bits(t[idx], a) for t, a in zip(terms, alone)), (order, idx)
        h = graph_mean_curvature(u, x)
        assert all(same_bits(h[idx], graph_mean_curvature(u, x[idx].copy())) for idx in points)


def counted_jet(u):
    """u with a jet that logs (points shape, order) per call."""
    calls = []

    def jet(x, order):
        calls.append((x.shape, order))
        return u.jet(x, order)

    return dataclasses.replace(u, jet=jet), calls


def test_cap_and_curvature_build_one_jet_per_row_block():
    u = graph_preset("random_bump", 2, seed=7387)
    counted, calls = counted_jet(u)
    spec = QuadratureSpec(method="monte_carlo", samples=1_000_000, seed=3)
    area = graph_cap_weighted_area(counted, 1.9, spec)
    assert same_bits(area, graph_cap_weighted_area(u, 1.9, spec))
    # u(0) once, then one first-order jet per row block: each of the three
    # full chunks in whole blocks, then the last chunk's 213,568 samples as
    # whole blocks and one short one; chunks may run on two threads, so the
    # blocks after u(0) come in no fixed order
    last = 1_000_000 - 3 * _MC_CHUNK
    assert calls[0] == ((2,), 0)
    assert Counter(calls[1:]) == Counter({
        ((_ROW_BLOCK, 2), 1): 3 * (_MC_CHUNK // _ROW_BLOCK) + last // _ROW_BLOCK,
        ((last % _ROW_BLOCK, 2), 1): 1,
    })
    x = substream(5, 0).uniform(-2.0, 2.0, size=(9, 7, 2))
    calls.clear()
    graph_weighted_mean_curvature(counted, HG2, x)
    graph_mean_curvature(counted, x)
    assert calls == [((9, 7, 2), 2)] * 2


def test_parametric_embedding_makes_one_graph_jet_call_per_jet_call():
    counted, calls = counted_jet(graph_preset("random_bump", 2, seed=7387))
    surf = as_parametric(counted, ((-2.0, 2.0),) * 2)
    x = substream(5, 0).uniform(-2.0, 2.0, size=(9, 7, 2))
    for order in range(3):
        surf.jet(x, order)
    assert calls == [((9, 7, 2), order) for order in range(3)]


def test_graph_function_needs_a_jet():
    with pytest.raises(TypeError):
        GraphFunction(dimension=2, name="bare")
    with pytest.raises(TypeError):
        GraphFunction(dimension=2, u=lambda x: x[..., 0])


# ----------------------------------------------------------- hyperplane classes

def test_horizontal_plane_classification():
    prof = Profile.quad_log()
    assert hyperplane_minimality([0.0, 0.0], -ROOT, prof) == MINIMAL_HORIZONTAL
    assert hyperplane_minimality([0.0, 0.0], -1.0, prof) == NOT_MINIMAL


def test_monotone_profile_admits_no_minimal_plane():
    prof = Profile.linear(1.0)  # h' = 1 > 0
    assert hyperplane_minimality([0.0, 0.0], 0.3, prof) == NOT_MINIMAL
    assert hyperplane_minimality([1.0, 0.0], 0.3, prof) == NOT_MINIMAL


def test_tilted_plane_needs_matching_quadratic_profile():
    assert (
        hyperplane_minimality([1.0, 0.0], 0.4, Profile.quadratic(c=0.4, b=2.0))
        == MINIMAL_TILTED
    )
    assert (
        hyperplane_minimality([1.0, 0.0], 0.3, Profile.quadratic(c=0.4))
        == NOT_MINIMAL
    )
    assert (
        hyperplane_minimality([0.5, -1.0], -0.2, Profile.quadratic(c=-0.2))
        == MINIMAL_TILTED
    )


@given(st.floats(min_value=-40, max_value=40).filter(lambda s: abs(s) > 1e-3))
def test_classification_invariant_under_rescaling(scale):
    prof = Profile.quadratic(c=0.4)
    base = classify_hyperplane([1.0, 0.0, 1.0], 0.4, prof)
    scaled = classify_hyperplane(
        [scale * 1.0, 0.0, scale * 1.0], scale * 0.4, prof
    )
    assert base == scaled == MINIMAL_TILTED


def test_vertical_plane_rejected():
    with pytest.raises(ValueError):
        classify_hyperplane([1.0, 0.0, 0.0], 0.2, Profile.quadratic())


# -------------------------------------------------------------------- roots

def test_quad_log_root_matches_quadratic_formula():
    scan = horizontal_plane_roots(Profile.quad_log(), (0.0, 2.0))
    assert not scan.identically_zero
    assert len(scan.roots) == 1
    assert scan.roots[0] == pytest.approx(ROOT, abs=1e-10)
    assert abs(Profile.quad_log().slope(scan.roots[0])) <= 1e-10


def test_quadratic_profile_root():
    scan = horizontal_plane_roots(Profile.quadratic(c=0.0), (-1.0, 1.0))
    assert scan.roots == pytest.approx((0.0,), abs=1e-12)
    scan2 = horizontal_plane_roots(Profile.quadratic(c=0.3), (-1.0, 1.0))
    assert scan2.roots[0] == pytest.approx(-0.3, abs=1e-12)


def test_constant_profile_is_identically_zero():
    scan = horizontal_plane_roots(Profile.constant(2.0), (-1.0, 1.0))
    assert scan.identically_zero and scan.roots == ()


def test_interval_outside_domain_raises():
    with pytest.raises(DomainError):
        horizontal_plane_roots(Profile.quad_log(), (-1.0, 1.0))


def test_candidate_audit_flags_the_sign_slipped_height():
    report = audit_root_candidates(Profile.quad_log(), QUAD_LOG_ROOT_CANDIDATES)
    assert report[0]["is_root"] and report[0]["value"] == pytest.approx(ROOT, abs=1e-12)
    assert not report[1]["is_root"]
    assert report[1]["slope"] == pytest.approx(0.7192235935955849, abs=1e-12)
    assert QUAD_LOG_STATIONARY_HEIGHT == pytest.approx(ROOT, abs=0)


# ---------------------------------------------------------- weighted area bound

def test_bernstein_functional_constant_is_ball_mass():
    val = bernstein_functional(GraphFunction.constant(2, 0.4), truncation=8.0)
    assert val == pytest.approx(1.0 - math.exp(-32.0), abs=1e-9)


@pytest.mark.parametrize("a", [0.1, 1.0])
def test_bernstein_functional_linear_closed_form(a):
    val = bernstein_functional(GraphFunction.linear([a, 0.0]), truncation=8.0)
    assert val == pytest.approx(math.sqrt(1.0 + a * a), abs=1e-6)


def test_bernstein_rigidity_gap_for_nonconstant_presets():
    for name, u in graph_presets(2).items():
        val = bernstein_functional(u, truncation=8.0)
        if name == "constant":
            assert val == pytest.approx(gaussian_ball_volume(2, 8.0), abs=1e-9)
        else:
            assert val > 1.0 + 1e-8, name


def test_bernstein_lower_bound_by_ball_mass():
    for n in (1, 2, 3):
        for R in (1.0, 3.0):
            u = random_quadratic_graph(23, n * 10 + int(R), n)
            assert bernstein_functional(u, R) >= gaussian_ball_volume(n, R) - 1e-10


def test_bernstein_monte_carlo_route_agrees():
    u = GraphFunction.linear([1.0, 0.0])
    mc = bernstein_functional(
        u, 8.0, QuadratureSpec(method="monte_carlo", samples=200_000, seed=5)
    )
    assert mc == pytest.approx(math.sqrt(2.0), abs=5e-3)


def test_quadratic_form_derivatives_match_fd():
    u = GraphFunction.quadratic_form(0.3, [0.5, -0.2], [[0.4, 0.1], [0.1, -0.3]])
    x = np.array([0.7, -1.1])
    grad, hess = difference_gradient_and_hessian(u, x)
    assert np.max(np.abs(u.gradient(x) - grad)) <= 1e-6
    assert np.max(np.abs(u.hessian(x) - hess)) <= 1e-4


def test_stacked_quadratic_form_matches_its_members():
    rng = substream(31, 0)
    c, a, q = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2, 2))
    family = GraphFunction.quadratic_form(c, a, q)
    x = rng.uniform(-2, 2, (5, 2))
    for k in range(5):
        member = GraphFunction.quadratic_form(c[k], a[k], q[k])
        assert family.value(x)[k] == pytest.approx(member.value(x[k]), abs=1e-15)
        assert np.allclose(family.gradient(x)[k], member.gradient(x[k]), rtol=0, atol=1e-15)
        assert np.array_equal(family.hessian(x)[k], member.hessian(x[k]))


def test_tangent_suite_matches_one_graph_per_trial(monkeypatch):
    # the suite's stream draws the stacked intercepts, linear terms, quadratic
    # terms and chart points in that order; each trial, rebuilt alone from
    # those draws, gives the suite's lhs and rhs bit for bit
    seen = []

    def recorded(surface, p):
        seen.append(tangent_plane_distance(surface, p))
        return seen[-1]

    monkeypatch.setattr(graph, "tangent_plane_distance", recorded)
    for seed, trials in ((0, 100), (7387, 100), (DEFAULT_SEED, 0)):
        seen.clear()
        monkeypatch.setattr(graph, "TANGENT_SUITE_TRIALS", trials)
        worst = tangent_distance_suite(seed=seed)
        (lhs, rhs), = seen
        rng = substream(seed, VERIFY_STREAMS["tangent_distance"])
        c, a = rng.uniform(-1.0, 1.0, trials), rng.uniform(-1.0, 1.0, (trials, 2))
        q, p = rng.uniform(-0.5, 0.5, (trials, 2, 2)), rng.uniform(-2.0, 2.0, (trials, 2))
        assert lhs.shape == rhs.shape == (trials,)
        for i in range(trials):
            surf = as_parametric(GraphFunction.quadratic_form(c[i], a[i], q[i]), ((-2.0, 2.0),) * 2)
            one = tangent_plane_distance(surf, p[i])
            assert same_bits(one[0], lhs[i]) and same_bits(one[1], rhs[i]), (seed, i)
        assert worst == float(np.max(np.abs(lhs - rhs), initial=0.0))


def test_presets_are_built_one_at_a_time():
    x = substream(5, 0).uniform(-2.0, 2.0, size=(7, 2))
    for name, u in graph_presets(2, seed=5).items():
        assert np.array_equal(graph_preset(name, 2, seed=5).value(x), u.value(x))
    with pytest.raises(KeyError):
        graph_preset("vortex", 2)
    with pytest.raises(ValueError):
        GraphFunction.random_bump(4)
