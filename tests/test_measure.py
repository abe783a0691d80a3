import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special, stats

from gaussmin.density import density_from_name, horizontal_gaussian, sq_norm
from gaussmin.graph import GraphFunction, graph_preset
from gaussmin.measure import (
    _MC_CHUNK,
    _ROW_BLOCK,
    QuadratureSpec,
    VolumeBoundReport,
    ball_quadrature,
    bound_sweep,
    exact_lateral_tail,
    gaussian_ball_integral,
    gaussian_ball_volume,
    gaussian_ball_volume_mc,
    gaussian_mc_mean,
    graph_cap_weighted_area,
    nominal_lateral_tail,
    unit_ball_volume,
    unit_sphere_area,
    volume_bound_report,
    weighted_sphere_area,
    weighted_sphere_area_mc,
)
from gaussmin.rng import substream
from oracles import lateral_tails


# ----------------------------------------------------------------- closed forms

def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.18879020478639, abs=1e-12)


def test_unit_ball_volume_monte_carlo_cross_check():
    rng = substream(29, 0)
    pts = rng.uniform(-1.0, 1.0, size=(400_000, 3))
    inside = (np.sum(pts * pts, axis=-1) <= 1.0).astype(float)
    est = 8.0 * float(np.mean(inside))
    se = 8.0 * float(np.std(inside) / math.sqrt(len(inside)))
    assert abs(est - unit_ball_volume(3)) <= 3.0 * se


def test_unit_sphere_area_equals_n_times_ball_volume():
    for n in (1, 2, 3, 4):
        assert unit_sphere_area(n) == pytest.approx(n * unit_ball_volume(n), rel=1e-13)


def test_closed_forms_raise_where_gamma_overflows():
    # C_341 ~ 1e-219 and |S^342| are floats; past them Gamma(n/2 [+ 1]) is inf
    assert unit_ball_volume(341) == pytest.approx(
        math.exp(170.5 * math.log(math.pi) - math.lgamma(171.5)), rel=1e-12
    )
    assert unit_sphere_area(343) > 0.0
    with pytest.raises(OverflowError):
        unit_ball_volume(342)
    with pytest.raises(OverflowError):
        unit_sphere_area(344)


def test_gaussian_ball_volume_values():
    assert gaussian_ball_volume(2, 1.0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    assert gaussian_ball_volume(1, 1.0) == pytest.approx(
        special.erf(1.0 / math.sqrt(2.0)), abs=1e-14
    )
    assert gaussian_ball_volume(3, 0.0) == 0.0
    assert gaussian_ball_volume(2, 40.0) == pytest.approx(1.0, abs=1e-15)


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_gaussian_ball_volume_monotone_and_bounded(n, r, dr):
    lo, hi = gaussian_ball_volume(n, r), gaussian_ball_volume(n, r + dr)
    assert 0.0 <= lo <= hi <= 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 4.0])
def test_gaussian_ball_volume_monte_carlo_three_sigma(n, R):
    est, se = gaussian_ball_volume_mc(n, R, samples=200_000, seed=31)
    assert abs(est - gaussian_ball_volume(n, R)) <= 3.0 * max(se, 1e-12)


def test_monte_carlo_is_bit_reproducible():
    a = gaussian_ball_volume_mc(2, 1.0, samples=150_000, seed=99)
    b = gaussian_ball_volume_mc(2, 1.0, samples=150_000, seed=99)
    assert a == b
    est, _ = gaussian_mc_mean(lambda x: np.sum(x * x, axis=-1), 2, 150_000, 99)
    est2, _ = gaussian_mc_mean(lambda x: np.sum(x * x, axis=-1), 2, 150_000, 99)
    assert est == est2


def whole_chunk_mc_mean(fn, n, samples, seed):
    """gaussian_mc_mean as one fn call per 2^18-sample chunk of substream(seed, k)."""
    chunk, total, total_sq = 1 << 18, 0.0, 0.0
    for k, start in enumerate(range(0, samples, chunk)):
        v = np.asarray(fn(substream(seed, k).standard_normal((min(chunk, samples - start), n))))
        total += float(np.sum(v))
        total_sq += float(np.sum(v * v))
    mean = total / samples
    return mean, math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)


@pytest.mark.parametrize("n", [1, 3, 9])
def test_row_blocks_match_whole_chunk_evaluation_bit_for_bit(n):
    # 600,001 samples: two chunk boundaries, and a last chunk that is not a
    # whole number of row blocks; at n = 9 sq_norm takes its np.sum path
    def fn(x):
        r2 = sq_norm(x)
        return np.sqrt(1.0 + r2) * np.exp(-0.25 * x[:, -1]) * (r2 <= 1.2 * n)

    got = gaussian_mc_mean(fn, n, 600_001, 17)
    assert np.array(got).tobytes() == np.array(whole_chunk_mc_mean(fn, n, 600_001, 17)).tobytes()


@pytest.mark.parametrize("cpus", [None, 1])
@pytest.mark.parametrize("samples", [1 << 18, (1 << 18) + 1, 1_000_000])
def test_threaded_chunks_match_whole_chunk_evaluation_bit_for_bit(monkeypatch, samples, cpus):
    # one chunk starts no thread; more chunks run on every allowed CPU, or
    # on the calling thread alone when one CPU is allowed
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    def fn(x):
        r2 = sq_norm(x)
        return np.sqrt(1.0 + r2) * np.cos(x[:, 0]) * (r2 <= 5.0)

    got = gaussian_mc_mean(fn, 3, samples, 29)
    assert np.array(got).tobytes() == np.array(whole_chunk_mc_mean(fn, 3, samples, 29)).tobytes()


def test_eight_threads_on_a_short_switch_interval_take_each_chunk_once(monkeypatch):
    # 8 chunks on 8 threads of a smaller host, switching as often as the
    # interpreter allows: a chunk lost or taken twice changes the call count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    calls = itertools.count()

    def fn(x):
        next(calls)
        return np.cos(x[:, 0]) * x[:, 1]

    samples = 7 * (1 << 18) + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = gaussian_mc_mean(fn, 2, samples, 41)
    finally:
        sys.setswitchinterval(interval)
    assert next(calls) == 7 * (_MC_CHUNK // _ROW_BLOCK) + 1
    assert np.array(got).tobytes() == np.array(whole_chunk_mc_mean(fn, 2, samples, 41)).tobytes()


# past chunk 0's row blocks, so on two threads either one may fail; a
# 1M-sample run makes 3 * _MC_CHUNK // _ROW_BLOCK + 7 calls in all
FAILING_CALL = _MC_CHUNK // _ROW_BLOCK + 2


def failing_from_call(k, fail):
    """An integrand whose k-th and later calls run ``fail`` on their rows."""
    calls = itertools.count(1)

    def fn(x):
        return fail(x) if next(calls) >= k else x[:, 0]

    return fn


def test_an_integrand_error_in_any_thread_reaches_the_caller():
    def fail(x):
        raise ValueError("integrand failed")

    before = threading.active_count()
    with pytest.raises(ValueError, match="integrand failed"):
        gaussian_mc_mean(failing_from_call(FAILING_CALL, fail), 2, 1_000_000, 3)
    assert threading.active_count() == before


def test_the_callers_errstate_reaches_every_thread():
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        gaussian_mc_mean(
            failing_from_call(FAILING_CALL, lambda x: np.exp(1e3 + x[:, 0])), 2, 1_000_000, 3)


def test_ball_quadrature_blocks_match_one_shot_evaluation_bit_for_bit():
    # the n = 3 ball rule: 64 x 64^2 = 262,144 nodes, as many as a chunk has samples
    u, R = graph_preset("random_bump", 3, 7387), 1.7
    u0 = float(u.value(np.zeros(3)))
    rows = []

    def fn(x):
        rows.append(len(x))
        value, grad = u.jet(x, 1)
        return np.sqrt(1.0 + sq_norm(grad)) * (sq_norm(x) + (value - u0) ** 2 <= R * R)

    got = gaussian_ball_integral(fn, 3, R, QuadratureSpec())
    assert rows == [_ROW_BLOCK] * (_MC_CHUNK // _ROW_BLOCK)
    pts, wts = ball_quadrature(3, R)
    weight = (2.0 * math.pi) ** -1.5 * np.exp(-0.5 * sq_norm(pts))
    assert got == float(np.sum(wts * weight * fn(pts)))
    assert got == graph_cap_weighted_area(u, R, QuadratureSpec())


@pytest.mark.parametrize("samples", [0, -5])
def test_monte_carlo_needs_at_least_one_sample(samples):
    with pytest.raises(ValueError):
        gaussian_mc_mean(lambda x: x[:, 0], 2, samples)
    with pytest.raises(ValueError):
        gaussian_ball_volume_mc(2, 1.0, samples)
    with pytest.raises(ValueError):
        weighted_sphere_area_mc(horizontal_gaussian(2), 1.0, samples=samples)
    assert gaussian_mc_mean(lambda x: x[:, 0], 2, 1)[1] == 0.0


# ----------------------------------------------------------------- quadratures

def test_ball_quadrature_integrates_volume():
    for n in (1, 2, 3):
        pts, wts = ball_quadrature(n, 1.5)
        assert pts.shape[1] == n
        assert float(np.sum(wts)) == pytest.approx(
            unit_ball_volume(n) * 1.5**n, rel=1e-10
        )


# ----------------------------------------------------------------- sphere areas

def bessel_hemisphere_oracle(R: float) -> float:
    # independent closed form for n = 1: (R / sqrt(2 pi)) pi e^{-R^2/4} I0(R^2/4)
    return float(
        R / math.sqrt(2.0 * math.pi) * math.pi * math.exp(-R * R / 4.0) * special.i0(R * R / 4.0)
    )


def test_hemisphere_matches_bessel_oracle():
    hg1 = horizontal_gaussian(1)
    for R in (0.5, 1.0, 3.0, 6.0):
        assert weighted_sphere_area(hg1, R) == pytest.approx(
            bessel_hemisphere_oracle(R), abs=1e-10
        )


def test_sphere_area_zero_radius_and_doubling():
    hg2 = horizontal_gaussian(2)
    assert weighted_sphere_area(hg2, 0.0) == 0.0
    up = weighted_sphere_area(hg2, 1.0, upper_half=True)
    full = weighted_sphere_area(hg2, 1.0, upper_half=False)
    assert full == pytest.approx(2.0 * up, abs=1e-10)


def test_sphere_area_quadrature_vs_monte_carlo():
    # the polar-angle rule assumes rotation invariance in the horizontal
    # coordinates; sampling the whole sphere does not
    cases = [(2, horizontal_gaussian(2))] + [
        (n, density_from_name(preset, n + 1))
        for preset in ("gaussian", "radial:quadratic", "product:gaussian+quadratic")
        for n in (1, 3, 5)
    ]
    for n, dens in cases:
        exact = weighted_sphere_area(dens, 1.0)
        est, se = weighted_sphere_area_mc(dens, 1.0, True, samples=200_000, seed=13)
        assert abs(est - exact) <= 3.0 * se


def gaussian_sphere_area_oracle(n: int, R: float) -> float:
    # full sphere under horizontal_gaussian(n), integrated in the polar angle:
    # |S^{n-1}| R^n (2 pi)^{-n/2} B(n/2, 1/2) 1F1(n/2; (n+1)/2; -R^2/2)
    return float(
        unit_sphere_area(n) * R**n * (2.0 * math.pi) ** (-n / 2.0)
        * special.beta(n / 2.0, 0.5) * special.hyp1f1(n / 2.0, (n + 1) / 2.0, -R * R / 2.0)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_sphere_and_hemisphere_match_closed_form(n):
    hg = horizontal_gaussian(n)
    # past R = sqrt(n) + 10 the Gaussian's peak gets its own polar panel
    for R in (0.1, 0.7, 2.0, 5.0, 20.0, 300.0, 1000.0):
        full = gaussian_sphere_area_oracle(n, R)
        assert weighted_sphere_area(hg, R, upper_half=False) == pytest.approx(full, rel=1e-12)
        assert weighted_sphere_area(hg, R) == pytest.approx(full / 2.0, rel=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_hemisphere_excess_over_ball_decays_like_n_over_2r2(n):
    # (hemisphere - ball mass) * 2 R^2 / n -> 1 from above
    hg = horizontal_gaussian(n)
    scaled = [
        (weighted_sphere_area(hg, R) - gaussian_ball_volume(n, R)) * 2.0 * R * R / n
        for R in (10.0, 20.0, 40.0)
    ]
    assert scaled[0] > scaled[1] > scaled[2] > 1.0
    assert scaled[2] < 1.01


@given(
    st.floats(min_value=0.1, max_value=6.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_upper_half_ball_sits_inside_cylinder(R, a, b):
    # the region used by the growth estimate: {|x|^2 + z^2 <= R^2, z >= 0}
    # is contained in {|x| <= R} x [0, R]
    x = a * R
    z = b * R
    if x * x + z * z <= R * R and z >= 0.0:
        assert abs(x) <= R and 0.0 <= z <= R


# -------------------------------------------------------------------- cap areas

def test_cap_of_constant_graph_is_ball_mass():
    u = GraphFunction.constant(2, 0.9)
    spec = QuadratureSpec()
    for R in (0.5, 2.0, 8.0):
        assert graph_cap_weighted_area(u, R, spec) == pytest.approx(
            gaussian_ball_volume(2, R), abs=1e-9
        )
    assert graph_cap_weighted_area(u, 8.0, spec) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cap_of_constant_graph_is_ball_mass_at_large_radii(n):
    # the radial nodes must sit where the Gaussian has mass, however large R is
    u = GraphFunction.constant(n, 0.0)
    for R in (20.0, 30.0, 100.0, 1000.0):
        cap = graph_cap_weighted_area(u, R, QuadratureSpec())
        assert abs(cap - special.gammainc(n / 2.0, R * R / 2.0)) <= 1e-13


def test_cap_of_tilted_plane_matches_ellipse_oracle():
    # u = x_1: the cap projects to {2 x_1^2 + x_2^2 <= R^2} with W = sqrt(2)
    R = 2.0

    def oracle():
        def inner(x1):
            s = math.sqrt(max(R * R - 2.0 * x1 * x1, 0.0))
            return stats.norm.pdf(x1) * (stats.norm.cdf(s) - stats.norm.cdf(-s))

        val, _ = integrate.quad(inner, -R / math.sqrt(2.0), R / math.sqrt(2.0), epsabs=1e-12)
        return math.sqrt(2.0) * val

    u = GraphFunction.linear([1.0, 0.0])
    est = graph_cap_weighted_area(
        u, R, QuadratureSpec(method="monte_carlo", samples=400_000, seed=21)
    )
    se = math.sqrt(2.0) / math.sqrt(400_000.0)  # std(W * indicator) <= sqrt(2)
    assert abs(est - oracle()) <= 3.0 * se


@pytest.mark.parametrize("name", ["constant", "linear", "parabola", "sinusoid", "random_bump"])
def test_monte_carlo_cap_is_the_broadcast_integrand_bit_for_bit(name):
    # 300,000 samples: a full 2^18-sample chunk and a partial one
    u, R, samples, seed = graph_preset(name, 2, 7387), 1.9, 300_000, 23
    u0 = float(u.value(np.zeros(2)))

    def integrand(x):
        g, du = u.gradient(x), u.value(x) - u0
        inside = np.sum(x * x, axis=-1) + du * du <= R * R
        return np.sqrt(1.0 + np.sum(g * g, axis=-1)) * inside

    spec = QuadratureSpec(method="monte_carlo", samples=samples, seed=seed)
    expected = gaussian_mc_mean(integrand, 2, samples, seed)[0]
    assert graph_cap_weighted_area(u, R, spec) == expected


@pytest.mark.parametrize("n", [2, 8])
def test_monte_carlo_hemisphere_is_the_linalg_norm_integrand_bit_for_bit(n):
    # at n = 8 the 9 ambient columns take sq_norm's np.sum path
    dens, R = horizontal_gaussian(n), 1.7

    def on_sphere(g):
        p = R * g / np.linalg.norm(g, axis=1, keepdims=True)
        log_weight = 0.5 * np.sum(p[:, :n] ** 2, axis=-1) + 0.5 * n * math.log(2.0 * math.pi)
        return np.exp(-log_weight) * (p[:, -1] > 0.0)

    mean, stderr = gaussian_mc_mean(on_sphere, n + 1, 20_000, 5)
    area = unit_sphere_area(n + 1) * R**n
    assert weighted_sphere_area_mc(dens, R, True, 20_000, 5) == (area * mean, area * stderr)


# ------------------------------------------------------------------ bound report

def test_tail_values():
    assert exact_lateral_tail(1, 1.0) == pytest.approx(0.48394144903828673, abs=1e-14)
    assert nominal_lateral_tail(2, 1.0) == pytest.approx(
        2.0 * math.exp(-1.0) * math.pi, abs=1e-14
    )


def test_tails_match_a_50_digit_reference():
    # one exp of a sum of logs: no intermediate overflows or goes subnormal
    for n in [*range(1, 13), 32, 100, 200, 341]:
        for R in (0.25 * k for k in range(1, 161)):
            for got, ref in zip((exact_lateral_tail(n, R), nominal_lateral_tail(n, R)), lateral_tails(n, R)):
                if ref > 1e-300:
                    assert got > 0.0 and abs(got - ref) <= 2e-13 * ref, (n, R)
    assert [exact_lateral_tail(n, 0.0) for n in (1, 2)] == [0.0, 0.0]
    assert nominal_lateral_tail(1, 0.0) == pytest.approx(2.0, rel=2e-13)  # 0^0 = 1
    assert nominal_lateral_tail(2, 0.0) == 0.0


def test_tails_decrease_to_zero_beyond_two():
    for n in (1, 2, 3):
        radii = np.linspace(2.0, 10.0, 17)
        ex = [exact_lateral_tail(n, r) for r in radii]
        nom = [nominal_lateral_tail(n, r) for r in radii]
        assert all(a > b for a, b in zip(ex, ex[1:]))
        assert all(a > b for a, b in zip(nom, nom[1:]))
        assert ex[-1] < 1e-15 and nom[-1] < 1e-15


def test_volume_bound_report_constant_graph():
    rep = volume_bound_report(2, 2.0)
    assert rep.lhs == pytest.approx(1.0 - math.exp(-2.0), abs=1e-10)
    assert rep.ball_term == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)
    assert rep.nominal_tail > 0.0 and rep.exact_tail > 0.0
    assert rep.chain_ok
    assert rep.lhs <= weighted_sphere_area(horizontal_gaussian(2), 2.0) + 1e-9


def test_bound_sweep_all_chains_ok():
    radii = np.linspace(0.5, 6.0, 12)
    rows = bound_sweep(2, radii)
    assert len(rows) == 12
    assert all(r.chain_ok for r in rows)
    hg2 = horizontal_gaussian(2)
    assert all(r.lhs <= weighted_sphere_area(hg2, float(R)) + 1e-9 for r, R in zip(rows, radii))


@pytest.mark.parametrize("n", [*range(1, 11), 32])
def test_bound_rows_match_ball_mass(n):
    radii = [0.25, 1.0, 3.0, 6.0, 10.0, 20.0, 1000.0]
    for row in bound_sweep(n, radii):
        assert abs(row.lhs - special.gammainc(n / 2.0, row.R * row.R / 2.0)) <= 1e-13


def test_csv_row_shape():
    rep = volume_bound_report(1, 1.0)
    header_cols = VolumeBoundReport.CSV_HEADER.split(",")
    row_cols = rep.csv_row().split(",")
    assert header_cols == ["n", "R", "lhs", "ball_term", "nominal_tail", "exact_tail", "chain_ok"]
    assert len(row_cols) == len(header_cols)
    assert row_cols[-1] in ("true", "false")


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(method="trapezoid")
    with pytest.raises(ValueError):
        QuadratureSpec(method="tensor_gauss_legendre")
    with pytest.raises(ValueError):
        QuadratureSpec(method="spherical_product")
    with pytest.raises(ValueError):
        QuadratureSpec(samples=10)


@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_sphere_area_past_overflowing_square_keeps_non_decaying_weight(method):
    # R^2 is no float at R = 1e200: the squares overflow to inf, where a
    # constant weight stays 1, so the upper half circle weighs pi R
    from gaussmin.density import Density, Profile

    spec = QuadratureSpec(method=method, samples=1000)
    with np.errstate(all="raise"):
        value = weighted_sphere_area(Density.radial(Profile.constant(), 2), 1e200, quad=spec)
    assert value == pytest.approx(math.pi * 1e200, rel=1e-12 if method == "quadrature" else 0.1)
