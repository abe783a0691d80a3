import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special, stats

from gaussmin.density import horizontal_gaussian
from gaussmin.graph import GraphFunction
from gaussmin.measure import (
    QuadratureSpec,
    VolumeBoundReport,
    ball_quadrature,
    bound_sweep,
    exact_lateral_tail,
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
        assert weighted_sphere_area(hg1, 1, R) == pytest.approx(
            bessel_hemisphere_oracle(R), abs=1e-10
        )


def test_sphere_area_zero_radius_and_doubling():
    hg2 = horizontal_gaussian(2)
    assert weighted_sphere_area(hg2, 2, 0.0) == 0.0
    up = weighted_sphere_area(hg2, 2, 1.0, upper_half=True)
    full = weighted_sphere_area(hg2, 2, 1.0, upper_half=False)
    assert full == pytest.approx(2.0 * up, abs=1e-10)


def test_sphere_area_quadrature_vs_monte_carlo():
    hg2 = horizontal_gaussian(2)
    exact = weighted_sphere_area(hg2, 2, 1.0)
    est, se = weighted_sphere_area_mc(hg2, 2, 1.0, True, samples=200_000, seed=13)
    assert abs(est - exact) <= 3.0 * se


def test_sphere_area_vertical_translation_invariance():
    hg2 = horizontal_gaussian(2)
    base = weighted_sphere_area(hg2, 2, 1.5)
    shifted = weighted_sphere_area(hg2, 2, 1.5, axis_offset=3.0)
    assert shifted == pytest.approx(base, abs=1e-12)
    mc0, _ = weighted_sphere_area_mc(hg2, 2, 1.5, True, samples=50_000, seed=4)
    mc3, _ = weighted_sphere_area_mc(hg2, 2, 1.5, True, samples=50_000, seed=4, axis_offset=3.0)
    assert mc3 == pytest.approx(mc0, abs=1e-12)


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


# ------------------------------------------------------------------ bound report

def test_tail_values():
    assert exact_lateral_tail(1, 1.0) == pytest.approx(0.48394144903828673, abs=1e-14)
    assert nominal_lateral_tail(2, 1.0) == pytest.approx(
        2.0 * math.exp(-1.0) * math.pi, abs=1e-14
    )


def test_tails_decrease_to_zero_beyond_two():
    for n in (1, 2, 3):
        radii = np.linspace(2.0, 10.0, 17)
        ex = [exact_lateral_tail(n, r) for r in radii]
        nom = [nominal_lateral_tail(n, r) for r in radii]
        assert all(a > b for a, b in zip(ex, ex[1:]))
        assert all(a > b for a, b in zip(nom, nom[1:]))
        assert ex[-1] < 1e-15 and nom[-1] < 1e-15


def test_volume_bound_report_constant_graph():
    rep = volume_bound_report(GraphFunction.constant(2, 0.0), 2, 2.0)
    assert rep.lhs == pytest.approx(1.0 - math.exp(-2.0), abs=1e-10)
    assert rep.ball_term == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)
    assert rep.nominal_tail > 0.0 and rep.exact_tail > 0.0
    assert rep.chain_ok and rep.hemisphere_ok
    assert rep.lhs <= rep.hemisphere + 1e-9


def test_bound_sweep_all_chains_ok():
    rows = bound_sweep(2, np.linspace(0.5, 6.0, 12))
    assert len(rows) == 12
    assert all(r.chain_ok for r in rows)
    assert all(r.hemisphere_ok for r in rows)


def test_csv_row_shape():
    rep = volume_bound_report(GraphFunction.constant(1, 0.0), 1, 1.0)
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
        QuadratureSpec(order=1)
    with pytest.raises(ValueError):
        QuadratureSpec(samples=10)
