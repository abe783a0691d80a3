import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaussmin.catalog import make_associate_family, make_cylinder
from gaussmin.density import horizontal_gaussian
from gaussmin.graph import GraphFunction, as_parametric, random_quadratic_graph
from gaussmin.surface import (
    ParametricSurface,
    RankDeficiencyError,
    density_normal_pairing,
    generalized_cross,
    mean_curvature,
    tangent_plane_distance,
    unit_normal,
    weighted_mean_curvature,
)

HG2 = horizontal_gaussian(2)

chart_points = st.tuples(
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-1.5, max_value=1.5),
)


def catenoid_without_derivatives() -> ParametricSurface:
    surf = make_associate_family(math.pi / 2.0)
    return ParametricSurface(chart_domain=surf.chart_domain, immersion=surf.immersion)


def test_generalized_cross_matches_cross_product():
    a, b = np.array([1.0, 0.2, -0.3]), np.array([0.1, 1.0, 0.5])
    assert np.allclose(generalized_cross(np.stack([a, b])), np.cross(a, b))


def test_generalized_cross_orients_upward_for_curve_graphs():
    # one-dimensional chart in the plane: (1, u') -> normal with positive
    # last component
    n = generalized_cross(np.array([[1.0, 0.7]]))
    assert n[1] > 0
    assert abs(n @ np.array([1.0, 0.7])) < 1e-15


def test_helicoid_normal_at_origin():
    heli = make_associate_family(0.0)
    assert np.allclose(unit_normal(heli, [0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-12)


def test_cylinder_normal_points_outward():
    cyl = make_cylinder(1.0).surface
    assert np.allclose(unit_normal(cyl, [0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-12)


def test_constant_graph_normal_is_vertical():
    surf = as_parametric(GraphFunction.constant(2, 0.4), ((-1, 1), (-1, 1)))
    for p in ([0.0, 0.0], [0.5, -0.7]):
        assert np.allclose(unit_normal(surf, p), [0.0, 0.0, 1.0], atol=1e-14)


@given(chart_points)
def test_normal_is_unit_and_orthogonal_to_partials(p):
    surf = make_associate_family(1.0)
    n = unit_normal(surf, p)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
    assert np.max(np.abs(surf.partials(p) @ n)) <= 1e-10


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_cylinder_mean_curvature_closed_form(r):
    cyl = make_cylinder(r).surface
    for p in ([0.0, 0.0], [1.2, -0.7], [-2.5, 1.9]):
        assert mean_curvature(cyl, p) == pytest.approx(-1.0 / r, abs=1e-12)


def test_plane_is_flat():
    surf = as_parametric(GraphFunction.linear([0.3, -0.8], 0.2), ((-2, 2), (-2, 2)))
    assert mean_curvature(surf, [0.7, 0.1]) == pytest.approx(0.0, abs=1e-12)


def test_catenoid_is_minimal_with_finite_differences():
    surf = catenoid_without_derivatives()
    exact = make_associate_family(math.pi / 2.0)
    for p in ([0.3, 0.5], [-1.2, 0.9], [2.0, -1.5]):
        assert mean_curvature(surf, p) == pytest.approx(0.0, abs=1e-6)
        assert np.max(np.abs(unit_normal(surf, p) - unit_normal(exact, p))) <= 1e-6


def test_analytic_partials_match_finite_differences():
    exact = make_associate_family(0.7)
    fd_only = ParametricSurface(
        chart_domain=exact.chart_domain, immersion=exact.immersion
    )
    for p in ([0.3, 0.5], [-1.0, 1.2]):
        assert np.max(np.abs(exact.partials(p) - fd_only.partials(p))) <= 1e-6


def test_weighted_cylinder_examples():
    unit = make_cylinder(1.0)
    rep = weighted_mean_curvature(unit.surface, unit.density, [0.4, -1.0])
    assert rep.mean_curvature == pytest.approx(-1.0, abs=1e-12)
    assert rep.density_term == pytest.approx(1.0, abs=1e-12)
    assert rep.weighted_mean_curvature == pytest.approx(0.0, abs=1e-12)
    wide = make_cylinder(2.0)
    rep2 = weighted_mean_curvature(wide.surface, wide.density, [0.0, 0.0])
    assert rep2.weighted_mean_curvature == pytest.approx(1.5, abs=1e-12)


def test_plane_through_axis_is_weighted_minimal():
    def immersion(p):
        return np.array([0.0, p[0], p[1]])  # the plane x = 0

    surf = ParametricSurface(chart_domain=((-2, 2), (-2, 2)), immersion=immersion)
    rep = weighted_mean_curvature(surf, HG2, [0.3, 0.9])
    assert rep.weighted_mean_curvature == pytest.approx(0.0, abs=1e-9)


def test_report_identity_and_unit_normal():
    surf = make_associate_family(0.25)
    rep = weighted_mean_curvature(surf, HG2, [0.4, -0.3])
    assert rep.weighted_mean_curvature == rep.mean_curvature + rep.density_term
    assert abs(np.linalg.norm(rep.unit_normal) - 1.0) <= 1e-12


def test_weighted_curvature_evaluates_partials_once_per_point():
    surf = make_associate_family(0.25)
    calls = []

    def counting(p):
        calls.append(1)
        return surf.first_derivatives(p)

    counted = replace(surf, first_derivatives=counting)
    for p in ([0.4, -0.3], [1.1, 0.2], [-2.0, 1.4]):
        rep = weighted_mean_curvature(counted, HG2, p)
        assert rep.as_dict() == weighted_mean_curvature(surf, HG2, p).as_dict()
    assert len(calls) == 3


@pytest.mark.parametrize("theta", [0.0, math.pi / 4.0, math.pi / 2.0])
def test_associate_family_pairing_is_sin_theta(theta):
    surf = make_associate_family(theta)
    target = abs(math.sin(theta))
    vals = [
        density_normal_pairing(surf, HG2, p)
        for p in ([0.3, 0.5], [-1.2, 0.9], [2.0, -1.5], [0.0, 0.0])
    ]
    assert np.max(np.abs(np.abs(vals) - target)) <= 1e-6
    assert np.std(vals) <= 1e-6


def test_horizontal_plane_pairing_vanishes():
    surf = as_parametric(GraphFunction.constant(2, 0.8), ((-2, 2), (-2, 2)))
    assert density_normal_pairing(surf, HG2, [0.7, -0.4]) == pytest.approx(0.0, abs=1e-12)


def test_orientation_flip_negates_curvatures():
    surf = make_associate_family(math.pi / 2.0)
    flipped = surf.flipped()
    for p in ([0.3, 0.5], [-0.8, 1.1]):
        a = weighted_mean_curvature(surf, HG2, p)
        b = weighted_mean_curvature(flipped, HG2, p)
        assert b.mean_curvature == pytest.approx(-a.mean_curvature, abs=1e-10)
        assert b.density_term == pytest.approx(-a.density_term, abs=1e-10)
        assert b.weighted_mean_curvature == pytest.approx(
            -a.weighted_mean_curvature, abs=1e-10
        )


def test_rank_deficiency_raises():
    def degenerate(p):
        return np.array([p[0], p[0], 0.0])

    surf = ParametricSurface(chart_domain=((-1, 1), (-1, 1)), immersion=degenerate)
    with pytest.raises(RankDeficiencyError):
        unit_normal(surf, [0.0, 0.0])


# ------------------------------------------------------ distance identity

def test_sphere_tangent_distance_by_hand():
    def sphere(p):
        u, v = p
        return np.array(
            [math.cos(u) * math.cos(v), math.sin(u) * math.cos(v), math.sin(v)]
        )

    surf = ParametricSurface(chart_domain=((-3, 3), (-1.2, 1.2)), immersion=sphere)
    lhs, rhs = tangent_plane_distance(surf, [0.0, 0.0])  # M = (1, 0, 0)
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=1e-9)


def test_axis_point_gives_zero_distance():
    surf = as_parametric(GraphFunction.parabola(2), ((-2, 2), (-2, 2)))
    lhs, rhs = tangent_plane_distance(surf, [0.0, 0.0])  # M on the vertical axis
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_distance_identity_on_random_graphs():
    box = ((-2.0, 2.0), (-2.0, 2.0))
    for trial in range(30):
        u = random_quadratic_graph(5, trial)
        surf = as_parametric(u, box)
        p = np.array([0.3 * trial % 1.7 - 0.8, 0.11 * trial % 1.3 - 0.6])
        lhs, rhs = tangent_plane_distance(surf, p)
        assert abs(lhs - rhs) <= 1e-6
