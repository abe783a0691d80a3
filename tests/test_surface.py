import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gaussmin.catalog import default_catalog, make_associate_family, make_cylinder
from gaussmin.density import horizontal_gaussian
from gaussmin.graph import GraphFunction, as_parametric, graph_presets
from gaussmin.rng import substream
from gaussmin.surface import (
    ParametricSurface,
    RankDeficiencyError,
    generalized_cross,
    tangent_plane_distance,
    weighted_mean_curvature,
)
from oracles import (
    density_normal_pairing,
    difference_jet,
    lapack_cross,
    lapack_mean_curvature,
    mean_curvature,
    random_quadratic_graph,
    same_bits,
    unit_normal,
)

HG2 = horizontal_gaussian(2)

chart_points = st.tuples(
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-1.5, max_value=1.5),
)


def catenoid_without_derivatives() -> ParametricSurface:
    surf = make_associate_family(math.pi / 2.0)
    return ParametricSurface(chart_domain=surf.chart_domain, jet=difference_jet(surf.point))


def test_generalized_cross_matches_cross_product():
    a, b = np.array([1.0, 0.2, -0.3]), np.array([0.1, 1.0, 0.5])
    assert np.allclose(generalized_cross(np.stack([a, b])), np.cross(a, b))


def test_generalized_cross_keeps_no_reference_to_its_rows():
    # a self-calling closure in the determinant helper was a reference cycle
    # that held the entry arrays until the cyclic collector ran: on a stacked
    # catalog pass the heap grew by ~12 MiB before it plateaued
    rows = np.ones((7, 21, 21, 2, 3))
    ref = weakref.ref(rows)
    gc.disable()
    try:
        generalized_cross(rows)
        del rows
        assert ref() is None
    finally:
        gc.enable()


def test_generalized_cross_orients_upward_for_curve_graphs():
    # one-dimensional chart in the plane: (1, u') -> normal with positive
    # last component
    n = generalized_cross(np.array([[1.0, 0.7]]))
    assert n[1] > 0
    assert abs(n @ np.array([1.0, 0.7])) < 1e-15


# ------------------------------------------------------ LAPACK oracle

def plus_zeros(a):
    """Where a holds +0.0."""
    return (a == 0.0) & ~np.signbit(a)


def cramer_scale(J, d2x):
    """The scale of trace(g^{-1} b)'s rounding: |g|^{n-1} |d2X| / det g, the
    size of the Cramer numerators' terms over det g (b_ij = <d2X_ij, N>
    with |N| = 1), times cond(g), since both routes form g from J and an ulp
    of g moves H by cond(g) ulps of that."""
    n = J.shape[-2]
    g = J @ np.swapaxes(J, -1, -2)
    size = np.max(np.abs(g), axis=(-2, -1)) ** (n - 1) * np.max(np.abs(d2x), axis=(-3, -2, -1))
    return np.linalg.cond(g) * size / np.linalg.det(g)


def fixed_jet(x, J, d2x):
    """A surface whose jet is the given arrays, whatever the chart points."""
    return ParametricSurface(
        chart_domain=((-1.0, 1.0),) * J.shape[-2], jet=lambda p, order: (x, J, d2x)[:order + 1]
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cofactor_cross_matches_lapack_on_random_frames(n):
    # six decades of scale, and 30 % of the entries exactly zero
    rng = substream(51, n)
    rows = rng.uniform(-1.0, 1.0, (4000, n, n + 1)) * 10.0 ** rng.uniform(-3.0, 3.0, (4000, 1, 1))
    rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
    new, ref = generalized_cross(rows), lapack_cross(rows)
    hadamard = np.prod(np.linalg.norm(rows, axis=-1), axis=-1)  # bounds every minor
    assert np.all(np.abs(new - ref) <= 1e-14 * hadamard[:, None])
    # every zero here is exact (a zero row or column in the minor): +0.0 on both sides
    assert np.all(plus_zeros(new[plus_zeros(ref)]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cramer_mean_curvature_matches_lapack_on_random_frames(n):
    rng = substream(52, n)
    scale = 10.0 ** rng.uniform(-1.0, 2.0, (4000, 1, 1))
    J = rng.uniform(-1.0, 1.0, (4000, n, n + 1)) * scale
    d2x = rng.uniform(-1.0, 1.0, (4000, n, n, n + 1)) * scale[..., None]
    d2x = d2x + np.swapaxes(d2x, -3, -2)
    h = mean_curvature(fixed_jet(np.zeros((4000, n + 1)), J, d2x), np.zeros((4000, n)))
    assert np.all(np.abs(h - lapack_mean_curvature(J, d2x)) <= 1e-14 * cramer_scale(J, d2x))


def catalog_surfaces():
    """(name, surface, density, sample box) of each catalog entry, its graphs
    embedded over their sample boxes."""
    out = []
    for e in default_catalog():
        if isinstance(e.surface, ParametricSurface):
            out.append((e.name, e.surface, e.density, e.surface.chart_domain))
        else:
            out.append((e.name, as_parametric(e.surface, e.sample_box), e.density, e.sample_box))
    return out


@pytest.mark.parametrize("name, surf, dens, box", catalog_surfaces(), ids=[c[0] for c in catalog_surfaces()])
def test_catalog_normals_and_curvature_match_lapack_on_sample_grids(name, surf, dens, box):
    axes = [np.linspace(lo, hi, 21) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    _, J, d2x = surf.jet(grid, 2)
    ref = lapack_cross(J)
    ref = ref / np.linalg.norm(ref, axis=-1, keepdims=True)
    new = unit_normal(surf, grid)
    assert np.max(np.abs(new - ref)) <= 1e-14
    # LU cancels some roundoff-sized components to +0.0 (the associate
    # surfaces at v = 0); none of them may come out -0.0 here
    at_zeros = new[plus_zeros(ref)]
    assert not np.any((at_zeros == 0.0) & np.signbit(at_zeros))
    h, ref_h = mean_curvature(surf, grid), lapack_mean_curvature(J, d2x)
    assert np.all(np.abs(h - ref_h) <= 1e-14 * cramer_scale(J, d2x))


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
@example((5e-324, 5e-324))  # subnormal partials: LU took one as a pivot
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
    u = GraphFunction.quadratic_form(0.2, [0.3, -0.8], np.zeros((2, 2)))
    surf = as_parametric(u, ((-2, 2), (-2, 2)))
    assert mean_curvature(surf, [0.7, 0.1]) == pytest.approx(0.0, abs=1e-12)


def test_catenoid_is_minimal_with_finite_differences():
    surf = catenoid_without_derivatives()
    exact = make_associate_family(math.pi / 2.0)
    for p in ([0.3, 0.5], [-1.2, 0.9], [2.0, -1.5]):
        assert mean_curvature(surf, p) == pytest.approx(0.0, abs=1e-6)
        assert np.max(np.abs(unit_normal(surf, p) - unit_normal(exact, p))) <= 1e-6


def test_analytic_partials_match_finite_differences():
    exact = make_associate_family(0.7)
    fd_only = ParametricSurface(chart_domain=exact.chart_domain, jet=difference_jet(exact.point))
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

    surf = ParametricSurface(chart_domain=((-2, 2), (-2, 2)), jet=difference_jet(immersion))
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

    def counting(p, order):
        calls.append(order)
        return surf.jet(p, order)

    counted = replace(surf, jet=counting)
    for p in ([0.4, -0.3], [1.1, 0.2], [-2.0, 1.4]):
        rep = weighted_mean_curvature(counted, HG2, p)
        assert rep.as_dict() == weighted_mean_curvature(surf, HG2, p).as_dict()
        assert mean_curvature(counted, p) == mean_curvature(surf, p)
    assert calls == [2] * 6  # one second-order jet per report


def test_normal_queries_evaluate_one_first_order_jet():
    surf = make_associate_family(0.25)
    calls = []

    def counting(p, order):
        calls.append(order)
        return surf.jet(p, order)

    counted = replace(surf, jet=counting)
    p = substream(12, 0).uniform(-2.0, 2.0, size=(30, 2))
    nvec, x = unit_normal(surf, p), surf.point(p)
    pairing = density_normal_pairing(counted, HG2, p)
    assert same_bits(pairing, np.vecdot(HG2.grad_log_weight(x), nvec))
    lhs, rhs = tangent_plane_distance(counted, p)
    assert same_bits(rhs, np.abs(x[:, 0] * nvec[:, 0] + x[:, 1] * nvec[:, 1]))
    assert calls == [1, 1]  # one first-order jet per query


def parametric_surfaces():
    box = ((-2.0, 2.0),) * 2
    catalog = [e.surface for e in default_catalog() if isinstance(e.surface, ParametricSurface)]
    return catalog + [as_parametric(u, box) for u in graph_presets(2).values()]


@pytest.mark.parametrize("surf", parametric_surfaces(), ids=lambda s: s.name)
def test_jet_of_every_order_matches_point_partials_and_hessian(surf):
    rng = substream(11, 0)
    for shape in [(2,), (40, 2), (3, 5, 2)]:
        p = rng.uniform(-2.0, 2.0, shape)
        views = (surf.point(p), surf.partials(p), surf.hessian(p))
        tails = [(3,), (2, 3), (2, 2, 3)]
        assert [v.shape for v in views] == [shape[:-1] + tail for tail in tails]
        for order in range(3):
            terms = surf.jet(p, order)
            assert len(terms) == order + 1
            for term, view in zip(terms, views):
                assert same_bits(term, view), order


def stack_surfaces():
    """(name, surface, density): every catalog surface, and every graph
    preset embedded at n = 1, 2, 3."""
    out = [(name, surf, dens) for name, surf, dens, _ in catalog_surfaces()]
    for n in (1, 2, 3):
        for name, u in graph_presets(n, seed=7387).items():
            out.append((f"{name}_n{n}", as_parametric(u, ((-2.0, 2.0),) * n), horizontal_gaussian(n)))
    return out


def chart_stacks(n: int):
    """Stacks of chart points of leading shapes (), (k,) and (a, b), near and
    far out, each as a C- and an F-ordered copy."""
    rng = substream(44, n)
    stacks = [rng.uniform(-2.0, 2.0, shape) for shape in [(n,), (30, n), (4, 5, n)]]
    stacks.append(rng.uniform(-9.0, 9.0, (2, 3, n)))
    return [layout(x) for x in stacks for layout in (np.ascontiguousarray, np.asfortranarray)]


REPORT_FIELDS = ("ambient_point", "unit_normal", "mean_curvature", "density_term",
                 "weighted_mean_curvature")


@pytest.mark.parametrize("name, surf, dens", stack_surfaces(), ids=[c[0] for c in stack_surfaces()])
def test_stacked_normals_curvature_and_distance_match_each_points_bit_for_bit(name, surf, dens):
    for x in chart_stacks(surf.chart_dim):
        rep, nvec = weighted_mean_curvature(surf, dens, x), unit_normal(surf, x)
        dist = tangent_plane_distance(surf, x)
        for idx in np.ndindex(x.shape[:-1]):
            p = x[idx].copy()
            alone = weighted_mean_curvature(surf, dens, p)
            for f in REPORT_FIELDS:
                assert same_bits(getattr(rep, f)[idx], getattr(alone, f)), (f, idx)
            assert same_bits(nvec[idx], unit_normal(surf, p)), idx
            assert all(same_bits(d[idx], a) for d, a in zip(dist, tangent_plane_distance(surf, p))), idx


def test_parametric_surface_needs_a_jet():
    with pytest.raises(TypeError):
        ParametricSurface(chart_domain=((-1, 1), (-1, 1)), immersion=lambda p: p)
    with pytest.raises(TypeError):
        ParametricSurface(chart_domain=((-1, 1), (-1, 1)), name="bare")


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
    # swapping the chart coordinates reverses the cross-product normal
    surf = make_associate_family(math.pi / 2.0)

    def swapped_jet(q, order):
        out = list(surf.jet(q[..., ::-1], order))
        if order >= 1:
            out[1] = out[1][..., ::-1, :]
        if order == 2:
            out[2] = out[2][..., ::-1, ::-1, :]
        return tuple(out)

    swapped = ParametricSurface(chart_domain=surf.chart_domain[::-1], jet=swapped_jet)
    for p in ([0.3, 0.5], [-0.8, 1.1]):
        a = weighted_mean_curvature(surf, HG2, p)
        b = weighted_mean_curvature(swapped, HG2, p[::-1])
        assert same_bits(b.ambient_point, a.ambient_point)
        assert np.allclose(b.unit_normal, -a.unit_normal, rtol=0.0, atol=1e-15)
        assert b.mean_curvature == pytest.approx(-a.mean_curvature, abs=1e-10)
        assert b.density_term == pytest.approx(-a.density_term, abs=1e-10)
        assert b.weighted_mean_curvature == pytest.approx(
            -a.weighted_mean_curvature, abs=1e-10
        )


def test_rank_deficiency_raises():
    def degenerate(p):
        return np.array([p[0], p[0], 0.0])

    surf = ParametricSurface(chart_domain=((-1, 1), (-1, 1)), jet=difference_jet(degenerate))
    with pytest.raises(RankDeficiencyError):
        unit_normal(surf, [0.0, 0.0])


def test_rank_deficiency_in_a_batch_names_the_point():
    def cone(p):  # the v-partial vanishes where u = 0
        u, v = p[..., 0], p[..., 1]
        return np.stack([u * np.cos(v), u * np.sin(v), u], axis=-1)

    surf = ParametricSurface(chart_domain=((-1, 1), (-1, 1)), jet=difference_jet(cone))
    pts = np.array([[0.5, 0.2], [0.0, 0.3], [-0.4, 0.9]])
    assert np.allclose(np.linalg.norm(unit_normal(surf, pts[[0, 2]]), axis=-1), 1.0)
    with pytest.raises(RankDeficiencyError, match=r"\[0\. +0\.3\]"):
        weighted_mean_curvature(surf, HG2, pts)


@pytest.mark.parametrize("p", [[0.1, 0.2, 0.3], [0.1], [[0.1, 0.2, 0.3]]])
def test_wrong_chart_dimension_is_rejected(p):
    cyl = make_cylinder(1.0)
    with pytest.raises(ValueError, match="dimension 2"):
        weighted_mean_curvature(cyl.surface, cyl.density, p)
    with pytest.raises(ValueError, match="dimension 2"):
        cyl.surface.point(p)


# ------------------------------------------------------ distance identity

def test_sphere_tangent_distance_by_hand():
    def sphere(p):
        u, v = p
        return np.array(
            [math.cos(u) * math.cos(v), math.sin(u) * math.cos(v), math.sin(v)]
        )

    surf = ParametricSurface(chart_domain=((-3, 3), (-1.2, 1.2)), jet=difference_jet(sphere))
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
