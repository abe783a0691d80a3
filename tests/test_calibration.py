import math

import numpy as np
import pytest

from gaussmin.calibration import (
    closedness_residual,
    comass_check,
    extended_normal,
    frame_value,
    tangent_frame,
    weighted_normal_divergence,
)
from gaussmin.density import Density, Profile, horizontal_gaussian
from gaussmin.graph import GraphFunction, graph_curvature_samples, graph_presets
from gaussmin.rng import substream

HG2 = horizontal_gaussian(2)


def test_extended_normal_is_unit_and_vertical_invariant():
    nbar = extended_normal(GraphFunction.parabola(2))
    pts = substream(1, 0).uniform(-2.0, 2.0, size=(50, 3))
    vals = nbar(pts)
    assert np.max(np.abs(np.linalg.norm(vals, axis=-1) - 1.0)) <= 1e-12
    # finite-difference derivative along the vertical axis vanishes
    step = np.array([0.0, 0.0, 1e-4])
    dv = (nbar(pts + step) - nbar(pts - step)) / 2e-4
    assert np.max(np.abs(dv)) <= 1e-8


def test_tangent_frame_attains_comass_one():
    u = GraphFunction.parabola(2)
    for base in ([0.0, 0.0], [1.0, 0.5], [-1.3, 0.2]):
        frame = tangent_frame(u, base)
        assert np.allclose(frame @ frame.T, np.eye(2), atol=1e-12)
        point = np.array([*base, 4.0])  # any height: the form is translation invariant
        assert abs(frame_value(u, point, frame)) == pytest.approx(1.0, abs=1e-9)


def test_frame_containing_the_normal_gives_zero():
    u = GraphFunction.parabola(2)
    base = np.array([0.7, -0.4])
    point = np.array([*base, 1.0])
    nbar = extended_normal(u)(point)
    frame = tangent_frame(u, base)
    frame_with_normal = np.vstack([nbar, frame[1:]])
    assert abs(frame_value(u, point, frame_with_normal)) <= 1e-12


@pytest.mark.parametrize("name", ["constant", "linear", "parabola", "sinusoid"])
def test_comass_never_exceeds_one(name):
    u = graph_presets(2)[name]
    assert comass_check(u, trials=20_000, seed=2) <= 1.0 + 1e-12


def test_comass_requires_positive_trials():
    with pytest.raises(ValueError):
        comass_check(GraphFunction.parabola(2), trials=0)


def test_divergence_identity_for_minimal_plane():
    u = GraphFunction.constant(2, 0.4)
    for x in ([0.2, -1.0, 0.0], [1.5, 0.5, 2.0]):
        assert abs(weighted_normal_divergence(u, HG2, np.asarray(x))) <= 1e-6


def test_divergence_value_for_tilted_plane():
    # u = x_1 at (1, 0, 0): div(e^{-F} N) = e^{-F} / sqrt(2)
    u = GraphFunction.linear([1.0, 0.0])
    x = np.array([1.0, 0.0, 0.0])
    expected = math.exp(-0.5) / (2.0 * math.pi) / math.sqrt(2.0)
    assert weighted_normal_divergence(u, HG2, x) == pytest.approx(expected, abs=1e-8)
    assert closedness_residual(u, HG2, x) == pytest.approx(0.0, abs=1e-8)


def test_closedness_residual_small_everywhere_for_presets():
    rng = substream(6, 0)
    for name, u in graph_presets(2).items():
        base = rng.uniform(-2.0, 2.0, size=(40, 2))
        z = rng.uniform(-1.0, 1.0, size=40)
        worst = max(
            abs(closedness_residual(u, HG2, np.array([bx, by, zz])))
            for (bx, by), zz in zip(base, z)
        )
        assert worst <= 1e-4, name


@pytest.mark.parametrize("name", ["linear", "sinusoid", "random_bump"])
def test_batched_closedness_matches_pointwise_calls(name):
    u = graph_presets(2)[name]
    rng = substream(8, 0)
    x = np.concatenate(
        [rng.uniform(-2.0, 2.0, size=(100, 2)), rng.uniform(-1.0, 1.0, size=(100, 1))], axis=-1
    )
    batch = closedness_residual(u, HG2, x)
    assert batch.shape == (100,)
    single = np.array([closedness_residual(u, HG2, p) for p in x])
    assert np.max(np.abs(batch - single)) <= 1e-15


def test_divergence_small_iff_weighted_minimal():
    # minimal preset: parabola under its companion product density, on-graph
    dens = Density.product(Density.gaussian(2), Profile.quad_log())
    u = GraphFunction.parabola(2)
    for bx in (-1.5, 0.3, 2.0):
        x = np.array([bx, 0.7, float(u.value([bx, 0.7]))])
        assert abs(weighted_normal_divergence(u, dens, x)) <= 1e-4
    # non-minimal: tilted plane has |div| = e^{-F} |H_F| > 1e-4 near the origin
    lin = GraphFunction.linear([1.0, 0.0])
    x = np.array([1.0, 0.0, 0.0])
    assert abs(weighted_normal_divergence(lin, HG2, x)) > 1e-4


def test_vertical_invariance_of_residual():
    u = GraphFunction.sinusoid(2)
    for zz in (-3.0, 0.0, 5.0):
        a = closedness_residual(u, HG2, np.array([0.4, -0.9, zz]))
        b = closedness_residual(u, HG2, np.array([0.4, -0.9, 0.25]))
        assert a == pytest.approx(b, abs=1e-8)


def test_unweighted_divergence_is_minus_mean_curvature():
    # div N = -H on the graph, before any weighting
    u = GraphFunction.parabola(2)
    nbar = extended_normal(u)
    h = 1e-4
    for base in ([0.3, 0.1], [-1.0, 0.6]):
        x = np.array([*base, float(u.value(base))])
        div = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            div += (nbar(x + e)[i] - nbar(x - e)[i]) / (2.0 * h)
        hmean, _, _ = graph_curvature_samples(u, HG2, np.asarray(base))
        assert div == pytest.approx(-float(hmean), abs=1e-6)
