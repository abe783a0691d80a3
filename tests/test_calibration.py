import json
import math

import numpy as np
import pytest

from gaussmin import calibration
from gaussmin.calibration import (
    closedness_residual,
    comass_check,
    extended_normal,
    weighted_normal_divergence,
)
from gaussmin.cli import EXIT_CHECK_FAILED, main
from gaussmin.density import Density, Profile, horizontal_gaussian
from gaussmin.graph import GraphFunction, graph_curvature_samples, graph_presets, tangent_minors
from gaussmin.rng import substream
from gaussmin.surface import generalized_cross
from oracles import frame_value, random_frame_comass, tangent_frame

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
def test_comass_never_exceeds_one(name, monkeypatch):
    u = graph_presets(2)[name]
    # Hadamard: no orthonormal frame beats |N| = 1, and the tangent frame attains it
    assert random_frame_comass(u, trials=20_000, seed=2) <= 1.0 + 1e-12
    monkeypatch.setattr(calibration, "COMASS_TRIALS", 20_000)
    assert comass_check([u], seed=2)[0] <= 1e-12


def flipped_normal(g):
    """(g, 1)/W: a unit field with the gradient term's sign wrong."""
    up = np.concatenate([g, np.ones(g.shape[:-1] + (1,))], axis=-1)
    return up / np.sqrt(1.0 + np.vecdot(g, g))[..., None]


def test_comass_check_fails_a_sign_flipped_normal(monkeypatch, capsys):
    presets = graph_presets(2)
    for name in ("linear", "sinusoid", "parabola"):
        assert comass_check([presets[name]])[0] <= 1e-12
    monkeypatch.setattr(calibration, "unit_normal", flipped_normal)
    for name in ("linear", "sinusoid", "parabola"):
        assert comass_check([presets[name]])[0] > 0.1, name
    assert main(["verify", "--only", "calibration"]) == EXIT_CHECK_FAILED
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    failed = {name for name, c in rows.items() if name.startswith("comass:") and not c["pass"]}
    assert failed == {"comass:linear", "comass:sinusoid", "comass:parabola_quad_log"}
    assert rows["comass:linear"]["residual"] > 0.1


def test_comass_check_fails_a_normal_one_part_in_a_million_long(monkeypatch):
    presets = graph_presets(2)
    unit = calibration.unit_normal
    monkeypatch.setattr(calibration, "unit_normal", lambda g: unit(g) * (1.0 + 1e-6))
    for name, residual in zip(presets, comass_check(list(presets.values()))):
        assert residual > 1e-12, name


def test_shared_comass_pass_gives_each_graph_its_own_bits(monkeypatch):
    # one draw of base points for all graphs: each residual is the one a
    # pass over that graph alone gives, in either order.  Unit normals leave
    # residuals of a few ulps, which other points would likely repeat, so
    # the normal is also lengthened by |g|^2/1000: then a residual is the
    # largest |g|^2 over the points its graph sees
    unit = calibration.unit_normal
    graphs = list(graph_presets(2, seed=7387).values())
    for normal in (unit, lambda g: unit(g) * (1.0 + 1e-3 * np.vecdot(g, g))[..., None]):
        monkeypatch.setattr(calibration, "unit_normal", normal)
        alone = [comass_check([u], seed=53710)[0].hex() for u in graphs]
        assert [r.hex() for r in comass_check(graphs, seed=53710)] == alone
        assert [r.hex() for r in comass_check(graphs[::-1], seed=53710)] == alone[::-1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_minors_are_the_frame_cross_product(n):
    base = substream(4, n).uniform(-2.0, 2.0, size=(200, n))
    for name, u in graph_presets(n).items():
        g = u.gradient(base)
        frame = np.concatenate([np.broadcast_to(np.eye(n), g.shape + (n,)), g[..., None]], axis=-1)
        assert np.max(np.abs(tangent_minors(g) - generalized_cross(frame))) <= 1e-14, name


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
