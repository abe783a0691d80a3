import dataclasses
import math

import numpy as np
import pytest

from gaussmin import catalog
from gaussmin.catalog import (
    CatalogEntry,
    Claim,
    CLAIM_CONST_HF,
    CLAIM_CONST_PAIRING,
    CLAIM_MINIMAL,
    default_catalog,
    make_associate_family,
    make_cylinder,
    make_horizontal_plane,
    make_parabola_with_profile,
    make_plane,
    verify_catalog,
    verify_entry,
)
from gaussmin.density import Profile
from gaussmin.graph import QUAD_LOG_STATIONARY_HEIGHT, GraphFunction, graph_curvature_samples
from gaussmin.surface import (
    CurvatureReport,
    ParametricSurface,
    RankDeficiencyError,
    weighted_mean_curvature,
)
from oracles import mean_curvature, same_bits, unit_normal


def test_default_catalog_names_unique_and_complete():
    entries = default_catalog()
    names = [e.name for e in entries]
    assert len(names) == len(set(names)) == 10
    for expected in ("helicoid", "catenoid", "parabola_quad_log", "cylinder_r1"):
        assert expected in names


def test_full_catalog_passes_at_default_tolerance():
    results = verify_catalog(1e-5)
    assert all(r["pass"] for r in results), [r for r in results if not r["pass"]]
    assert max(r["residual"] for r in results) <= 1e-5
    for r in results:
        assert set(r) >= {"name", "claim", "residual", "tolerance", "pass", "source"}


def test_below_noise_floor_failures_are_reported_not_thrown():
    assert any(not r["pass"] for r in verify_catalog(1e-18))


def test_wrong_claim_fails_with_meaningful_residual():
    entry = make_cylinder(2.0)
    wrong = CatalogEntry(
        name=entry.name,
        surface=entry.surface,
        density=entry.density,
        claim=Claim(CLAIM_CONST_HF, 1.4),  # true value is 1.5
        source=entry.source,
    )
    result = verify_entry(wrong, 1e-5)
    assert not result["pass"]
    assert result["residual"] == pytest.approx(0.1, abs=1e-9)


def test_cylinder_claims():
    assert make_cylinder(1.0).claim.kind == CLAIM_MINIMAL
    wide = make_cylinder(2.0)
    assert wide.claim.kind == CLAIM_CONST_HF
    assert wide.claim.value == pytest.approx(1.5)
    with pytest.raises(ValueError):
        make_cylinder(0.0)


def test_plane_claims():
    assert make_plane((1.0, 0.0, 0.0), 0.0).claim.kind == CLAIM_MINIMAL
    offset = make_plane((1.0, 0.0, 0.0), 0.75)
    assert offset.claim.kind == CLAIM_CONST_HF
    assert offset.claim.value == pytest.approx(0.75)
    horizontal = make_plane((0.0, 0.0, 1.0), 0.4)
    assert horizontal.claim.kind == CLAIM_MINIMAL
    with pytest.raises(ValueError):
        make_plane((1.0, 0.0, 1.0), 0.0)  # tilted normals are out of scope


def test_horizontal_plane_under_profile():
    stationary = make_horizontal_plane(QUAD_LOG_STATIONARY_HEIGHT, Profile.quad_log())
    assert stationary.claim.kind == CLAIM_MINIMAL
    assert stationary.annotations and "sqrt(17)" in stationary.annotations[0]
    off = make_horizontal_plane(1.0, Profile.quad_log())
    assert off.claim.kind == CLAIM_CONST_HF
    assert off.claim.value == pytest.approx(2.0 - 2.0 / 5.0)


def test_parabola_entry_is_weighted_minimal():
    result = verify_entry(make_parabola_with_profile(), 1e-8)
    assert result["pass"], result


def test_associate_family_claim_kinds():
    entries = {e.name: e for e in default_catalog()}
    assert entries["helicoid"].claim.kind == CLAIM_MINIMAL
    assert entries["catenoid"].claim == Claim(CLAIM_CONST_HF, 1.0)
    quarter = entries["associate_quarter"]
    assert quarter.claim.kind == CLAIM_CONST_PAIRING
    assert quarter.claim.value == pytest.approx(math.sin(math.pi / 4.0))


@pytest.mark.parametrize("theta", [0.0, math.pi / 4.0, math.pi / 2.0])
def test_associate_family_is_minimal_on_chart(theta):
    surf = make_associate_family(theta)
    us = np.linspace(-3.0, 3.0, 8)
    vs = np.linspace(-2.0, 2.0, 8)
    worst = max(abs(mean_curvature(surf, (u, v))) for u in us for v in vs)
    assert worst <= 1e-6


def test_claim_string_rendering():
    assert str(Claim(CLAIM_MINIMAL)) == "weighted_minimal"
    assert str(Claim(CLAIM_CONST_HF, 1.5)) == "constant_weighted_curvature(1.5)"


def test_associate_normal_third_component():
    # the chart cross product gives (cos u, sin u, -sinh v)/cosh v; the
    # catalog annotation records that -sinh(u)/cosh(v) is not a normal
    surf = make_associate_family(math.pi / 2.0)
    for u, v in ((0.3, 0.5), (-1.2, 0.9), (2.0, -1.5)):
        n = unit_normal(surf, (u, v))
        assert n[2] == pytest.approx(-math.sinh(v) / math.cosh(v), abs=1e-12)
        assert n[0] == pytest.approx(math.cos(u) / math.cosh(v), abs=1e-12)
        assert n[1] == pytest.approx(math.sin(u) / math.cosh(v), abs=1e-12)
    entries = {e.name: e for e in default_catalog()}
    assert any("sinh(v)" in a for a in entries["catenoid"].annotations)


@pytest.mark.parametrize(
    "entry",
    [e for e in default_catalog() if isinstance(e.surface, ParametricSurface)],
    ids=lambda e: e.name,
)
def test_batched_report_matches_pointwise_calls(entry):
    axes = [np.linspace(lo, hi, 21) for lo, hi in entry.surface.chart_domain]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # (21, 21, 2)
    batch = weighted_mean_curvature(entry.surface, entry.density, grid)
    for idx in np.ndindex(grid.shape[:-1]):
        single = weighted_mean_curvature(entry.surface, entry.density, grid[idx])
        for field in dataclasses.fields(CurvatureReport):
            diff = np.abs(getattr(batch, field.name)[idx] - getattr(single, field.name))
            assert np.max(diff) <= 1e-15, (field.name, idx)


def _own_grid(box):
    axes = [np.linspace(lo, hi, 21) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _box(entry):
    return entry.sample_box if isinstance(entry.surface, GraphFunction) else entry.surface.chart_domain


@pytest.mark.parametrize("boxes", [
    [_box(e) for e in default_catalog()],
    [((-1.0, 3.0),), ((0.1, 0.7),), ((-0.0, 0.0),)],
    [((-3.0, 3.0), (-1.5, 2.5), (0.0, 1e-3)), ((-math.pi, math.pi), (2.0, 2.0), (-7.3, 0.4))],
])
def test_broadcast_chart_grids_are_each_boxes_own_grid(boxes):
    grids = catalog._chart_grids(boxes)
    assert len(grids) == len(boxes)
    for grid, box in zip(grids, boxes):
        assert same_bits(np.ascontiguousarray(grid), _own_grid(box))


def test_stacked_catalog_pass_gives_each_entry_its_own_bits(monkeypatch):
    # the samples verify_catalog hands each entry equal, bit for bit, the
    # entry's curvature evaluated alone on a grid built here
    seen, original = {}, catalog.verify_entry

    def spy(entry, tolerance, **kwargs):
        seen[entry.name] = kwargs["samples"]
        return original(entry, tolerance, **kwargs)

    monkeypatch.setattr(catalog, "verify_entry", spy)
    verify_catalog(1e-5)
    entries = default_catalog()
    assert list(seen) == [e.name for e in entries]
    for entry in entries:
        grid = _own_grid(_box(entry))
        if isinstance(entry.surface, GraphFunction):
            alone = graph_curvature_samples(entry.surface, entry.density, grid)
        else:
            rep = weighted_mean_curvature(entry.surface, entry.density, grid)
            alone = rep.mean_curvature, rep.density_term, rep.weighted_mean_curvature
        for got, want in zip(seen[entry.name], alone):
            assert same_bits(np.ascontiguousarray(got), want), entry.name


def test_catalog_pass_is_one_stacked_curvature_call(monkeypatch):
    shapes = []

    def counted(fn):
        def call(surface, dens, p):
            shapes.append((fn.__name__, np.shape(p)))
            return fn(surface, dens, p)
        return call

    monkeypatch.setattr(catalog, "weighted_mean_curvature", counted(weighted_mean_curvature))
    monkeypatch.setattr(catalog, "graph_curvature_samples", counted(graph_curvature_samples))
    verify_catalog(1e-5)
    assert shapes == [("graph_curvature_samples", (21, 21, 2))] * 3 + [
        ("weighted_mean_curvature", (7, 21, 21, 2))
    ]


def test_graph_entry_without_sample_box_is_an_error():
    bare = dataclasses.replace(make_parabola_with_profile(), name="bare", sample_box=None)
    with pytest.raises(ValueError, match="entry 'bare' needs a sample_box"):
        verify_entry(bare, 1e-5)


def _pinched(box) -> CatalogEntry:
    """(u v, v, 0) under Gauss space: the u-partial vanishes along v = 0."""

    def jet(p, order):
        u, v = p[..., 0], p[..., 1]
        zero, one = np.zeros_like(u), np.ones_like(u)
        d2x = np.zeros(p.shape[:-1] + (2, 2, 3))
        d2x[..., 0, 1, 0] = d2x[..., 1, 0, 0] = 1.0
        return (
            np.stack([u * v, v, zero], -1),
            np.stack([np.stack([v, zero, zero], -1), np.stack([u, one, zero], -1)], -2),
            d2x,
        )[: order + 1]

    return CatalogEntry(
        name=f"pinched{box}", surface=ParametricSurface(box, jet), density=catalog.GAUSS_SPACE,
        claim=Claim(CLAIM_MINIMAL), source="rank-deficient along v = 0",
    )


def test_rank_deficient_chart_in_the_stack_names_its_first_bad_point(monkeypatch):
    # two pinched charts among the catalog's parametric entries: the stacked
    # pass reports the earlier entry's first bad point, as verifying the
    # entries one by one does
    first, second = _pinched(((-1.0, 1.0), (-1.0, 1.0))), _pinched(((-2.0, 2.0), (-1.0, 1.0)))
    entries = default_catalog()
    entries = entries[:4] + [first] + entries[4:6] + [second] + entries[6:]
    monkeypatch.setattr(catalog, "default_catalog", lambda: entries)
    with pytest.raises(RankDeficiencyError) as stacked:
        verify_catalog(1e-5)
    with pytest.raises(RankDeficiencyError) as one_by_one:
        for entry in entries:
            verify_entry(entry, 1e-5)
    with pytest.raises(RankDeficiencyError) as later:
        verify_entry(second, 1e-5)
    assert str(stacked.value) == str(one_by_one.value) == (
        f"immersion is rank deficient at chart point {np.array([-1.0, 0.0])}"
    )
    assert str(later.value) != str(stacked.value)
