"""Catalog of benchmark surfaces, each bundled with its claimed property.

Covers the named examples in Gauss space x R: planes parallel to or through
the vertical axis, horizontal planes, right circular cylinders about the
axis, the helicoid-catenoid associate family (minimal, with density pairing
sin(theta)), the parabola graph that is weighted minimal under its companion
product density, and the stationary horizontal plane of that density.

``verify_catalog`` samples every claim over its chart and reports worst-case
residuals; failures are data, not exceptions.  It samples them in one pass:
the parametric entries, all under ``GAUSS_SPACE``, in one stacked curvature
call whose per-point bits are those of each entry sampled alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .density import Density, Profile, horizontal_gaussian
from .graph import (
    GraphFunction,
    QUAD_LOG_ROOT_CANDIDATES,
    QUAD_LOG_STATIONARY_HEIGHT,
    graph_curvature_samples,
)
from .surface import ParametricSurface, separate_jet, weighted_mean_curvature

# chart half-extents of the catalog surfaces
ASSOCIATE_V_MAX = 2.0
CYLINDER_HALF_HEIGHT = 2.0
PLANE_EXTENT = 2.5
PARABOLA_EXTENT = 3.0
SAMPLES_PER_AXIS = 21  # verification grid nodes per chart axis
GAUSS_SPACE = horizontal_gaussian(2)  # one instance, so its entries stack in verify

CLAIM_MINIMAL = "weighted_minimal"
CLAIM_CONST_HF = "constant_weighted_curvature"
CLAIM_CONST_PAIRING = "constant_density_term"


@dataclass(frozen=True)
class Claim:
    kind: str
    value: float = 0.0

    def __str__(self) -> str:
        if self.kind == CLAIM_MINIMAL:
            return self.kind
        return f"{self.kind}({self.value:g})"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    surface: Union[ParametricSurface, GraphFunction]
    density: Density
    claim: Claim
    source: str
    sample_box: Optional[tuple[tuple[float, float], ...]] = None
    annotations: tuple[str, ...] = ()


# ----------------------------------------------------------------- constructors

def _stack(parts, axis: int = -1) -> np.ndarray:
    """np.stack after broadcasting, so constant entries fill a whole batch:
    each part is written into one preallocated array."""
    shape = np.broadcast_shapes(*map(np.shape, parts))
    out = np.empty(shape[:len(shape) + axis + 1] + (len(parts),) + shape[len(shape) + axis + 1:])
    for k, part in enumerate(parts):
        out[(Ellipsis, k) + (slice(None),) * (-axis - 1)] = part
    return out


def make_associate_family(theta: float) -> ParametricSurface:
    """The minimal associate family joining helicoid (theta = 0) and
    catenoid (theta = pi/2), on the chart (-pi, pi] x [-ASSOCIATE_V_MAX,
    ASSOCIATE_V_MAX].

    The jet is analytic, so curvature residuals sit at roundoff.
    """
    ct, st = math.cos(theta), math.sin(theta)

    def jet(p, order):
        u, v = p[..., 0], p[..., 1]
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sinh(v), np.cosh(v)
        out = [
            _stack([ct * sv * su + st * cv * cu, -ct * sv * cu + st * cv * su, ct * u + st * v])
        ]
        if order >= 1:
            out.append(_stack(
                [
                    _stack([ct * sv * cu - st * cv * su, ct * sv * su + st * cv * cu, ct]),
                    _stack([ct * cv * su + st * sv * cu, -ct * cv * cu + st * sv * su, st]),
                ],
                axis=-2,
            ))
        if order == 2:
            d_uu = _stack([-ct * sv * su - st * cv * cu, ct * sv * cu - st * cv * su, 0.0])
            d_uv = _stack([ct * cv * cu - st * sv * su, ct * cv * su + st * sv * cu, 0.0])
            d_vv = _stack([ct * sv * su + st * cv * cu, -ct * sv * cu + st * cv * su, 0.0])
            out.append(_stack([_stack([d_uu, d_uv], -2), _stack([d_uv, d_vv], -2)], -3))
        return tuple(out)

    return ParametricSurface(
        chart_domain=((-math.pi, math.pi), (-ASSOCIATE_V_MAX, ASSOCIATE_V_MAX)),
        jet=jet,
        name=f"associate(theta={theta:.6g})",
    )


def _associate_entry(theta: float, name: str, claim: Claim, source: str) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        surface=make_associate_family(theta),
        density=GAUSS_SPACE,
        claim=claim,
        source=source,
        annotations=(
            "chart cross product yields normal third component -sinh(v)/cosh(v); "
            "the variant -sinh(u)/cosh(v) is not orthogonal to the chart tangents",
        ),
    )


def make_cylinder(r: float) -> CatalogEntry:
    """Right circular cylinder of radius r about the vertical axis.

    With the outward normal, H_F = r - 1/r; radius 1 is weighted minimal.
    """
    if r <= 0:
        raise ValueError("radius must be positive")

    def jet(p, order):
        t = p[..., 0]
        c, s = r * np.cos(t), r * np.sin(t)
        out = [_stack([c, s, p[..., 1]])]
        if order >= 1:
            out.append(_stack([_stack([-s, c, 0.0]), [0.0, 0.0, 1.0]], -2))
        if order == 2:
            d_tt = _stack([-c, -s, 0.0])
            zero = np.zeros_like(d_tt)
            out.append(_stack([_stack([d_tt, zero], -2), _stack([zero, zero], -2)], -3))
        return tuple(out)

    target = r - 1.0 / r
    claim = Claim(CLAIM_MINIMAL) if abs(target) < 1e-12 else Claim(CLAIM_CONST_HF, target)
    return CatalogEntry(
        name=f"cylinder_r{r:g}",
        surface=ParametricSurface(
            chart_domain=((-math.pi, math.pi), (-CYLINDER_HALF_HEIGHT, CYLINDER_HALF_HEIGHT)),
            jet=jet,
            name=f"cylinder(r={r:g})",
        ),
        density=GAUSS_SPACE,
        claim=claim,
        source=f"right circular cylinder of radius {r:g} about the vertical axis",
    )


def make_plane(normal, offset: float) -> CatalogEntry:
    """Plane {<normal, p> = offset} for a horizontal or vertical unit normal.

    A horizontal normal gives a plane parallel to the vertical axis with
    constant H_F = offset (weighted minimal iff it contains the axis); a
    vertical normal gives a horizontal plane.
    """
    nu = np.asarray(normal, dtype=float)
    if nu.shape != (3,) or not np.any(nu):
        raise ValueError(f"plane normal must be a nonzero 3-vector, got {normal}")
    nu = nu / np.linalg.norm(nu)
    horizontal_part = np.linalg.norm(nu[:2])
    if abs(nu[2]) < 1e-12:
        basis = np.array([[-nu[1], nu[0], 0.0], [0.0, 0.0, 1.0]])
        claim = (
            Claim(CLAIM_MINIMAL)
            if abs(offset) < 1e-12
            else Claim(CLAIM_CONST_HF, float(offset))
        )
        kind = "through the vertical axis" if abs(offset) < 1e-12 else "parallel to the vertical axis"
    elif horizontal_part < 1e-12:
        return make_horizontal_plane(offset / nu[2])
    else:
        raise ValueError("plane normal must be horizontal or vertical")
    p0 = offset * nu

    return CatalogEntry(
        name=f"plane_offset{offset:g}",
        surface=ParametricSurface(
            chart_domain=((-PLANE_EXTENT, PLANE_EXTENT),) * 2,
            jet=separate_jet(
                lambda p: p0 + p[..., :1] * basis[0] + p[..., 1:] * basis[1],
                lambda p: np.broadcast_to(basis, p.shape[:-1] + (2, 3)).copy(),
                lambda p: np.zeros(p.shape[:-1] + (2, 2, 3)),
            ),
            name=f"plane(offset={offset:g})",
        ),
        density=GAUSS_SPACE,
        claim=claim,
        source=f"plane {kind}",
    )


def make_horizontal_plane(a: float, profile: Optional[Profile] = None) -> CatalogEntry:
    """Horizontal plane z = a; weighted minimal under the horizontal
    Gaussian, and under a product density exactly when h'(a) = 0."""
    annotations: tuple[str, ...] = ()
    if profile is None:
        dens = GAUSS_SPACE
        slope = 0.0
        source = "horizontal plane under the horizontal Gaussian density"
    else:
        dens = Density.product(Density.gaussian(2), profile)
        slope = float(profile.slope(a))
        source = f"horizontal plane at the stationary height of profile '{profile.name}'"
        if profile.name == "quad_log":
            alt = QUAD_LOG_ROOT_CANDIDATES[1]
            annotations = (
                f"candidate height (1+sqrt(17))/8 = {alt:.7f} has slope "
                f"{float(profile.slope(alt)):.6f}, not 0; the stationary height is "
                f"(sqrt(17)-1)/8 = {QUAD_LOG_STATIONARY_HEIGHT:.7f}",
            )
    claim = Claim(CLAIM_MINIMAL) if abs(slope) < 1e-10 else Claim(CLAIM_CONST_HF, slope)
    return CatalogEntry(
        name=f"horizontal_plane_z{a:g}",
        surface=GraphFunction.constant(2, a),
        density=dens,
        claim=claim,
        source=source,
        sample_box=((-PLANE_EXTENT, PLANE_EXTENT),) * 2,
        annotations=annotations,
    )


def make_parabola_with_profile() -> CatalogEntry:
    """Graph z = x^2 over the plane, weighted minimal under the product
    density with the quad_log companion profile."""
    return CatalogEntry(
        name="parabola_quad_log",
        surface=GraphFunction.parabola(2),
        density=Density.product(Density.gaussian(2), Profile.quad_log()),
        claim=Claim(CLAIM_MINIMAL),
        source="entire non-planar weighted minimal graph z = x^2 under the companion product density",
        sample_box=((-PARABOLA_EXTENT, PARABOLA_EXTENT),) * 2,
    )


def default_catalog() -> list[CatalogEntry]:
    sq2 = math.sin(math.pi / 4.0)
    entries = [
        make_plane((1.0, 0.0, 0.0), 0.0),
        make_plane((1.0, 0.0, 0.0), 0.75),
        make_horizontal_plane(0.7),
        make_cylinder(1.0),
        make_cylinder(2.0),
        _associate_entry(
            0.0,
            "helicoid",
            Claim(CLAIM_MINIMAL),
            "ruled weighted minimal surface (helicoid)",
        ),
        _associate_entry(
            math.pi / 4.0,
            "associate_quarter",
            Claim(CLAIM_CONST_PAIRING, sq2),
            "associate family member midway between helicoid and catenoid",
        ),
        _associate_entry(
            math.pi / 2.0,
            "catenoid",
            Claim(CLAIM_CONST_HF, 1.0),
            "catenoid; constant weighted curvature 1",
        ),
        make_parabola_with_profile(),
        make_horizontal_plane(QUAD_LOG_STATIONARY_HEIGHT, Profile.quad_log()),
    ]
    # names must be unique so reports are unambiguous
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    return entries


# ----------------------------------------------------------------- verification

def _chart_grids(boxes) -> np.ndarray:
    """Each box's grid, SAMPLES_PER_AXIS nodes per axis, stacked (k, 21, ..., 21, d)
    by np.linspace's arithmetic, bit for bit each box's own linspace grid; one
    linspace over all the ends takes its zero-step branch if one box is flat."""
    ends = np.asarray(boxes, dtype=float)  # (k, d, 2)
    k, d = ends.shape[:2]
    lo, hi = ends[..., :1], ends[..., 1:]
    axes = np.arange(SAMPLES_PER_AXIS) * ((hi - lo) / (SAMPLES_PER_AXIS - 1)) + lo  # (k, d, 21)
    axes[..., -1] = hi[..., 0]
    ticks = [axes[:, i].reshape((k,) + (1,) * i + (-1,) + (1,) * (d - 1 - i)) for i in range(d)]
    return np.stack(np.broadcast_arrays(*ticks), axis=-1)


def _stacked(surfaces) -> ParametricSurface:
    """A surface on chart points (k, ..., n) whose jet at [j] is surface j's."""
    def jet(p, order):
        return tuple(map(np.stack, zip(*(s.jet(q, order) for s, q in zip(surfaces, p)))))
    return ParametricSurface(surfaces[0].chart_domain, jet, "stack")


def _catalog_samples(entries) -> list:
    """Each entry's (H, density term, H_F) arrays over its sample grid.  The
    parametric entries of one density share one stacked ``weighted_mean_curvature``
    call, which names a rank-deficient chart's first bad point in entry order."""
    for e in entries:
        if isinstance(e.surface, GraphFunction) and e.sample_box is None:
            raise ValueError(f"entry '{e.name}' needs a sample_box")
    grids = _chart_grids([getattr(e.surface, "chart_domain", e.sample_box) for e in entries])
    samples, stacks = [None] * len(entries), {}
    for k, e in enumerate(entries):
        if isinstance(e.surface, GraphFunction):
            samples[k] = graph_curvature_samples(e.surface, e.density, grids[k])
        else:
            stacks.setdefault(e.density, []).append(k)
    for dens, ks in stacks.items():
        rep = weighted_mean_curvature(_stacked([entries[k].surface for k in ks]), dens, grids[ks])
        for j, k in enumerate(ks):
            samples[k] = rep.mean_curvature[j], rep.density_term[j], rep.weighted_mean_curvature[j]
    return samples


def _signed_residual(values: np.ndarray, target: float) -> float:
    """Worst deviation from the target, accepting a global orientation sign."""
    return float(
        min(np.max(np.abs(values - target)), np.max(np.abs(values + target)))
    )


def verify_entry(entry: CatalogEntry, tolerance: float, *, samples=None) -> dict:
    """The entry's claim checked against ``samples``, its (H, density term,
    H_F) from the catalog's stacked pass, or against its own samples."""
    h, term, hf = _catalog_samples([entry])[0] if samples is None else samples
    if entry.claim.kind == CLAIM_MINIMAL:
        residual = float(np.max(np.abs(hf)))
    elif entry.claim.kind == CLAIM_CONST_HF:
        residual = _signed_residual(hf, entry.claim.value)
    elif entry.claim.kind == CLAIM_CONST_PAIRING:
        residual = max(
            float(np.max(np.abs(h))), _signed_residual(term, entry.claim.value)
        )
    else:
        raise ValueError(f"unknown claim kind '{entry.claim.kind}'")
    result = {
        "name": entry.name,
        "claim": str(entry.claim),
        "residual": residual,
        "tolerance": tolerance,
        "pass": bool(residual <= tolerance),
        "source": entry.source,
    }
    if entry.annotations:
        result["annotations"] = list(entry.annotations)
    return result


def verify_catalog(tolerance: float = 1e-5) -> list[dict]:
    """``verify_entry``'s result for every ``default_catalog`` entry."""
    entries = default_catalog()
    return [verify_entry(e, tolerance, samples=s) for e, s in zip(entries, _catalog_samples(entries))]
