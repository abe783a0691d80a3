"""Catalog of benchmark surfaces, each bundled with its claimed property.

Covers the named examples in Gauss space x R: planes parallel to or through
the vertical axis, horizontal planes, right circular cylinders about the
axis, the helicoid-catenoid associate family (minimal, with density pairing
sin(theta)), the parabola graph that is weighted minimal under its companion
product density, and the stationary horizontal plane of that density.

``verify_catalog`` samples every claim over its chart and reports worst-case
residuals; failures are data, not exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .density import Density, Profile, horizontal_gaussian
from .graph import (
    GraphFunction,
    QUAD_LOG_ROOT_CANDIDATES,
    QUAD_LOG_STATIONARY_HEIGHT,
    graph_curvature_samples,
)
from .surface import ParametricSurface, weighted_mean_curvature

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

def make_associate_family(theta: float, v_max: float = 2.0) -> ParametricSurface:
    """The minimal associate family joining helicoid (theta = 0) and
    catenoid (theta = pi/2), on the chart (-pi, pi] x [-v_max, v_max].

    Analytic first and second derivatives are included so curvature
    residuals sit at roundoff.
    """
    ct, st = math.cos(theta), math.sin(theta)

    def immersion(p):
        u, v = p
        return np.array(
            [
                ct * math.sinh(v) * math.sin(u) + st * math.cosh(v) * math.cos(u),
                -ct * math.sinh(v) * math.cos(u) + st * math.cosh(v) * math.sin(u),
                ct * u + st * v,
            ]
        )

    def firsts(p):
        u, v = p
        su, cu = math.sin(u), math.cos(u)
        sv, cv = math.sinh(v), math.cosh(v)
        return np.array(
            [
                [ct * sv * cu - st * cv * su, ct * sv * su + st * cv * cu, ct],
                [ct * cv * su + st * sv * cu, -ct * cv * cu + st * sv * su, st],
            ]
        )

    def seconds(p):
        u, v = p
        su, cu = math.sin(u), math.cos(u)
        sv, cv = math.sinh(v), math.cosh(v)
        d_uu = [-ct * sv * su - st * cv * cu, ct * sv * cu - st * cv * su, 0.0]
        d_uv = [ct * cv * cu - st * sv * su, ct * cv * su + st * sv * cu, 0.0]
        d_vv = [ct * sv * su + st * cv * cu, -ct * sv * cu + st * cv * su, 0.0]
        return np.array([[d_uu, d_uv], [d_uv, d_vv]])

    return ParametricSurface(
        chart_domain=((-math.pi, math.pi), (-v_max, v_max)),
        immersion=immersion,
        first_derivatives=firsts,
        second_derivatives=seconds,
        name=f"associate(theta={theta:.6g})",
    )


def _associate_entry(theta: float, name: str, claim: Claim, source: str) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        surface=make_associate_family(theta),
        density=horizontal_gaussian(2),
        claim=claim,
        source=source,
        annotations=(
            "chart cross product yields normal third component -sinh(v)/cosh(v); "
            "the variant -sinh(u)/cosh(v) is not orthogonal to the chart tangents",
        ),
    )


def make_cylinder(r: float, half_height: float = 2.0) -> CatalogEntry:
    """Right circular cylinder of radius r about the vertical axis.

    With the outward normal, H_F = r - 1/r; radius 1 is weighted minimal.
    """
    if r <= 0:
        raise ValueError("radius must be positive")

    def immersion(p):
        t, z = p
        return np.array([r * math.cos(t), r * math.sin(t), z])

    def firsts(p):
        t, _ = p
        return np.array([[-r * math.sin(t), r * math.cos(t), 0.0], [0.0, 0.0, 1.0]])

    def seconds(p):
        t, _ = p
        out = np.zeros((2, 2, 3))
        out[0, 0] = [-r * math.cos(t), -r * math.sin(t), 0.0]
        return out

    target = r - 1.0 / r
    claim = Claim(CLAIM_MINIMAL) if abs(target) < 1e-12 else Claim(CLAIM_CONST_HF, target)
    return CatalogEntry(
        name=f"cylinder_r{r:g}",
        surface=ParametricSurface(
            chart_domain=((-math.pi, math.pi), (-half_height, half_height)),
            immersion=immersion,
            first_derivatives=firsts,
            second_derivatives=seconds,
            name=f"cylinder(r={r:g})",
        ),
        density=horizontal_gaussian(2),
        claim=claim,
        source=f"right circular cylinder of radius {r:g} about the vertical axis",
    )


def make_plane(normal, offset: float, extent: float = 2.5) -> CatalogEntry:
    """Plane {<normal, p> = offset} for a horizontal or vertical unit normal.

    A horizontal normal gives a plane parallel to the vertical axis with
    constant H_F = offset (weighted minimal iff it contains the axis); a
    vertical normal gives a horizontal plane.
    """
    nu = np.asarray(normal, dtype=float)
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

    def immersion(p):
        return p0 + p[0] * basis[0] + p[1] * basis[1]

    return CatalogEntry(
        name=f"plane_offset{offset:g}",
        surface=ParametricSurface(
            chart_domain=((-extent, extent), (-extent, extent)),
            immersion=immersion,
            first_derivatives=lambda p: basis.copy(),
            second_derivatives=lambda p: np.zeros((2, 2, 3)),
            name=f"plane(offset={offset:g})",
        ),
        density=horizontal_gaussian(2),
        claim=claim,
        source=f"plane {kind}",
    )


def make_horizontal_plane(
    a: float, profile: Optional[Profile] = None, extent: float = 2.5
) -> CatalogEntry:
    """Horizontal plane z = a; weighted minimal under the horizontal
    Gaussian, and under a product density exactly when h'(a) = 0."""
    if profile is None:
        dens = horizontal_gaussian(2)
        slope = 0.0
        source = "horizontal plane under the horizontal Gaussian density"
        annotations: tuple[str, ...] = ()
    else:
        dens = Density.product(Density.gaussian(2), profile)
        slope = float(profile.slope(a))
        source = f"horizontal plane at the stationary height of profile '{profile.name}'"
        annotations = ()
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
        sample_box=((-extent, extent), (-extent, extent)),
        annotations=annotations,
    )


def make_parabola_with_profile(extent: float = 3.0) -> CatalogEntry:
    """Graph z = x^2 over the plane, weighted minimal under the product
    density with the quad_log companion profile."""
    return CatalogEntry(
        name="parabola_quad_log",
        surface=GraphFunction.parabola(2),
        density=Density.product(Density.gaussian(2), Profile.quad_log()),
        claim=Claim(CLAIM_MINIMAL),
        source="entire non-planar weighted minimal graph z = x^2 under the companion product density",
        sample_box=((-extent, extent), (-extent, extent)),
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

def _sample_grid(box, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _entry_samples(entry: CatalogEntry, per_axis: int):
    """(H, density term, H_F) arrays over the sample grid."""
    if isinstance(entry.surface, GraphFunction):
        box = entry.sample_box
        if box is None:
            raise ValueError(f"entry '{entry.name}' needs a sample_box")
        pts = _sample_grid(box, per_axis)
        return graph_curvature_samples(entry.surface, entry.density, pts)
    pts = _sample_grid(entry.surface.chart_domain, per_axis)
    h = np.empty(pts.shape[0])
    term = np.empty(pts.shape[0])
    for i, p in enumerate(pts):
        rep = weighted_mean_curvature(entry.surface, entry.density, p)
        h[i] = rep.mean_curvature
        term[i] = rep.density_term
    return h, term, h + term


def _signed_residual(values: np.ndarray, target: float) -> float:
    """Worst deviation from the target, accepting a global orientation sign."""
    return float(
        min(np.max(np.abs(values - target)), np.max(np.abs(values + target)))
    )


def verify_entry(entry: CatalogEntry, tolerance: float, per_axis: int = 21) -> dict:
    h, term, hf = _entry_samples(entry, per_axis)
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


@dataclass(frozen=True)
class CatalogReport:
    tolerance: float
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.results)

    def worst(self) -> float:
        return max((r["residual"] for r in self.results), default=0.0)


def verify_catalog(
    tolerance: float = 1e-5,
    entries: Optional[list[CatalogEntry]] = None,
    per_axis: int = 21,
) -> CatalogReport:
    """Check every entry's claim at the tolerance; an empty catalog passes
    vacuously."""
    entries = default_catalog() if entries is None else entries
    return CatalogReport(
        tolerance=tolerance,
        results=[verify_entry(e, tolerance, per_axis) for e in entries],
    )
