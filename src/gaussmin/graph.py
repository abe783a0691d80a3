"""Graph hypersurfaces x_{n+1} = u(x) over R^n.

Provides the divergence-form mean curvature with the upward normal
(-grad u, 1)/W, W = sqrt(1 + |grad u|^2), weighted minimality under a
density, the hyperplane minimality classification for product densities,
root finding for stationary horizontal planes, and the weighted area
functional over Gaussian balls whose rigidity characterizes constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .density import Density, DomainError, Profile, as_points, fd_gradient
from .rng import DEFAULT_SEED, substream
from .surface import CurvatureReport, ParametricSurface, tangent_plane_distance


@dataclass(frozen=True)
class GraphFunction:
    """Scalar function u on R^n with gradient and optional Hessian.

    Callables are vectorized: ``u`` maps (..., n) -> (...), ``grad_u`` maps
    (..., n) -> (..., n) and ``hess_u`` maps (..., n) -> (..., n, n).
    Missing derivative providers fall back to central finite differences.
    """

    dimension: int
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_u: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    fd_step: float = 1e-6
    fd_step_hess: float = 1e-4

    def value(self, x):
        return self.u(as_points(x, self.dimension))

    def gradient(self, x):
        x = as_points(x, self.dimension)
        if self.grad_u is not None:
            return np.asarray(self.grad_u(x), dtype=float)
        return fd_gradient(self.u, x, self.fd_step)

    def hessian(self, x):
        x = as_points(x, self.dimension)
        if self.hess_u is not None:
            return np.asarray(self.hess_u(x), dtype=float)
        hess = fd_gradient(self.gradient, x, self.fd_step_hess)
        return 0.5 * (hess + np.swapaxes(hess, -1, -2))

    # ------------------------------------------------------------------ presets

    @staticmethod
    def constant(n: int, level: float = 0.0) -> "GraphFunction":
        return GraphFunction(
            dimension=n,
            u=lambda x: np.full(x.shape[:-1], float(level)),
            grad_u=lambda x: np.zeros_like(x),
            hess_u=lambda x: np.zeros(x.shape + (n,)),
            name=f"constant({level})",
        )

    @staticmethod
    def linear(coeffs: Sequence[float], intercept: float = 0.0) -> "GraphFunction":
        a = np.asarray(coeffs, dtype=float)
        n = a.size
        return GraphFunction(
            dimension=n,
            u=lambda x: x @ a + intercept,
            grad_u=lambda x: np.broadcast_to(a, x.shape).copy(),
            hess_u=lambda x: np.zeros(x.shape + (n,)),
            name=f"linear({tuple(map(float, a))})",
        )

    @staticmethod
    def parabola(n: int = 2) -> "GraphFunction":
        """u(x) = x_1^2."""

        def grad(x):
            g = np.zeros_like(x)
            g[..., 0] = 2.0 * x[..., 0]
            return g

        def hess(x):
            h = np.zeros(x.shape + (n,))
            h[..., 0, 0] = 2.0
            return h

        return GraphFunction(
            dimension=n,
            u=lambda x: x[..., 0] ** 2,
            grad_u=grad,
            hess_u=hess,
            name="parabola",
        )

    @staticmethod
    def sinusoid(n: int = 1, amplitude: float = 0.5, half_width: float = 4.0) -> "GraphFunction":
        """u(x) = amplitude * prod_i sin(pi x_i / half_width)."""
        k = math.pi / half_width

        def u(x):
            return amplitude * np.prod(np.sin(k * x), axis=-1)

        def grad(x):
            s = np.sin(k * x)
            c = np.cos(k * x)
            g = np.empty_like(x)
            for i in range(n):
                others = np.prod(np.delete(s, i, axis=-1), axis=-1) if n > 1 else 1.0
                g[..., i] = amplitude * k * c[..., i] * others
            return g

        def hess(x):
            s = np.sin(k * x)
            c = np.cos(k * x)
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
                    h[..., i, j] = amplitude * fac
            return h

        return GraphFunction(dimension=n, u=u, grad_u=grad, hess_u=hess, name="sinusoid")

    @staticmethod
    def quadratic_form(intercept: float, linear: Sequence[float], quadratic) -> "GraphFunction":
        """u(x) = intercept + <linear, x> + x^T quadratic x / 2."""
        a = np.asarray(linear, dtype=float)
        q = np.asarray(quadratic, dtype=float)
        q = 0.5 * (q + q.T)
        n = a.size

        return GraphFunction(
            dimension=n,
            u=lambda x: intercept + x @ a + 0.5 * np.einsum("...i,ij,...j->...", x, q, x),
            grad_u=lambda x: np.broadcast_to(a, x.shape) + x @ q,
            hess_u=lambda x: np.broadcast_to(q, x.shape + (n,)).copy(),
            name="quadratic_form",
        )

    @staticmethod
    def random_bump(
        n: int = 2,
        seed: int = DEFAULT_SEED,
        amplitude: float = 0.3,
        bumps: int = 4,
    ) -> "GraphFunction":
        """Seeded sum of Gaussian bumps, rescaled so max |u| = amplitude."""
        rng = substream(seed, 0)
        centers = rng.uniform(-2.0, 2.0, size=(bumps, n))
        widths = rng.uniform(0.8, 1.6, size=bumps)
        heights = rng.uniform(-1.0, 1.0, size=bumps)

        h2 = widths**2

        def bumps_at(x):
            """Offsets x - c_k, shape (..., bumps, n), and bump values (..., bumps)."""
            diff = x[..., None, :] - centers
            return diff, heights * np.exp(-np.sum(diff**2, axis=-1) / (2.0 * h2))

        probe = np.stack(
            np.meshgrid(*([np.linspace(-4.0, 4.0, 161)] * n), indexing="ij"), axis=-1
        )
        scale = amplitude / np.max(np.abs(np.sum(bumps_at(probe)[1], axis=-1)))

        def u(x):
            return scale * np.sum(bumps_at(x)[1], axis=-1)

        def grad(x):
            diff, bump = bumps_at(x)
            return scale * np.sum(-bump[..., None] * diff / h2[:, None], axis=-2)

        def hess(x):
            diff, bump = bumps_at(x)
            outer = diff[..., :, None] * diff[..., None, :]
            eye = np.eye(n)
            terms = bump[..., None, None] * (
                outer / h2[:, None, None] ** 2 - eye / h2[:, None, None]
            )
            return scale * np.sum(terms, axis=-3)

        return GraphFunction(
            dimension=n, u=u, grad_u=grad, hess_u=hess, name=f"random_bump({seed})"
        )


def graph_presets(n: int, seed: int = DEFAULT_SEED) -> dict[str, GraphFunction]:
    """The standard preset family used by the verification suites."""
    return {
        "constant": GraphFunction.constant(n, 0.7),
        "linear": GraphFunction.linear([0.5] + [0.0] * (n - 1)),
        "parabola": GraphFunction.parabola(n),
        "sinusoid": GraphFunction.sinusoid(n),
        "random_bump": GraphFunction.random_bump(n, seed=seed),
    }


# --------------------------------------------------------------------- curvature

def graph_slope(u: GraphFunction, x):
    """Area element W = sqrt(1 + |grad u|^2) >= 1."""
    g = u.gradient(x)
    return np.sqrt(1.0 + np.sum(g * g, axis=-1))


def graph_mean_curvature(u: GraphFunction, x):
    """div(grad u / W), expanded as (W^2 tr(D2u) - grad^T D2u grad)/W^3."""
    g = u.gradient(x)
    hess = u.hessian(x)
    w2 = 1.0 + np.sum(g * g, axis=-1)
    trace = np.trace(hess, axis1=-2, axis2=-1)
    quad = np.einsum("...i,...ij,...j->...", g, hess, g)
    return (w2 * trace - quad) / w2**1.5


def graph_curvature_samples(u: GraphFunction, dens: Density, x):
    """Vectorized (H, density term, H_F) with the upward normal.

    ``x`` has shape (..., n); the three returned arrays have shape (...).
    """
    x = np.asarray(x, dtype=float)
    g = u.gradient(x)
    w = np.sqrt(1.0 + np.sum(g * g, axis=-1))
    h = graph_mean_curvature(u, x)
    ambient = np.concatenate([x, u.value(x)[..., None]], axis=-1)
    gf = dens.grad_log_weight(ambient)
    term = (gf[..., -1] - np.sum(gf[..., :-1] * g, axis=-1)) / w
    return h, term, h + term


def graph_weighted_mean_curvature(u: GraphFunction, dens: Density, x) -> CurvatureReport:
    """CurvatureReport for the graph at a single base point x."""
    if dens.dimension != u.dimension + 1:
        raise ValueError(
            f"density dimension {dens.dimension} != ambient {u.dimension + 1}"
        )
    x = np.asarray(x, dtype=float)
    h, term, hf = graph_curvature_samples(u, dens, x)
    g = u.gradient(x)
    w = float(np.sqrt(1.0 + g @ g))
    normal = np.concatenate([-g, [1.0]]) / w
    ambient = np.concatenate([x, [float(u.value(x))]])
    return CurvatureReport(
        chart_point=x,
        ambient_point=ambient,
        unit_normal=normal,
        mean_curvature=float(h),
        density_term=float(term),
        weighted_mean_curvature=float(hf),
    )


def as_parametric(u: GraphFunction, box: Sequence[tuple[float, float]]) -> ParametricSurface:
    """Embed the graph as a parametric surface over the given chart box.

    The chart orientation reproduces the upward normal.
    """
    n = u.dimension

    def immersion(p):
        return np.concatenate([p, [float(u.value(p))]])

    def firsts(p):
        rows = np.zeros((n, n + 1))
        rows[:, :n] = np.eye(n)
        rows[:, n] = u.gradient(p)
        return rows

    def seconds(p):
        out = np.zeros((n, n, n + 1))
        out[:, :, n] = u.hessian(p)
        return out

    return ParametricSurface(
        chart_domain=tuple((float(lo), float(hi)) for lo, hi in box),
        immersion=immersion,
        first_derivatives=firsts,
        second_derivatives=seconds,
        name=f"graph:{u.name}",
    )


# ------------------------------------------------------- hyperplane classification

MINIMAL_HORIZONTAL = "minimal_horizontal"
MINIMAL_TILTED = "minimal_tilted"
NOT_MINIMAL = "not_minimal"


def hyperplane_minimality(
    a_vec: Sequence[float],
    c: float,
    h: Profile,
    *,
    samples: int = 41,
    span: float = 2.0,
    tol: float = 1e-9,
) -> str:
    """Classify the hyperplane sum(a_i x_i) + x_{n+1} + c = 0 under e^{-(f+h)}.

    The plane is weighted minimal iff sum(a_i x_i) + h'(x_{n+1}) vanishes
    identically on it.  Horizontal planes (a = 0) reduce to h'(-c) = 0;
    tilted planes require h' to be affine with unit slope and intercept c,
    i.e. the quadratic profile z^2/2 + c z + b.
    """
    a = np.asarray(a_vec, dtype=float)
    if np.all(a == 0.0):
        z = -float(c)
        if not h.contains(z):
            return NOT_MINIMAL
        return MINIMAL_HORIZONTAL if abs(float(h.slope(z))) <= tol else NOT_MINIMAL
    s = np.linspace(-span, span, samples)
    z = -float(c) - s
    keep = z > h.domain_min + 1e-9
    if np.count_nonzero(keep) < 5:
        return NOT_MINIMAL
    residual = s[keep] + h.slope(z[keep])
    return MINIMAL_TILTED if float(np.max(np.abs(residual))) <= tol else NOT_MINIMAL


def classify_hyperplane(coeffs: Sequence[float], const: float, h: Profile, **kw) -> str:
    """Classify a general non-vertical plane sum(coeffs_i x_i) + const = 0.

    Normalizes by the x_{n+1} coefficient first, so the result is invariant
    under rescaling the equation by any nonzero constant.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if abs(coeffs[-1]) < 1e-14:
        raise ValueError("vertical hyperplane: coefficient of x_{n+1} is zero")
    return hyperplane_minimality(coeffs[:-1] / coeffs[-1], float(const) / coeffs[-1], h, **kw)


# ----------------------------------------------------------------- plane roots

@dataclass(frozen=True)
class RootScan:
    """Roots of h' on an interval. ``identically_zero`` marks h' == 0 on the
    whole interval, in which case every height is stationary."""

    roots: tuple[float, ...]
    identically_zero: bool = False


def horizontal_plane_roots(
    h: Profile,
    interval: tuple[float, float],
    *,
    subintervals: int = 10_000,
    xtol: float = 1e-13,
) -> RootScan:
    """All roots of h' in [lo, hi]: uniform bracketing scan plus bisection.

    Each returned root z has |h'(z)| at the bisection noise floor; simple
    roots only (the presets have no tangential zeros).
    """
    from scipy import optimize  # deferred: only this scan needs it, and it is slow to import

    lo, hi = float(interval[0]), float(interval[1])
    if not (hi > lo):
        raise ValueError("empty interval")
    if not h.contains(lo):
        raise DomainError(
            f"interval [{lo}, {hi}] leaves the domain of profile '{h.name}'"
        )
    grid = np.linspace(lo, hi, subintervals + 1)
    vals = h.slope(grid)
    if float(np.max(np.abs(vals))) < 1e-12:
        return RootScan(roots=(), identically_zero=True)
    roots: list[float] = []
    for i in range(subintervals):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(float(grid[i]))
        elif v0 * v1 < 0.0:
            roots.append(
                float(
                    optimize.bisect(
                        lambda z: float(h.slope(z)), grid[i], grid[i + 1], xtol=xtol
                    )
                )
            )
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return RootScan(roots=tuple(merged), identically_zero=False)


# Closed-form candidates for the stationary height of the quad_log profile,
# i.e. zeros of 4z^2 + z - 1.  Only the first satisfies h'(z) = 0; the second
# (sign-flipped variant) does not and is kept so reports can flag it.
QUAD_LOG_STATIONARY_HEIGHT = (math.sqrt(17.0) - 1.0) / 8.0
QUAD_LOG_ROOT_CANDIDATES = (QUAD_LOG_STATIONARY_HEIGHT, (math.sqrt(17.0) + 1.0) / 8.0)


def audit_root_candidates(
    h: Profile, candidates: Sequence[float], tol: float = 1e-10
) -> list[dict]:
    """Evaluate |h'| at candidate heights and mark which are actual roots."""
    out = []
    for z in candidates:
        slope = float(h.slope(float(z))) if h.contains(z) else math.nan
        out.append(
            {
                "value": float(z),
                "slope": slope,
                "is_root": bool(abs(slope) <= tol) if math.isfinite(slope) else False,
            }
        )
    return out


# ------------------------------------------------------- distance identity suite

def random_quadratic_graph(seed: int, stream: int, n: int = 2) -> GraphFunction:
    """Seeded random quadratic graph used by the distance-identity suite."""
    rng = substream(seed, stream)
    return GraphFunction.quadratic_form(
        intercept=rng.uniform(-1.0, 1.0),
        linear=rng.uniform(-1.0, 1.0, size=n),
        quadratic=rng.uniform(-0.5, 0.5, size=(n, n)),
    )


def tangent_distance_suite(
    trials: int = 100, seed: int = DEFAULT_SEED, n: int = 2
) -> float:
    """Max |d(axis projection, tangent plane) - |<grad f, N>|| over random
    graph surfaces and chart points.

    The two sides are computed along different code paths (plane geometry
    vs. the density pairing); the identity makes the residual roundoff.
    """
    worst = 0.0
    box = ((-2.0, 2.0),) * n
    for i in range(trials):
        u = random_quadratic_graph(seed, i, n)
        surf = as_parametric(u, box)
        p = substream(seed, 10_000 + i).uniform(-2.0, 2.0, size=n)
        lhs, rhs = tangent_plane_distance(surf, p)
        worst = max(worst, abs(lhs - rhs))
    return worst


# ------------------------------------------------------------ weighted area

def bernstein_functional(u: GraphFunction, truncation: float = 8.0, quad=None) -> float:
    """Weighted area of the graph over the Gaussian ball B(0, R).

    Computes int_{|x| <= R} (2 pi)^{-n/2} e^{-|x|^2/2} W(x) dx with the
    normalized Gaussian weight.  The value is bounded below by the Gaussian
    ball mass, with equality iff grad u vanishes on the ball; for R >= 8 the
    mass defect of the comparison bound is below 1e-14 in n <= 3.
    """
    from . import measure

    R2 = truncation * truncation

    def slope_inside(x):
        return graph_slope(u, x) * (np.sum(x * x, axis=-1) <= R2)

    return measure.gaussian_ball_integral(
        slope_inside, u.dimension, truncation, quad or measure.QuadratureSpec()
    )
