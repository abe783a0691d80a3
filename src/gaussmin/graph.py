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
from typing import Callable, Sequence

import numpy as np

from . import measure
from .density import Density, DomainError, Profile, as_points, sq_norm
from .rng import DEFAULT_SEED, VERIFY_STREAMS, substream
from .surface import CurvatureReport, ParametricSurface, separate_jet, tangent_plane_distance

SINUSOID_AMPLITUDE = 0.5
BUMP_COUNT = 4  # Gaussian bumps in a random_bump graph


@dataclass(frozen=True)
class GraphFunction:
    """Scalar function u on R^n given by its jet.

    ``jet(x, order)`` takes points (..., n) and returns (value,) for order 0,
    (value, gradient) for order 1 and (value, gradient, Hessian) for order 2,
    of shapes (...), (..., n) and (..., n, n); every order builds the
    graph's terms once and shares them.  The returned arrays are fresh:
    they share no memory with x or with each other, so callers may
    overwrite them.
    """

    dimension: int
    jet: Callable[[np.ndarray, int], tuple]
    name: str = ""

    def value(self, x):
        return self.jet(as_points(x, self.dimension), 0)[0]

    def gradient(self, x):
        return self.jet(as_points(x, self.dimension), 1)[1]

    def hessian(self, x):
        return self.jet(as_points(x, self.dimension), 2)[2]

    # ------------------------------------------------------------------ presets

    @staticmethod
    def constant(n: int, level: float = 0.0) -> "GraphFunction":
        return GraphFunction(
            dimension=n,
            jet=separate_jet(
                lambda x: np.full(x.shape[:-1], float(level)),
                np.zeros_like,
                lambda x: np.zeros(x.shape + (n,)),
            ),
            name=f"constant({level})",
        )

    @staticmethod
    def linear(coeffs: Sequence[float]) -> "GraphFunction":
        a = np.asarray(coeffs, dtype=float)
        n = a.size
        return GraphFunction(
            dimension=n,
            jet=separate_jet(
                lambda x: x @ a,
                lambda x: np.broadcast_to(a, x.shape).copy(),
                lambda x: np.zeros(x.shape + (n,)),
            ),
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
            jet=separate_jet(lambda x: x[..., 0] ** 2, grad, hess),
            name="parabola",
        )

    @staticmethod
    def sinusoid(n: int = 1, half_width: float = 4.0) -> "GraphFunction":
        """u(x) = SINUSOID_AMPLITUDE * prod_i sin(pi x_i / half_width)."""
        k = math.pi / half_width

        def jet(x, order):
            s = [np.sin(k * x[..., i]) for i in range(n)]
            out = [SINUSOID_AMPLITUDE * math.prod(s)]
            c = []  # the cosines, kept for the Hessian only
            if order >= 1:
                g = np.empty_like(x)
                for i in range(n):
                    ci = np.cos(k * x[..., i])
                    g[..., i] = SINUSOID_AMPLITUDE * k * ci * math.prod(s[:i] + s[i + 1:])
                    if order == 2:
                        c.append(ci)
                out.append(g)
            if order == 2:
                h = np.empty(x.shape + (n,))
                for i, j in np.ndindex(n, n):
                    fac = np.ones(x.shape[:-1])
                    for l in range(n):
                        if l == i == j:
                            fac = fac * (-(k**2) * s[l])
                        elif l in (i, j):
                            fac = fac * k * c[l]
                        else:
                            fac = fac * s[l]
                    h[..., i, j] = SINUSOID_AMPLITUDE * fac
                out.append(h)
            return tuple(out)

        return GraphFunction(dimension=n, jet=jet, name="sinusoid")

    @staticmethod
    def quadratic_form(intercept, linear, quadratic) -> "GraphFunction":
        """u(x) = intercept + <linear, x> + x^T quadratic x / 2; stacked coefficients
        (...), (..., n), (..., n, n) broadcast against the points' leading axes.
        vecdot and vecmat sum in one order whatever the stacking (einsum's order
        follows the operands' layout), so a family gives its members' jets bit
        for bit."""
        a = np.asarray(linear, dtype=float)
        q = np.asarray(quadratic, dtype=float)
        q = 0.5 * (q + np.swapaxes(q, -1, -2))
        n = a.shape[-1]

        return GraphFunction(
            dimension=n,
            jet=separate_jet(
                lambda x: intercept + np.vecdot(x, a)
                + 0.5 * np.vecdot(x, np.vecmat(x, q)),
                lambda x: a + np.vecmat(x, q),
                lambda x: np.broadcast_to(q, np.broadcast_shapes(q.shape, x.shape + (n,))).copy(),
            ),
            name="quadratic_form",
        )

    @staticmethod
    def random_bump(
        n: int = 2,
        seed: int = DEFAULT_SEED,
        amplitude: float = 0.3,
    ) -> "GraphFunction":
        """Seeded sum of BUMP_COUNT Gaussian bumps, rescaled so max |u| = amplitude."""
        if not 1 <= n <= 3:
            raise ValueError(f"random_bump probes a 161^n grid; n must be 1, 2 or 3, got {n}")
        rng = substream(seed, 0)
        centers = rng.uniform(-2.0, 2.0, size=(BUMP_COUNT, n))
        widths = rng.uniform(0.8, 1.6, size=BUMP_COUNT)
        heights = rng.uniform(-1.0, 1.0, size=BUMP_COUNT)
        h2 = widths**2

        def bumps(cols):
            """b_k = heights_k exp(-sum_i d_i^2 / (2 h_k^2)), d_i = x_i - c_ki,
            per bump k in order, from broadcasting coordinate columns."""
            for c, height, h2k in zip(centers, heights, h2):
                d = [col - ci for col, ci in zip(cols, c)]
                yield height * np.exp(-sum(di * di for di in d) / (2.0 * h2k))

        # the 161^n probe as broadcasting axes, in slabs of 161^(3-n) first
        # coordinates (at most 161^2 points each): the same sums, no (161^n, n)
        # array, and the max over slabs is exact
        probe = np.meshgrid(*([np.linspace(-4.0, 4.0, 161)] * n), indexing="ij", sparse=True)
        rows = 161 ** (3 - n)
        scale = amplitude / max(
            np.max(np.abs(sum(bumps([probe[0][k:k + rows], *probe[1:]]))))
            for k in range(0, 161, rows)
        )

        def jet(x, order):
            # one bump at a time, in place on (n, ...) buffers; the sums start
            # at +0.0, as Python's and numpy's do.  g[i] -= (b d_i) / h^2 is
            # += (-b d_i) / h^2 bit for bit
            lead = x.shape[:-1]
            d = np.empty((n, *lead))  # the offsets x_i - c_ki
            b, t = np.empty(lead), np.empty(lead)  # the bump and a scratch row
            value = np.zeros(lead)
            g = np.zeros((n, *lead)) if order >= 1 else None
            h = np.zeros((n, n, *lead)) if order == 2 else None
            for c, height, h2k in zip(centers, heights, h2):
                for i in range(n):
                    np.subtract(x[..., i], c[i], out=d[i, ...])
                np.multiply(d[0], d[0], out=b)
                for i in range(1, n):
                    b += np.multiply(d[i], d[i], out=t)
                np.negative(b, out=b)
                b /= 2.0 * h2k
                np.exp(b, out=b)
                b *= height
                value += b
                if g is not None:
                    for i in range(n):
                        g[i] -= np.divide(np.multiply(b, d[i], out=t), h2k, out=t)
                if h is not None:
                    for i, j in np.ndindex(n, n):
                        np.multiply(d[i], d[j], out=t)
                        t /= h2k * h2k
                        if i == j:
                            t -= 1.0 / h2k
                        h[i, j] += np.multiply(b, t, out=t)
            value *= scale
            out = [value]
            if g is not None:
                g *= scale
                out.append(np.moveaxis(g, 0, -1))
            if h is not None:
                h *= scale
                out.append(np.moveaxis(h, (0, 1), (-2, -1)))
            return tuple(out)

        return GraphFunction(dimension=n, jet=jet, name=f"random_bump({seed})")


_PRESETS: dict[str, Callable[[int, int], GraphFunction]] = {
    "constant": lambda n, seed: GraphFunction.constant(n, 0.7),
    "linear": lambda n, seed: GraphFunction.linear([0.5] + [0.0] * (n - 1)),
    "parabola": lambda n, seed: GraphFunction.parabola(n),
    "sinusoid": lambda n, seed: GraphFunction.sinusoid(n),
    "random_bump": lambda n, seed: GraphFunction.random_bump(n, seed=seed),
}


def graph_preset(name: str, n: int, seed: int = DEFAULT_SEED) -> GraphFunction:
    """One graph of the preset family, built alone; KeyError if unknown."""
    return _PRESETS[name](n, seed)


def graph_presets(n: int, seed: int = DEFAULT_SEED) -> dict[str, GraphFunction]:
    """The standard preset family used by the verification suites."""
    return {name: graph_preset(name, n, seed) for name in _PRESETS}


# --------------------------------------------------------------------- curvature

def graph_slope(u: GraphFunction, x):
    """Area element W = sqrt(1 + |grad u|^2) >= 1."""
    g = u.gradient(x)
    return np.sqrt(1.0 + sq_norm(g))


def _divergence_form(g, hess):
    """div(grad u / W) from the gradient and Hessian of u, expanded as
    (W^2 tr(D2u) - grad^T D2u grad)/W^3; returns it with W.  A stack of
    points gets each point's curvature bit for bit: vecdot and vecmat sum in
    one order whatever the stacking, and np.power takes numpy's pow for one
    point too, where a scalar's ** would take the C library's."""
    w2 = 1.0 + sq_norm(g)
    trace = np.trace(hess, axis1=-2, axis2=-1)
    quad = np.vecdot(g, np.vecmat(g, hess))
    return (w2 * trace - quad) / np.power(w2, 1.5), np.sqrt(w2)


def tangent_minors(g: np.ndarray) -> np.ndarray:
    """*(T_1 ^ ... ^ T_n) = (-g, 1) for graph frames T_i = (e_i, g_i): the
    cofactors of ``surface.generalized_cross``, and W times the upward normal.
    0.0 - g negates as there, without turning a zero slope into -0.0."""
    n = g.shape[-1]
    out = np.empty(g.shape[:-1] + (n + 1,))
    for i in range(n):  # by columns: an op on (..., n) slices runs n-long rows
        np.subtract(0.0, g[..., i], out=out[..., i])
    out[..., n] = 1.0
    return out


def graph_weighted_mean_curvature(u: GraphFunction, dens: Density, x) -> CurvatureReport:
    """CurvatureReport for the graph over base points x of shape (..., n),
    in closed form with the upward normal (-grad u, 1)/W."""
    if dens.dimension != u.dimension + 1:
        raise ValueError(
            f"density dimension {dens.dimension} != ambient {u.dimension + 1}"
        )
    x = as_points(x, u.dimension)
    value, g, hess = u.jet(x, 2)
    h, w = _divergence_form(g, hess)
    ambient = np.concatenate([x, value[..., None]], axis=-1)
    gf = dens.grad_log_weight(ambient)
    term = (gf[..., -1] - np.sum(gf[..., :-1] * g, axis=-1)) / w
    normal = tangent_minors(g) / w[..., None]
    return CurvatureReport(
        chart_point=x,
        ambient_point=ambient,
        unit_normal=normal,
        mean_curvature=h,
        density_term=term,
        weighted_mean_curvature=h + term,
    )


def graph_curvature_samples(u: GraphFunction, dens: Density, x):
    """Vectorized (H, density term, H_F) with the upward normal.

    ``x`` has shape (..., n); the three returned arrays have shape (...).
    """
    rep = graph_weighted_mean_curvature(u, dens, x)
    return rep.mean_curvature, rep.density_term, rep.weighted_mean_curvature


def as_parametric(u: GraphFunction, box: Sequence[tuple[float, float]]) -> ParametricSurface:
    """Embed the graph as a parametric surface over the given chart box.

    The chart orientation reproduces the upward normal.
    """
    n = u.dimension

    def jet(p, order):
        terms = u.jet(p, order)
        out = [np.concatenate([p, terms[0][..., None]], axis=-1)]
        if order >= 1:
            g = terms[1]
            eye = np.broadcast_to(np.eye(n), g.shape + (n,))
            out.append(np.concatenate([eye, g[..., None]], axis=-1))
        if order == 2:
            d2x = np.zeros(p.shape[:-1] + (n, n, n + 1))
            d2x[..., n] = terms[2]
            out.append(d2x)
        return tuple(out)

    return ParametricSurface(
        chart_domain=tuple((float(lo), float(hi)) for lo, hi in box),
        jet=jet,
        name=f"graph:{u.name}",
    )


# ------------------------------------------------------- hyperplane classification

MINIMAL_HORIZONTAL = "minimal_horizontal"
MINIMAL_TILTED = "minimal_tilted"
NOT_MINIMAL = "not_minimal"
# a tilted plane is tested at PLANE_SAMPLES offsets s in [-PLANE_SPAN, PLANE_SPAN]
PLANE_SAMPLES = 41
PLANE_SPAN = 2.0
PLANE_TOL = 1e-9


def hyperplane_minimality(a_vec: Sequence[float], c: float, h: Profile) -> str:
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
        return MINIMAL_HORIZONTAL if abs(float(h.slope(z))) <= PLANE_TOL else NOT_MINIMAL
    s = np.linspace(-PLANE_SPAN, PLANE_SPAN, PLANE_SAMPLES)
    z = -float(c) - s
    keep = z > h.domain_min + 1e-9
    if np.count_nonzero(keep) < 5:
        return NOT_MINIMAL
    residual = s[keep] + h.slope(z[keep])
    return MINIMAL_TILTED if float(np.max(np.abs(residual))) <= PLANE_TOL else NOT_MINIMAL


# ----------------------------------------------------------------- plane roots

@dataclass(frozen=True)
class RootScan:
    """Roots of h' on an interval. ``identically_zero`` marks h' == 0 on the
    whole interval, in which case every height is stationary."""

    roots: tuple[float, ...]
    identically_zero: bool = False


ROOT_SCAN_SUBINTERVALS = 10_000
ROOT_XTOL = 1e-13  # bisection tolerance
ROOT_TOL = 1e-10  # |h'| at or below this marks a candidate height as a root


def horizontal_plane_roots(h: Profile, interval: tuple[float, float]) -> RootScan:
    """All roots of h' in [lo, hi]: a scan of ROOT_SCAN_SUBINTERVALS uniform
    brackets plus bisection.

    Each returned root z has |h'(z)| at the bisection noise floor; simple
    roots only (the presets have no tangential zeros).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (hi > lo):
        raise ValueError("empty interval")
    if not h.contains(lo):
        raise DomainError(
            f"interval [{lo}, {hi}] leaves the domain of profile '{h.name}'"
        )
    grid = np.linspace(lo, hi, ROOT_SCAN_SUBINTERVALS + 1)
    vals = h.slope(grid)
    if float(np.max(np.abs(vals))) < 1e-12:
        return RootScan(roots=(), identically_zero=True)
    # exact zeros on the grid, then every sign change bisected at once with
    # scipy.optimize.bisect's arithmetic: rtol 4 eps, and the left value
    # stays the one at the bracket's original left end
    left = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    xa, fa, dm = grid[left], vals[left], grid[left + 1] - grid[left]
    roots = [float(z) for z in grid[vals == 0.0]]
    while xa.size:
        dm = dm * 0.5
        xm = xa + dm
        fm = h.slope(xm)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < ROOT_XTOL + 4.0 * np.finfo(float).eps * np.abs(xm))
        roots += [float(z) for z in xm[done]]
        xa, fa, dm = xa[~done], fa[~done], dm[~done]
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


def audit_root_candidates(h: Profile, candidates: Sequence[float]) -> list[dict]:
    """Evaluate |h'| at candidate heights and mark which are actual roots."""
    out = []
    for z in candidates:
        slope = float(h.slope(float(z))) if h.contains(z) else math.nan
        # a NaN slope (outside the domain) compares false, so it is no root
        out.append({"value": float(z), "slope": slope, "is_root": bool(abs(slope) <= ROOT_TOL)})
    return out


# ------------------------------------------------------- distance identity suite

TANGENT_SUITE_DIM = 2  # the suite's graphs live over R^2
TANGENT_SUITE_TRIALS = 100  # graphs, one chart point each, per suite


def tangent_distance_suite(seed: int = DEFAULT_SEED) -> float:
    """Max |d(axis projection, tangent plane) - |<grad f, N>|| over
    TANGENT_SUITE_TRIALS random quadratic graph surfaces and chart points.

    One stream draws the stacked intercepts, linear terms, quadratic terms
    and chart points, in that order.  The two sides are computed along
    different code paths (plane geometry vs. the density pairing); the
    identity makes the residual roundoff.
    """
    n, trials = TANGENT_SUITE_DIM, TANGENT_SUITE_TRIALS
    rng = substream(seed, VERIFY_STREAMS["tangent_distance"])
    family = GraphFunction.quadratic_form(
        rng.uniform(-1.0, 1.0, trials),
        rng.uniform(-1.0, 1.0, (trials, n)),
        rng.uniform(-0.5, 0.5, (trials, n, n)),
    )
    p = rng.uniform(-2.0, 2.0, (trials, n))
    lhs, rhs = tangent_plane_distance(as_parametric(family, ((-2.0, 2.0),) * n), p)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


# ------------------------------------------------------------ weighted area

def bernstein_functional(u: GraphFunction, truncation: float = 8.0, quad=None) -> float:
    """Weighted area of the graph over the Gaussian ball B(0, R).

    Computes int_{|x| <= R} (2 pi)^{-n/2} e^{-|x|^2/2} W(x) dx with the
    normalized Gaussian weight.  The value is bounded below by the Gaussian
    ball mass, with equality iff grad u vanishes on the ball; for R >= 8 the
    mass defect of the comparison bound is below 1e-14 in n <= 3.
    """
    R2 = truncation * truncation

    def slope_inside(x):
        return graph_slope(u, x) * (sq_norm(x) <= R2)

    return measure.gaussian_ball_integral(
        slope_inside, u.dimension, truncation, quad or measure.QuadratureSpec()
    )
