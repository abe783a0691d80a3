"""Weighted volumes and areas under the Gauss space x R density.

Gaussian ball mass, weighted sphere and hemisphere areas, weighted areas of
graph caps inside ambient balls, and the volume-growth report that compares
a cap against the ball mass plus the lateral cylinder tail.

Every integral runs on ``gaussian_mc_mean``, ``ball_quadrature`` or
``sphere_quadrature``; the two rules share their angular nodes.

Two tail terms are computed side by side:

* ``exact_lateral_tail``: the weighted area of the lateral cylinder wall,
  (2 pi)^{-n/2} e^{-R^2/2} n C_n R^n, which is what the wall integral
  actually equals under the normalized density;
* ``nominal_lateral_tail``: the coarser expression n e^{-R^2} C_n R^{n-1}
  that is sometimes quoted for the same wall term.

Both vanish as R -> infinity, which is all the limiting volume bound needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from .density import Density, horizontal_gaussian
from .graph import GraphFunction, graph_slope
from .rng import DEFAULT_SEED, substream

_MC_CHUNK = 1 << 18


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate an integral.

    ``spherical_product`` uses Gauss-Legendre radially (order ``order``) and
    a uniform periodic rule in the angles (``angular_order`` nodes);
    ``monte_carlo`` draws ``samples`` points from counter-keyed streams, so a
    fixed seed gives bit-reproducible results.
    """

    method: str = "spherical_product"
    order: int = 64
    angular_order: int = 64
    samples: int = 1_000_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.method not in ("spherical_product", "monte_carlo"):
            raise ValueError(f"unknown quadrature method '{self.method}'")
        if self.order < 2 or self.angular_order < 2:
            raise ValueError("quadrature order must be >= 2")
        if self.samples < 1_000:
            raise ValueError("monte carlo needs at least 1000 samples")


# ----------------------------------------------------------------- closed forms

def unit_ball_volume(n: int) -> float:
    """C_n = pi^{n/2} / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return float(math.pi ** (n / 2.0) / special.gamma(n / 2.0 + 1.0))


def unit_sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n; equals n * C_n (2 for n = 1)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return float(2.0 * math.pi ** (n / 2.0) / special.gamma(n / 2.0))


def gaussian_ball_volume(n: int, R: float) -> float:
    """Normalized Gaussian mass of the centered ball B^n(0, R).

    Equals the regularized lower incomplete gamma P(n/2, R^2/2); monotone in
    R and -> 1 as R -> infinity.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if R < 0:
        raise ValueError("radius must be nonnegative")
    return float(special.gammainc(n / 2.0, R * R / 2.0))


def exact_lateral_tail(n: int, R: float) -> float:
    """Weighted area of the cylinder wall S^{n-1}(0,R) x [0,R]: the wall
    weight (2 pi)^{-n/2} e^{-R^2/2} times the Euclidean area n C_n R^n."""
    return float(
        (2.0 * math.pi) ** (-n / 2.0)
        * math.exp(-R * R / 2.0)
        * n
        * unit_ball_volume(n)
        * R**n
    )


def nominal_lateral_tail(n: int, R: float) -> float:
    """The coarser tail expression n e^{-R^2} C_n R^{n-1}."""
    return float(n * math.exp(-R * R) * unit_ball_volume(n) * R ** (n - 1))


# ----------------------------------------------------------------- monte carlo

def gaussian_mc_mean(
    fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> tuple[float, float]:
    """Mean and standard error of fn(X) for X ~ N(0, I_n).

    Expectations against the standard normal are exactly integrals against
    the normalized Gaussian weight.  Sampling is chunked into counter-keyed
    substreams, so the result does not depend on how chunks are scheduled.
    """
    total = 0.0
    total_sq = 0.0
    done = 0
    stream = 0
    while done < samples:
        take = min(_MC_CHUNK, samples - done)
        x = substream(seed, stream).standard_normal((take, n))
        v = np.asarray(fn(x), dtype=float)
        total += float(np.sum(v))
        total_sq += float(np.sum(v * v))
        done += take
        stream += 1
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def gaussian_ball_volume_mc(
    n: int, R: float, samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the Gaussian ball mass."""
    R2 = R * R
    return gaussian_mc_mean(
        lambda x: (np.sum(x * x, axis=-1) <= R2).astype(float), n, samples, seed
    )


# ----------------------------------------------------------------- quadratures

def _leggauss(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _horizontal_directions(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the unit (n-1)-sphere in R^n, n in {1,2,3}."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        phi = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        return (
            np.stack([np.cos(phi), np.sin(phi)], axis=-1),
            np.full(m, 2.0 * math.pi / m),
        )
    if n == 3:
        mu, wmu = _leggauss(m, -1.0, 1.0)  # cos(theta)
        phi = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        s = np.sqrt(1.0 - mu * mu)
        dirs = np.stack(
            [
                np.outer(s, np.cos(phi)).ravel(),
                np.outer(s, np.sin(phi)).ravel(),
                np.repeat(mu, phi.size),
            ],
            axis=-1,
        )
        return dirs, np.repeat(wmu, phi.size) * (2.0 * math.pi / phi.size)
    raise ValueError("ball and sphere quadratures support n in {1, 2, 3}")


def ball_quadrature(
    n: int, R: float, spec: Optional[QuadratureSpec] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Polar-product nodes and weights for the ball B^n(0, R), n in {1,2,3}.

    The radial factor is Gauss-Legendre with the r^{n-1} Jacobian, the
    directions are those of the sphere rule; n = 1 is plain Gauss-Legendre
    on [-R, R].  The integrand is assumed smooth on the closed ball.
    """
    spec = spec or QuadratureSpec()
    if spec.method == "monte_carlo":
        raise ValueError("monte carlo is handled by the caller, not as node sets")
    if n == 1:
        x, w = _leggauss(spec.order, -R, R)
        return x[:, None], w
    dirs, dw = _horizontal_directions(n, spec.angular_order)
    r, wr = _leggauss(spec.order, 0.0, R)
    pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    wts = ((wr * r ** (n - 1))[:, None] * dw[None, :]).ravel()
    return pts, wts


def sphere_quadrature(
    n: int,
    R: float,
    upper_half: bool = True,
    spec: Optional[QuadratureSpec] = None,
    axis_offset: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the n-sphere S^n(c, R) in R^{n+1}, c on the
    vertical axis at height ``axis_offset``.

    Points are (R sin(t) w, offset + R cos(t)) with t the polar angle from
    the north pole and w a horizontal unit direction; the area element is
    R^n sin^{n-1}(t) dt dsigma(w).
    """
    spec = spec or QuadratureSpec()
    t, wt = _leggauss(spec.order, 0.0, math.pi / 2.0 if upper_half else math.pi)
    dirs, dw = _horizontal_directions(n, spec.angular_order)
    horiz = (R * np.sin(t))[:, None, None] * dirs[None, :, :]
    vert = axis_offset + R * np.cos(t)
    pts = np.concatenate(
        [
            horiz.reshape(-1, n),
            np.repeat(vert, dirs.shape[0])[:, None],
        ],
        axis=-1,
    )
    wts = (R**n * np.sin(t) ** (n - 1) * wt)[:, None] * dw[None, :]
    return pts, wts.ravel()


# --------------------------------------------------------------- weighted areas

def weighted_sphere_area_mc(
    dens: Density,
    n: int,
    R: float,
    upper_half: bool = True,
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    axis_offset: float = 0.0,
) -> tuple[float, float]:
    """Monte Carlo (value, standard error) for the weighted sphere area.

    Normalized standard normals in R^{n+1} are uniform on the sphere; the
    upper-half restriction sits in the indicator, so the full area
    multiplies the mean in both cases.
    """

    def on_sphere(g):
        p = R * g / np.linalg.norm(g, axis=1, keepdims=True)
        p[:, -1] += axis_offset
        v = dens.weight(p)
        if upper_half:
            v = v * (p[:, -1] > axis_offset)
        return v

    mean, stderr = gaussian_mc_mean(on_sphere, n + 1, samples, seed)
    area = unit_sphere_area(n + 1) * R**n
    return area * mean, area * stderr


def weighted_sphere_area(
    dens: Density,
    n: int,
    R: float,
    upper_half: bool = True,
    quad: Optional[QuadratureSpec] = None,
    axis_offset: float = 0.0,
) -> float:
    """Weighted n-area of S^n(c, R) (or its upper half) under e^{-F}.

    For densities independent of the vertical coordinate the value does not
    depend on ``axis_offset``.
    """
    if dens.dimension != n + 1:
        raise ValueError(f"density dimension {dens.dimension} != ambient {n + 1}")
    if R == 0.0:
        return 0.0
    spec = quad or QuadratureSpec()
    if spec.method == "monte_carlo":
        return weighted_sphere_area_mc(
            dens, n, R, upper_half, spec.samples, spec.seed, axis_offset
        )[0]
    pts, wts = sphere_quadrature(n, R, upper_half, spec, axis_offset)
    return float(np.sum(wts * dens.weight(pts)))


def gaussian_ball_integral(
    fn: Callable[[np.ndarray], np.ndarray], n: int, R: float, spec: QuadratureSpec
) -> float:
    """int_{|x| <= R} (2 pi)^{-n/2} e^{-|x|^2/2} fn(x) dx.

    ``fn`` must vanish outside B^n(0, R): the Monte Carlo route averages it
    over all of R^n, the spherical_product route only sees the ball.
    """
    if spec.method == "monte_carlo":
        return gaussian_mc_mean(fn, n, spec.samples, spec.seed)[0]
    pts, wts = ball_quadrature(n, R, spec)
    weight = (2.0 * math.pi) ** (-n / 2.0) * np.exp(-0.5 * np.sum(pts * pts, axis=-1))
    return float(np.sum(wts * weight * fn(pts)))


def graph_cap_weighted_area(u, R: float, quad: Optional[QuadratureSpec] = None) -> float:
    """Weighted n-area of the graph piece inside the ambient ball B(p, R),
    p the intersection of the graph with the vertical axis.

    Integrates the normalized Gaussian weight times W over
    {x : |x|^2 + (u(x) - u(0))^2 <= R^2}.  Default is Monte Carlo: the ball
    indicator is discontinuous, which defeats high-order rules for general
    graphs; for smooth special cases pass a spherical_product spec.
    """
    n = u.dimension
    u0 = float(u.value(np.zeros(n)))
    R2 = R * R

    def slope_inside(x):
        du = np.asarray(u.value(x), dtype=float) - u0
        return graph_slope(u, x) * (np.sum(x * x, axis=-1) + du * du <= R2)

    return gaussian_ball_integral(
        slope_inside, n, R, quad or QuadratureSpec(method="monte_carlo")
    )


# ------------------------------------------------------------------ bound report

@dataclass(frozen=True)
class VolumeBoundReport:
    """One radius of the volume-growth comparison.

    ``chain_ok`` gates on the exact lateral tail; ``hemisphere`` carries the
    weighted upper-hemisphere area (the intermediate comparison surface) and
    ``hemisphere_ok`` whether the cap is below it.
    """

    n: int
    R: float
    lhs: float
    ball_term: float
    nominal_tail: float
    exact_tail: float
    chain_ok: bool
    hemisphere: float
    hemisphere_ok: bool

    CSV_HEADER = "n,R,lhs,ball_term,nominal_tail,exact_tail,chain_ok"

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.R:.17g},{self.lhs:.17g},{self.ball_term:.17g},"
            f"{self.nominal_tail:.17g},{self.exact_tail:.17g},"
            f"{'true' if self.chain_ok else 'false'}"
        )


def volume_bound_report(
    u, n: int, R: float, quad: Optional[QuadratureSpec] = None
) -> VolumeBoundReport:
    """Compare the weighted cap area of a (weighted minimal) graph against
    the Gaussian ball mass plus the lateral tail, and against the weighted
    upper hemisphere.

    The caller asserts weighted minimality of ``u``; the constant presets
    are the known entire examples.
    """
    spec = quad or QuadratureSpec()
    lhs = graph_cap_weighted_area(u, R, spec)
    ball = gaussian_ball_volume(n, R)
    hemi = weighted_sphere_area(
        horizontal_gaussian(n), n, R, upper_half=True,
        quad=spec if spec.method != "monte_carlo" else None,
    )
    exact = exact_lateral_tail(n, R)
    return VolumeBoundReport(
        n=n,
        R=float(R),
        lhs=lhs,
        ball_term=ball,
        nominal_tail=nominal_lateral_tail(n, R),
        exact_tail=exact,
        chain_ok=bool(lhs <= ball + exact + 1e-9),
        hemisphere=hemi,
        hemisphere_ok=bool(lhs <= hemi + 1e-9),
    )


def bound_sweep(
    n: int,
    radii: Sequence[float],
    quad: Optional[QuadratureSpec] = None,
    u=None,
) -> list[VolumeBoundReport]:
    """Volume-growth reports over a radius grid, defaulting to the constant
    graph (the flat entire example)."""
    if u is None:
        u = GraphFunction.constant(n, 0.0)
    return [volume_bound_report(u, n, float(R), quad) for R in radii]
