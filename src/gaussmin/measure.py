"""Weighted volumes and areas under the Gauss space x R density.

Gaussian ball mass, weighted sphere and hemisphere areas, weighted areas of
graph caps inside ambient balls, and the volume-growth report that compares
a cap against the ball mass plus the lateral cylinder tail.

Every integral runs on ``gaussian_mc_mean``, ``ball_quadrature`` or
``sphere_quadrature``; the last is 1-D for every n, since every ``Density``
weight is invariant under horizontal rotations.
Integrands keep ``density``'s column-order contract, bit for bit: ``sq_norm``
sums fewer than 8 columns one by one, numpy's order; from 8 on, ``np.sum``.

Two tail terms are computed side by side, each one ``exp`` of a sum of logs:

* ``exact_lateral_tail``: the weighted area of the lateral cylinder wall,
  (2 pi)^{-n/2} e^{-R^2/2} n C_n R^n, which is what the wall integral
  actually equals under the normalized density;
* ``nominal_lateral_tail``: the coarser expression n e^{-R^2} C_n R^{n-1}
  that is sometimes quoted for the same wall term.

Both vanish as R -> infinity, which is all the limiting volume bound needs.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .density import Density, sq_norm
from .rng import DEFAULT_SEED, substream

_MC_CHUNK = 1 << 18  # samples per counter-keyed stream
_ROW_BLOCK = 1 << 15  # rows per integrand call: few numpy calls, so threads seldom trade the GIL
QUAD_ORDER = 64  # Gauss-Legendre nodes in the radius or the polar angle
QUAD_ANGULAR_ORDER = 64  # nodes per angular coordinate of the direction rule
GAUSSIAN_MASS_MARGIN = 10.0  # P(|X| >= sqrt(n) + t) <= e^{-t^2/2} < 2e-22 at t = 10


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate an integral.

    ``quadrature`` is 1-D Gauss-Legendre (``QUAD_ORDER`` nodes) in the
    radius or the polar angle, times, for ball integrals over R^2 and R^3, a
    rule in the horizontal direction (``QUAD_ANGULAR_ORDER`` nodes per angle);
    ``monte_carlo`` draws ``samples`` points from counter-keyed streams, so a
    fixed seed gives bit-reproducible results.
    """

    method: str = "quadrature"
    samples: int = 1_000_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.method not in ("quadrature", "monte_carlo"):
            raise ValueError(f"unknown quadrature method '{self.method}'")
        if self.samples < 1_000:
            raise ValueError("monte carlo needs at least 1000 samples")


# ----------------------------------------------------------------- closed forms

def unit_ball_volume(n: int) -> float:
    """C_n = pi^{n/2} / Gamma(n/2 + 1); OverflowError past n = 341."""
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:
        raise OverflowError(f"unit ball volume C_{n}: Gamma({n / 2 + 1:g}) overflows") from None


def unit_sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n, n C_n; OverflowError past n = 343."""
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise OverflowError(f"unit sphere area |S^{n - 1}|: Gamma({n / 2:g}) overflows") from None


def _area_scale(k: int, n: int, R: float) -> float:
    """|S^{k-1}| R^n, or an OverflowError that names it where it is no float."""
    try:
        power = R**n
    except OverflowError:
        power = math.inf
    scale = unit_sphere_area(k) * power  # raises on its own where Gamma(k/2) overflows
    if scale == math.inf:
        raise OverflowError(f"sphere area scale |S^{k - 1}| R^{n} overflows at R = {R:g}")
    return scale


def gaussian_ball_volume(n: int, R: float) -> float:
    """Normalized Gaussian mass of the centered ball B^n(0, R).

    Equals the regularized lower incomplete gamma P(n/2, R^2/2); monotone in
    R and -> 1 as R -> infinity.
    """
    from scipy import special  # deferred: slow to import

    if n < 1:
        raise ValueError("dimension must be positive")
    if R < 0:
        raise ValueError("radius must be nonnegative")
    return float(special.gammainc(n / 2.0, R * R / 2.0))


def _log_power(R: float, k: int) -> float:
    """log(R^k), with 0^0 = 1."""
    return k * math.log(R) if R > 0.0 else (-math.inf if k else 0.0)


def exact_lateral_tail(n: int, R: float) -> float:
    """Weighted area of the cylinder wall S^{n-1}(0,R) x [0,R], (2 pi)^{-n/2}
    e^{-R^2/2} n C_n R^n = 2^{1-n/2} R^n e^{-R^2/2} / Gamma(n/2)."""
    log_tail = (1.0 - 0.5 * n) * math.log(2.0) - math.lgamma(0.5 * n) + _log_power(R, n)
    return math.exp(log_tail - 0.5 * R * R)


def nominal_lateral_tail(n: int, R: float) -> float:
    """The coarser tail n e^{-R^2} C_n R^{n-1}, n C_n = 2 pi^{n/2} / Gamma(n/2)."""
    log_area = math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)
    return math.exp(log_area + _log_power(R, n - 1) - R * R)


# ----------------------------------------------------------------- monte carlo

def gaussian_mc_mean(
    fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> tuple[float, float]:
    """Mean and standard error of fn(X) for X ~ N(0, I_n).

    Expectations against the standard normal are exactly integrals against
    the normalized Gaussian weight.  Each ``_MC_CHUNK`` samples form one
    counter-keyed substream with its own sums, added in stream order, so the
    result does not depend on how chunks are scheduled: they run on up to
    the allowed CPU count of threads, the caller's among them, with the same
    bits for any count.  Within a chunk, ``fn`` sees ``_ROW_BLOCK`` rows at
    a time, drawn in order from the chunk's stream; blocks are only the
    evaluation unit, so ``fn`` must act row-wise.  ``fn`` may run in several
    threads at once, so it must not mutate shared state.  An exception in
    any thread re-raises here once every thread has stopped.
    """
    if samples < 1:
        raise ValueError("monte carlo needs at least one sample")
    chunks = -(-samples // _MC_CHUNK)
    sums: list = [None] * chunks  # (sum of v, sum of v^2) per chunk
    todo = iter(range(chunks))  # shared: each next() hands out one chunk
    failed: list[BaseException] = []  # the first one stops every thread at its next chunk

    def work(v: np.ndarray, rows: np.ndarray) -> None:
        try:
            for c in todo:
                if failed:
                    return
                take = min(_MC_CHUNK, samples - c * _MC_CHUNK)
                rng = substream(seed, c)
                for k in range(0, take, _ROW_BLOCK):
                    block = rows[:min(_ROW_BLOCK, take - k)]
                    rng.standard_normal(out=block)  # the bits of standard_normal(block.shape)
                    v[k:k + len(block)] = fn(block)
                w = v[:take]
                total = float(np.sum(w))
                sums[c] = (total, float(np.sum(np.multiply(w, w, out=w))))
        except BaseException as exc:  # re-raised below, once every thread has stopped
            failed.append(exc)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # each thread's samples and normals, from the caller's heap: what a helper
    # allocates stays in its own malloc arena once freed, and adds to peak RSS
    buffers = [
        (np.empty(min(_MC_CHUNK, samples)), np.empty((min(_ROW_BLOCK, samples), n)))
        for _ in range(min(chunks, cpus))
    ]
    # a plain thread starts in an empty context: np.errstate would not reach it
    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, *b))
        for b in buffers[1:]
    ]
    for t in helpers:
        t.start()
    work(*buffers[0])
    for t in helpers:
        t.join()
    if failed:
        raise failed[0]
    total = total_sq = 0.0
    for s, s2 in sums:
        total += s
        total_sq += s2
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def gaussian_ball_volume_mc(
    n: int, R: float, samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the Gaussian ball mass."""
    R2 = R * R
    return gaussian_mc_mean(
        lambda x: (sq_norm(x) <= R2).astype(float), n, samples, seed
    )


# ----------------------------------------------------------------- quadratures

def _leggauss(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _horizontal_directions(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the unit (n-1)-sphere in R^n, n in {2, 3}."""
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
    raise ValueError("ball quadrature supports n in {1, 2, 3}")


def ball_quadrature(n: int, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Polar-product nodes and weights for the ball B^n(0, R), n in {1,2,3}.

    The radial factor is Gauss-Legendre with the r^{n-1} Jacobian, times
    ``_horizontal_directions``; n = 1 is plain Gauss-Legendre on [-R, R].
    The integrand is assumed smooth on the closed ball.
    """
    if n == 1:
        x, w = _leggauss(QUAD_ORDER, -R, R)
        return x[:, None], w
    dirs, dw = _horizontal_directions(n, QUAD_ANGULAR_ORDER)
    r, wr = _leggauss(QUAD_ORDER, 0.0, R)
    pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    wts = ((wr * r ** (n - 1))[:, None] * dw[None, :]).ravel()
    return pts, wts


def sphere_quadrature(
    n: int, R: float, upper_half: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Polar-angle nodes and weights for the centered n-sphere S^n(0, R) in
    R^{n+1}, for weights invariant under rotations of the first n coordinates.

    Points are (R sin(t), 0, ..., 0, R cos(t)), t the polar angle; weights
    are |S^{n-1}| R^n sin^{n-1}(t) dt.  ``QUAD_ORDER`` nodes cover [0, pi/2],
    or each of [0, t_c] and [t_c, pi/2] where R sin(t_c) = sqrt(n) + 10 < R:
    a horizontal Gaussian's peak near the pole gets its own panel.  The full
    sphere adds the mirror images on [pi/2, pi].
    """
    area = _area_scale(n, n, R)  # first: an overflowing area fails before any array
    t_c = math.asin(min(1.0, (math.sqrt(n) + GAUSSIAN_MASS_MARGIN) / R)) if R > 0.0 else math.pi / 2
    panels = [_leggauss(QUAD_ORDER, a, b) for a, b in ((0.0, t_c), (t_c, math.pi / 2.0)) if a < b]
    t, wt = (np.concatenate(parts) for parts in zip(*panels))
    pts = np.column_stack([R * np.sin(t), np.zeros((t.size, n - 1)), R * np.cos(t)])
    wts = area * np.sin(t) ** (n - 1) * wt
    if upper_half:
        return pts, wts
    # mirrored, since one rule on [0, pi] is too coarse near the poles at large R
    return np.concatenate([pts, pts * np.append(np.ones(n), -1.0)]), np.concatenate([wts, wts])


# --------------------------------------------------------------- weighted areas

def weighted_sphere_area_mc(
    dens: Density,
    R: float,
    upper_half: bool = True,
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> tuple[float, float]:
    """Monte Carlo (value, standard error) for the weighted area of the
    centered sphere S^n(0, R) in the density's R^{n+1}.

    Normalized standard normals in R^{n+1} are uniform on the sphere; the
    upper-half restriction sits in the indicator, so the full area
    multiplies the mean in both cases.
    """
    n = dens.dimension - 1
    area = _area_scale(n + 1, n, R)  # first: an overflowing area fails before any sampling

    def on_sphere(g):
        p = R * g / np.sqrt(sq_norm(g))[:, None]
        with np.errstate(over="ignore"):  # R^2 past 1.8e308 squares to inf: the density's limit
            v = dens.weight(p)
        if upper_half:
            v = v * (p[:, -1] > 0.0)
        return v

    mean, stderr = gaussian_mc_mean(on_sphere, n + 1, samples, seed)
    return area * mean, area * stderr


def weighted_sphere_area(
    dens: Density,
    R: float,
    upper_half: bool = True,
    quad: Optional[QuadratureSpec] = None,
) -> float:
    """Weighted n-area of the centered sphere S^n(0, R) (or its upper half)
    in the density's R^{n+1}, under e^{-F}."""
    if R == 0.0:
        return 0.0
    spec = quad or QuadratureSpec()
    if spec.method == "monte_carlo":
        return weighted_sphere_area_mc(dens, R, upper_half, spec.samples, spec.seed)[0]
    pts, wts = sphere_quadrature(dens.dimension - 1, R, upper_half)
    with np.errstate(over="ignore"):  # R^2 past 1.8e308 squares to inf: the density's limit
        return float(np.sum(wts * dens.weight(pts)))


def gaussian_ball_integral(
    fn: Callable[[np.ndarray], np.ndarray], n: int, R: float, spec: QuadratureSpec
) -> float:
    """int_{|x| <= R} (2 pi)^{-n/2} e^{-|x|^2/2} fn(x) dx.

    ``fn`` must vanish outside B^n(0, R): the Monte Carlo route averages it
    over all of R^n, the quadrature route only sees the ball.  Both
    routes call it on at most ``_ROW_BLOCK`` rows at once, so it acts row-wise.
    The Monte Carlo route runs on up to the allowed CPU count of threads, with
    the same result for any count, and may call ``fn`` in several threads at
    once, so ``fn`` must not mutate shared state.
    """
    if spec.method == "monte_carlo":
        return gaussian_mc_mean(fn, n, spec.samples, spec.seed)[0]
    pts, wts = ball_quadrature(n, min(R, math.sqrt(n) + GAUSSIAN_MASS_MARGIN))
    weight = (2.0 * math.pi) ** (-n / 2.0) * np.exp(-0.5 * sq_norm(pts))
    values = np.empty(len(pts))
    for k in range(0, len(pts), _ROW_BLOCK):
        values[k:k + _ROW_BLOCK] = fn(pts[k:k + _ROW_BLOCK])
    return float(np.sum(wts * weight * values))


def graph_cap_weighted_area(u, R: float, quad: QuadratureSpec) -> float:
    """Weighted n-area of the graph piece inside the ambient ball B(p, R),
    p the intersection of the graph with the vertical axis.

    Integrates the normalized Gaussian weight times W over
    {x : |x|^2 + (u(x) - u(0))^2 <= R^2}.  The ball indicator is
    discontinuous, which defeats high-order rules for general graphs: the
    ``quadrature`` route converges at low order there, and ``monte_carlo``
    does not depend on smoothness.
    """
    n = u.dimension
    u0 = float(u.value(np.zeros(n)))
    R2 = R * R

    def slope_inside(x):
        r2, grad = u.jet(x, 1)  # fresh arrays: u(x) becomes |x|^2 + (u(x) - u0)^2 in place
        r2 -= u0
        r2 *= r2
        r2 += sq_norm(x)
        w = sq_norm(grad)
        w += 1.0
        np.sqrt(w, out=w)
        w *= r2 <= R2
        return w

    return gaussian_ball_integral(slope_inside, n, R, quad)


# ------------------------------------------------------------------ bound report

@dataclass(frozen=True)
class VolumeBoundReport:
    """One radius of the volume-growth comparison: the weighted cap area
    ``lhs`` against the Gaussian ball mass plus a lateral tail.

    ``chain_ok`` gates on the exact lateral tail.
    """

    n: int
    R: float
    lhs: float
    ball_term: float
    nominal_tail: float
    exact_tail: float
    chain_ok: bool

    CSV_HEADER = "n,R,lhs,ball_term,nominal_tail,exact_tail,chain_ok"

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.R:.17g},{self.lhs:.17g},{self.ball_term:.17g},"
            f"{self.nominal_tail:.17g},{self.exact_tail:.17g},"
            f"{'true' if self.chain_ok else 'false'}"
        )


def volume_bound_report(n: int, R: float) -> VolumeBoundReport:
    """Compare the weighted cap area of the constant graph over R^n, an
    entire weighted minimal graph, against the Gaussian ball mass plus the
    lateral tail.  The cap is the flat centered ball, whose weighted area is
    the ball mass P(n/2, R^2/2) itself: ``lhs`` equals ``ball_term`` bit for
    bit, so ``chain_ok`` holds by construction for this graph.
    """
    ball = gaussian_ball_volume(n, R)
    exact = exact_lateral_tail(n, R)
    return VolumeBoundReport(
        n=n,
        R=float(R),
        lhs=ball,
        ball_term=ball,
        nominal_tail=nominal_lateral_tail(n, R),
        exact_tail=exact,
        chain_ok=bool(ball <= ball + exact + 1e-9),
    )


def bound_sweep(n: int, radii: Sequence[float]) -> list[VolumeBoundReport]:
    """Volume-growth reports over a radius grid for the constant graph over
    R^n (the flat entire example)."""
    return [volume_bound_report(n, float(R)) for R in radii]
