"""Parametric n-surfaces in R^{n+1}.

Curvature conventions used throughout the package:

* the unit normal is the generalized cross product of the chart partials,
  oriented so that (d_1 X, ..., d_n X, N) is a positively oriented basis
  (for graphs this is the upward normal);
* mean curvature is the trace of the shape operator -DN, i.e. the SUM of
  the principal curvatures, not their average.  A cylinder of radius r with
  outward normal has H = -1/r; a graph with upward normal has
  H = div(grad u / W).

The weighted mean curvature adds the density term <grad F, N>.

The normal and H are whole-stack column arithmetic with one determinant
helper: the normal's components are the cofactors of the partials, each a
determinant by Laplace expansion, and H = trace(g^{-1} b) comes from
Cramer's rule, sum_j det(g with column j replaced by b's) / det g, where
det g = |N|^2 for the unnormalized normal (Cauchy-Binet).  No LAPACK call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .density import Density, as_points, dot, sq_norm


class RankDeficiencyError(ValueError):
    """Chart partials are (numerically) linearly dependent."""


GRAM_DET_MIN = 1e-12


@dataclass(frozen=True)
class ParametricSurface:
    """Immersion X of an n-dimensional chart box into R^{n+1}, given by its jet.

    ``jet(p, order)`` takes chart points (..., n) and returns (X,) for order
    0, (X, dX) for order 1 and (X, dX, d2X) for order 2, of shapes
    (..., n+1), (..., n, n+1) and (..., n, n, n+1), like ``GraphFunction``'s
    jet: dX holds the n partial derivative vectors and d2X the second
    derivatives d^2 X / dp_i dp_j.
    """

    chart_domain: tuple[tuple[float, float], ...]
    jet: Callable[[np.ndarray, int], tuple]
    name: str = ""

    @property
    def chart_dim(self) -> int:
        return len(self.chart_domain)

    @property
    def ambient_dim(self) -> int:
        return self.chart_dim + 1

    def point(self, p) -> np.ndarray:
        return self.jet(as_points(p, self.chart_dim), 0)[0]

    def partials(self, p) -> np.ndarray:
        return self.jet(as_points(p, self.chart_dim), 1)[1]

    def hessian(self, p) -> np.ndarray:
        return self.jet(as_points(p, self.chart_dim), 2)[2]


def separate_jet(*terms):
    """A jet from order-0, -1 and -2 callables that share no terms."""
    return lambda p, order: tuple(term(p) for term in terms[:order + 1])


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature data over chart points (..., n): each field is an array over
    the leading axes (0-d for one point, which ``as_dict`` serializes), and
    weighted_mean_curvature = mean_curvature + density_term by construction."""

    chart_point: np.ndarray
    ambient_point: np.ndarray
    unit_normal: np.ndarray
    mean_curvature: np.ndarray
    density_term: np.ndarray
    weighted_mean_curvature: np.ndarray

    def as_dict(self) -> dict:
        return {
            "chart_point": list(map(float, np.atleast_1d(self.chart_point))),
            "ambient_point": list(map(float, self.ambient_point)),
            "unit_normal": list(map(float, self.unit_normal)),
            "mean_curvature": float(self.mean_curvature),
            "density_term": float(self.density_term),
            "weighted_mean_curvature": float(self.weighted_mean_curvature),
        }


@lru_cache(maxsize=None)
def _minor_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """For each i, the columns of an (n, n+1) matrix other than column i."""
    return tuple(tuple(j for j in range(n + 1) if j != i) for i in range(n + 1))


def _det(m) -> np.ndarray:
    """Determinants of a stack of k x k matrices given entry by entry: m[r][c]
    is the array (...) of entries in row r and column c.

    Laplace expansion down the first column: products and differences of
    whole-stack entries only.  Exact zeros come out +0.0, as from LAPACK.
    """
    full = tuple(range(len(m)))
    return _expand(m, full, full) + 0.0


def _expand(m, rows, cols):
    """The minor of m on ``rows`` x ``cols`` by Laplace expansion.  A module
    function, not a closure: a closure that calls itself is a reference
    cycle, which would keep m's arrays alive until the cyclic collector runs."""
    if len(cols) == 1:
        return m[rows[0]][cols[0]]
    total = None
    for k, r in enumerate(rows):
        term = m[r][cols[0]] * _expand(m, rows[:k] + rows[k + 1:], cols[1:])
        total = term if k == 0 else total - term if k % 2 else total + term
    return total


def generalized_cross(rows: np.ndarray) -> np.ndarray:
    """Vector orthogonal to the n rows of (..., n, n+1) matrices.

    Component i is the signed determinant of the minor without column i.
    Signs are chosen so that det([rows; result]) = |result|^2 >= 0, i.e. the
    rows followed by the result form a positively oriented basis.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1] - 1
    out = np.empty(rows.shape[:-2] + (n + 1,))
    for i, keep in enumerate(_minor_columns(n)):
        minor = _det([[rows[..., r, c] for c in keep] for r in range(n)])
        # 0.0 - minor negates without turning a zero cofactor into -0.0
        out[..., i] = 0.0 - minor if (n + i) % 2 else minor
    return out


def _frame(p, J) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals of the chart partials J at chart points p, in the chart's
    cross-product orientation, and the Gram determinants det(J J^t)."""
    nvec = generalized_cross(J)
    det = sq_norm(nvec)  # det(J J^t), by Cauchy-Binet
    bad = det <= GRAM_DET_MIN
    if np.any(bad):
        first = np.reshape(p, (-1, J.shape[-2]))[np.flatnonzero(bad)[0]]
        raise RankDeficiencyError(f"immersion is rank deficient at chart point {first}")
    return nvec / np.sqrt(det)[..., None], det


def _mean_curvature(J, d2x, nvec, det) -> np.ndarray:
    """trace(g^{-1} b), g = J J^t and b_ij = <d2X_ij, N>, by Cramer's rule:
    the sum over j of det(g with column j replaced by b's) / det g."""
    n = range(J.shape[-2])
    g = [[dot(J[..., i, :], J[..., j, :]) for j in n] for i in n]
    b = [[dot(d2x[..., i, j, :], nvec) for j in n] for i in n]
    return sum(_det([[b[r][j] if c == j else g[r][c] for c in n] for r in n]) for j in n) / det


def weighted_mean_curvature(
    surface: ParametricSurface, dens: Density, p
) -> CurvatureReport:
    """H_F = H + <grad F, N> at chart points (..., n); density domain errors
    propagate."""
    if dens.dimension != surface.ambient_dim:
        raise ValueError(
            f"density dimension {dens.dimension} != ambient {surface.ambient_dim}"
        )
    p = as_points(p, surface.chart_dim)
    x, J, d2x = surface.jet(p, 2)
    nvec, det = _frame(p, J)
    h = _mean_curvature(J, d2x, nvec, det)
    term = dot(dens.grad_log_weight(x), nvec)
    return CurvatureReport(
        chart_point=p,
        ambient_point=x,
        unit_normal=nvec,
        mean_curvature=h,
        density_term=term,
        weighted_mean_curvature=h + term,
    )


def tangent_plane_distance(surface: ParametricSurface, p) -> tuple[np.ndarray, np.ndarray]:
    """Distance identity between the axis projection and the tangent plane.

    Returns (lhs, rhs) over chart points (..., n), where lhs is the
    Euclidean distance from the projection of M = X(p) onto the vertical
    axis to the affine tangent hyperplane at M, and rhs = |<(x_1, ..., x_n,
    0), N>|, the absolute density term of the horizontal Gaussian
    log-weight.  The two agree for every regular surface point.
    """
    p = as_points(p, surface.chart_dim)
    x, J = surface.jet(p, 1)
    nvec = _frame(p, J)[0]
    # point-to-hyperplane distance |<n, q> + d| with d = -<n, M>, |n| = 1, for
    # the axis point q = (0, ..., 0, x_{n+1})
    lhs = np.abs(nvec[..., -1] * x[..., -1] - dot(nvec, x))
    rhs = np.abs(dot(x[..., :-1], nvec[..., :-1]))
    return lhs, rhs
