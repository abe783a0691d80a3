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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .density import Density, fd_gradient


class RankDeficiencyError(ValueError):
    """Chart partials are (numerically) linearly dependent."""


GRAM_DET_MIN = 1e-12


@dataclass(frozen=True)
class ParametricSurface:
    """Immersion of an n-dimensional chart box into R^{n+1}.

    ``first_derivatives(p)`` returns the n partial derivative vectors as an
    (n, n+1) array; ``second_derivatives(p)`` an (n, n, n+1) array.  Both are
    optional: central finite differences (steps ``fd_step`` / ``fd_step_hess``)
    are used when a provider is missing.
    """

    chart_domain: tuple[tuple[float, float], ...]
    immersion: Callable[[np.ndarray], np.ndarray]
    first_derivatives: Optional[Callable[[np.ndarray], np.ndarray]] = None
    second_derivatives: Optional[Callable[[np.ndarray], np.ndarray]] = None
    orientation: int = 1
    fd_step: float = 1e-5
    fd_step_hess: float = 1e-4
    name: str = ""

    @property
    def chart_dim(self) -> int:
        return len(self.chart_domain)

    @property
    def ambient_dim(self) -> int:
        return self.chart_dim + 1

    def point(self, p) -> np.ndarray:
        return np.asarray(self.immersion(np.asarray(p, dtype=float)), dtype=float)

    def partials(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.first_derivatives is not None:
            return np.asarray(self.first_derivatives(p), dtype=float)
        return np.moveaxis(fd_gradient(self.point, p, self.fd_step), -1, 0)

    def hessian(self, p) -> np.ndarray:
        """Second derivatives d^2 X / dp_i dp_j, shape (n, n, n+1)."""
        p = np.asarray(p, dtype=float)
        if self.second_derivatives is not None:
            return np.asarray(self.second_derivatives(p), dtype=float)
        out = np.moveaxis(fd_gradient(self.partials, p, self.fd_step_hess), -1, 0)
        # symmetrize; FD cross terms are only approximately symmetric
        return 0.5 * (out + np.swapaxes(out, 0, 1))

    def flipped(self) -> "ParametricSurface":
        return replace(self, orientation=-self.orientation)


@dataclass(frozen=True)
class CurvatureReport:
    """Pointwise curvature data; weighted_mean_curvature = mean_curvature +
    density_term by construction."""

    chart_point: np.ndarray
    ambient_point: np.ndarray
    unit_normal: np.ndarray
    mean_curvature: float
    density_term: float
    weighted_mean_curvature: float

    def as_dict(self) -> dict:
        return {
            "chart_point": list(map(float, np.atleast_1d(self.chart_point))),
            "ambient_point": list(map(float, self.ambient_point)),
            "unit_normal": list(map(float, self.unit_normal)),
            "mean_curvature": float(self.mean_curvature),
            "density_term": float(self.density_term),
            "weighted_mean_curvature": float(self.weighted_mean_curvature),
        }


def generalized_cross(rows: np.ndarray) -> np.ndarray:
    """Vector orthogonal to the n rows of an (n, n+1) matrix.

    Signs are chosen so that det([rows; result]) = |result|^2 >= 0, i.e. the
    rows followed by the result form a positively oriented basis.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    out = np.empty(n + 1)
    cols = np.arange(n + 1)
    for i in range(n + 1):
        minor = rows[:, cols != i]
        out[i] = (-1.0) ** (n + i) * np.linalg.det(minor)
    return out


def _frame(surface: ParametricSurface, p) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the chart partials and the oriented unit normal."""
    J = surface.partials(p)
    gram = J @ J.T
    if np.linalg.det(gram) <= GRAM_DET_MIN:
        raise RankDeficiencyError(
            f"immersion is rank deficient at chart point {np.asarray(p)}"
        )
    nvec = generalized_cross(J)
    return gram, surface.orientation * nvec / np.linalg.norm(nvec)


def _mean_curvature(surface: ParametricSurface, p, gram, nvec) -> float:
    b = surface.hessian(p) @ nvec
    return float(np.trace(np.linalg.solve(gram, b)))


def unit_normal(surface: ParametricSurface, p) -> np.ndarray:
    """Unit normal at a chart point, in the chart's cross-product orientation."""
    return _frame(surface, p)[1]


def mean_curvature(surface: ParametricSurface, p) -> float:
    """Sum of principal curvatures, trace(g^{-1} b) with b_ij = <d2X_ij, N>."""
    return _mean_curvature(surface, p, *_frame(surface, p))


def density_normal_pairing(surface: ParametricSurface, dens: Density, p) -> float:
    """The density term <grad F, N> at the ambient point of a chart point."""
    nvec = unit_normal(surface, p)
    x = surface.point(p)
    return float(dens.grad_log_weight(x) @ nvec)


def weighted_mean_curvature(
    surface: ParametricSurface, dens: Density, p
) -> CurvatureReport:
    """H_F = H + <grad F, N> at a chart point; density domain errors propagate."""
    if dens.dimension != surface.ambient_dim:
        raise ValueError(
            f"density dimension {dens.dimension} != ambient {surface.ambient_dim}"
        )
    p = np.asarray(p, dtype=float)
    x = surface.point(p)
    gram, nvec = _frame(surface, p)
    h = _mean_curvature(surface, p, gram, nvec)
    term = float(dens.grad_log_weight(x) @ nvec)
    return CurvatureReport(
        chart_point=p,
        ambient_point=x,
        unit_normal=nvec,
        mean_curvature=h,
        density_term=term,
        weighted_mean_curvature=h + term,
    )


def tangent_plane_distance(surface: ParametricSurface, p) -> tuple[float, float]:
    """Distance identity between the axis projection and the tangent plane.

    Returns (lhs, rhs) where lhs is the Euclidean distance from the
    projection of M = X(p) onto the vertical axis to the affine tangent
    hyperplane at M, and rhs = |<(x_1, ..., x_n, 0), N>|, the absolute
    density term of the horizontal Gaussian log-weight.  The two agree for
    every regular surface point.
    """
    x = surface.point(p)
    nvec = unit_normal(surface, p)
    axis_point = np.zeros_like(x)
    axis_point[-1] = x[-1]
    # point-to-hyperplane distance |<n, q> + d| with d = -<n, M>, |n| = 1
    lhs = abs(float(nvec @ axis_point - nvec @ x))
    grad_f = x.copy()
    grad_f[-1] = 0.0
    rhs = abs(float(grad_f @ nvec))
    return lhs, rhs
