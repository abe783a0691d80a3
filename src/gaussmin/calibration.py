"""Pointwise verification of the calibration argument for graphs.

The upward unit normal of a graph, extended by vertical translation, defines
an n-form omega(X_1, ..., X_n) = det(X_1, ..., X_n, N).  Two facts make
e^{-F} omega a weighted calibration of a weighted minimal graph:

* comass: on an orthonormal frame X, omega(X) = <N, *(X_1 ^ ... ^ X_n)>
  with |*(X_1 ^ ... ^ X_n)| = 1, so the comass of omega is |N| = 1, attained
  exactly on tangent frames (Harvey & Lawson, Calibrated geometries, 1982);
* closedness: d(e^{-F} omega) = div(e^{-F} N) dV, and
  div(e^{-F} N) = -e^{-F} H_F on the graph, so the form is closed precisely
  when the graph is weighted minimal.

Both are checked numerically here instead of reproducing the Stokes-theorem
area-minimization argument they feed into, over arrays of points at once.
"""

from __future__ import annotations

import numpy as np

from .density import Density, as_points, dot, sq_norm
from .graph import GraphFunction, graph_curvature_samples, tangent_minors
from .rng import DEFAULT_SEED, VERIFY_STREAMS, substream

SAMPLE_HALF_WIDTH = 2.0  # base points of the checks lie in [-2, 2]^n
FD_STEP = 1e-4
COMASS_TRIALS = 10_000  # base points per comass_check


def ambient_samples(u: GraphFunction, rng, trials: int, on_graph: bool) -> np.ndarray:
    """(trials, n+1) ambient points: base points uniform in the
    [-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH]^n box are drawn first, then the
    heights, which are the graph's own when ``on_graph`` and otherwise
    uniform in [-1, 1].  ``cli.closedness_suite`` draws through here."""
    n = u.dimension
    base = rng.uniform(-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH, size=(trials, n))
    points = np.empty((trials, n + 1))
    for i in range(n):  # by columns, as in tangent_minors
        points[:, i] = base[:, i]
    points[:, n] = u.value(base) if on_graph else rng.uniform(-1.0, 1.0, size=trials)
    return points


def unit_normal(g: np.ndarray) -> np.ndarray:
    """(-g, 1)/W, W = sqrt(1 + |g|^2): the upward unit normal of a graph of gradient g (..., n)."""
    normal, w = tangent_minors(g), np.sqrt(1.0 + sq_norm(g))
    for i in range(g.shape[-1] + 1):
        normal[..., i] /= w
    return normal


def extended_normal(u: GraphFunction):
    """The upward unit graph normal, translated along the vertical axis: it
    takes ambient points (..., n+1) and ignores the last coordinate, so it
    is vertical-translation invariant by construction."""

    def field(x):
        return unit_normal(u.gradient(np.asarray(x, dtype=float)[..., :-1]))

    return field


def comass_check(graphs: list[GraphFunction], seed: int = DEFAULT_SEED) -> list[float]:
    """Per graph, max(| |N| - 1 |, |omega(T) - 1|) over COMASS_TRIALS seeded
    random base points, T the orthonormal graph frame there: omega(T) =
    <N, *T> / |*T|, |*T|^2 = det(T T^t); it vanishes to rounding iff N is the
    graph's unit normal.  The graphs, of one dimension n, share one draw of
    base points and no heights.  Each gradient g is evaluated once; N comes
    from it through ``unit_normal``, *T = (-g, 1) from g itself, not from N:
    <N, *T> = N_{n+1} - sum_i N_i g_i and |*T|^2 = 1 + |g|^2, column by column.
    """
    n = graphs[0].dimension
    rng = substream(seed, VERIFY_STREAMS["comass"])  # ambient_samples' first draw
    base = rng.uniform(-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH, size=(COMASS_TRIALS, n))
    residuals = []
    for u in graphs:
        g = u.gradient(base)
        normals = unit_normal(g)
        omega = (normals[:, n] - dot(normals[:, :n], g)) / np.sqrt(1.0 + sq_norm(g))
        length = np.abs(np.sqrt(sq_norm(normals)) - 1.0)
        residuals.append(float(np.max(np.maximum(length, np.abs(omega - 1.0)))))
    return residuals


def weighted_normal_divergence(u: GraphFunction, dens: Density, x) -> np.ndarray:
    """Ambient divergence of e^{-F} N at points x of shape (..., n+1), by
    central finite differences of step FD_STEP; the result has shape (...)."""
    x = as_points(x, u.dimension + 1)
    dim = x.shape[-1]
    offsets = np.concatenate([FD_STEP * np.eye(dim), -FD_STEP * np.eye(dim)])
    pts = x[..., None, :] + offsets
    vals = dens.weight(pts)[..., None] * extended_normal(u)(pts)
    forward, backward = vals[..., :dim, :], vals[..., dim:, :]
    return np.trace(forward - backward, axis1=-2, axis2=-1) / (2.0 * FD_STEP)


def closedness_residual(u: GraphFunction, dens: Density, x) -> np.ndarray:
    """div(e^{-F} N)(x) + e^{-F(x)} H_F at the graph points under x.

    ``x`` has shape (..., n+1) and the residuals shape (...).  They vanish
    (to finite-difference accuracy) wherever the graph is weighted minimal;
    for densities that depend on the vertical coordinate the identity is
    exact on the graph itself.
    """
    x = as_points(x, u.dimension + 1)
    div = weighted_normal_divergence(u, dens, x)
    _, _, hf = graph_curvature_samples(u, dens, x[..., :-1])
    return div + dens.weight(x) * hf
