"""Oracles shared by the test modules.

The library evaluates every derivative from analytic jets; the one
central-difference oracle here checks them, and gives bare immersions a jet.
The 50-digit mpmath oracle checks the closed-form lateral tails, the
LAPACK oracles check the cofactor normals and Cramer curvature, and the
frame oracles evaluate the calibration form on explicit frames.  The
seeded random quadratic graphs feed the distance-identity tests.
"""

import mpmath as mp
import numpy as np

from gaussmin.calibration import SAMPLE_HALF_WIDTH, extended_normal
from gaussmin.density import as_points
from gaussmin.graph import GraphFunction
from gaussmin.rng import substream
from gaussmin.surface import _frame


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def density_normal_pairing(surface, dens, p):
    """The density term <grad F, N> at the ambient points of chart points,
    from one first-order jet and BLAS's dot: a curvature report's
    ``density_term``, without the second-order jet that H needs."""
    p = as_points(p, surface.chart_dim)
    x, J = surface.jet(p, 1)
    return np.vecdot(dens.grad_log_weight(x), _frame(p, J)[0])


def lapack_cross(rows):
    """The generalized cross product of (..., n, n+1) rows from LAPACK: each
    component the signed determinant of a minor, one np.linalg.det each."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1] - 1
    keep = np.array([np.delete(np.arange(n + 1), i) for i in range(n + 1)])
    minors = np.moveaxis(rows[..., keep], -2, -3)
    return (-1.0) ** (n + np.arange(n + 1)) * np.linalg.det(minors)


def lapack_mean_curvature(J, d2x):
    """trace(g^{-1} b), g = J J^t and b_ij = <d2X_ij, N>, by np.linalg.solve,
    with N the normalized ``lapack_cross`` of the partials J."""
    nvec = lapack_cross(J)
    nvec = nvec / np.linalg.norm(nvec, axis=-1, keepdims=True)
    b = (d2x @ nvec[..., None, :, None])[..., 0]
    return np.trace(np.linalg.solve(J @ np.swapaxes(J, -1, -2), b), axis1=-2, axis2=-1)


def random_quadratic_graph(seed, stream, n=2):
    """Seeded random quadratic graph: its intercept, linear and quadratic
    terms drawn in that order from substream(seed, stream)."""
    rng = substream(seed, stream)
    return GraphFunction.quadratic_form(
        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 0.5, (n, n))
    )


def central_difference(fn, x, step):
    """O(step^2) central differences of fn at x; the partial along x[i]
    sits at index i of the last axis."""
    x = np.asarray(x, dtype=float)
    steps = step * np.eye(x.shape[-1])
    return np.stack([(fn(x + e) - fn(x - e)) / (2.0 * step) for e in steps], axis=-1)


def difference_jet(immersion, step=1e-5, hessian_step=1e-4):
    """A ParametricSurface jet for a bare immersion: partials as step-`step`
    differences of it, and second derivatives as symmetrized
    step-`hessian_step` differences of those partials."""

    def point(p):
        return np.asarray(immersion(p), dtype=float)

    def partials(p):
        return np.swapaxes(central_difference(point, p, step), -1, -2)

    def jet(p, order):
        out = [point(p)]
        if order >= 1:
            out.append(partials(p))
        if order == 2:
            d2x = np.moveaxis(central_difference(partials, p, hessian_step), -1, -3)
            out.append(0.5 * (d2x + np.swapaxes(d2x, -3, -2)))
        return tuple(out)

    return jet


def lateral_tails(n, R):
    """(exact, nominal) lateral tails at 50 digits: (2 pi)^{-n/2} e^{-R^2/2}
    |S^{n-1}| R^n and e^{-R^2} |S^{n-1}| R^{n-1}, |S^{n-1}| = n C_n."""
    with mp.workdps(50):
        R, half = mp.mpf(R), mp.mpf(n) / 2
        sphere = 2 * mp.pi**half / mp.gamma(half)
        return (2 * mp.pi) ** -half * mp.exp(-R * R / 2) * sphere * R**n, mp.exp(-R * R) * sphere * R ** (n - 1)


def frame_value(u, point, frame) -> float:
    """omega(X_1, ..., X_n) = det(X_1, ..., X_n, N) at an ambient point."""
    nbar = extended_normal(u)(np.asarray(point, dtype=float))
    rows = np.vstack([np.asarray(frame, dtype=float), nbar])
    return float(np.linalg.det(rows))


def tangent_frame(u, base_point) -> np.ndarray:
    """Orthonormal rows spanning the graph tangent space over a base point."""
    base_point = np.asarray(base_point, dtype=float)
    g = u.gradient(base_point)
    tangents = np.hstack([np.eye(u.dimension), g[:, None]])  # rows (e_i, du_i)
    q, _ = np.linalg.qr(tangents.T)
    return q.T


def random_frame_comass(u, trials, seed) -> float:
    """Max |omega| over seeded random ambient points and orthonormal frames,
    which the Hadamard bound caps at |N| = 1."""
    n = u.dimension
    rng = substream(seed, 0)
    base = rng.uniform(-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH, size=(trials, n))
    z = rng.uniform(-1.0, 1.0, size=(trials, 1))
    normals = extended_normal(u)(np.concatenate([base, z], axis=-1))
    frames, _ = np.linalg.qr(rng.standard_normal((trials, n + 1, n)))
    mats = np.concatenate([frames, normals[:, :, None]], axis=2)
    return float(np.max(np.abs(np.linalg.det(mats))))
