"""Oracles shared by the test modules.

The library evaluates every derivative from analytic jets; the one
central-difference oracle here checks them, and gives bare immersions a jet.
The 50-digit mpmath oracle checks the closed-form lateral tails, the
LAPACK oracles check the cofactor normals and Cramer curvature, and the
frame oracles evaluate the calibration form on explicit frames.  The
seeded random quadratic graphs feed the distance-identity tests.  The
rest wrap library kernels in forms that only tests call: a surface's unit
normal or mean curvature alone, a graph's mean curvature alone, the
general-plane classification, and the flow at a uniform time step.  The
``%.17g`` row template gives the CLI's flow text by Python's own float
formatting, the reference for the array formatter.
"""

import math

import mpmath as mp
import numpy as np

from gaussmin.calibration import ambient_samples, extended_normal
from gaussmin.density import as_points
from gaussmin.flow import FLOW_DT, flow_step, initial_field, initial_state
from gaussmin.graph import GraphFunction, _divergence_form, hyperplane_minimality
from gaussmin.rng import substream
from gaussmin.surface import _frame, _mean_curvature


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
    normals = extended_normal(u)(ambient_samples(u, rng, trials, False))
    frames, _ = np.linalg.qr(rng.standard_normal((trials, n + 1, n)))
    mats = np.concatenate([frames, normals[:, :, None]], axis=2)
    return float(np.max(np.abs(np.linalg.det(mats))))


def unit_normal(surface, p):
    """Unit normals at chart points, in the chart's cross-product orientation."""
    return _frame(p, surface.partials(p))[0]


def mean_curvature(surface, p):
    """Sum of principal curvatures, trace(g^{-1} b) with b_ij = <d2X_ij, N>."""
    p = as_points(p, surface.chart_dim)
    _, J, d2x = surface.jet(p, 2)
    return _mean_curvature(J, d2x, *_frame(p, J))


def graph_mean_curvature(u, x):
    """Mean curvature div(grad u / W) of a graph with the upward normal."""
    return _divergence_form(*u.jet(as_points(x, u.dimension), 2)[1:])[0]


def classify_hyperplane(coeffs, const, h) -> str:
    """Classify a general non-vertical plane sum(coeffs_i x_i) + const = 0.

    Normalizes by the x_{n+1} coefficient first, so the result is invariant
    under rescaling the equation by any nonzero constant.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if abs(coeffs[-1]) < 1e-14:
        raise ValueError("vertical hyperplane: coefficient of x_{n+1} is zero")
    return hyperplane_minimality(coeffs[:-1] / coeffs[-1], float(const) / coeffs[-1], h)


def run_to_time(fld, t_end):
    """Advance to exactly t_end with the largest uniform step <= FLOW_DT
    dividing it."""
    steps = max(1, math.ceil(t_end / FLOW_DT))
    state = initial_state(fld, dt=t_end / steps)
    for _ in range(steps):
        state = flow_step(state)
    return state


# nested grids (m' = 2(m-1)+1, so coarse nodes embed in fine ones) and end time
REFINEMENT_GRIDS = (33, 65, 129)
REFINEMENT_T_END = 1.0


def refinement_order() -> float:
    """Observed convergence order of the default 1-D sinusoid flow at
    REFINEMENT_T_END on the three REFINEMENT_GRIDS: log2 of the ratio of
    successive max-norm differences on the common nodes."""
    sols = [
        run_to_time(initial_field(1, resolution=m), REFINEMENT_T_END).field.values
        for m in REFINEMENT_GRIDS
    ]
    d1 = float(np.max(np.abs(sols[0] - sols[1][::2])))
    d2 = float(np.max(np.abs(sols[1] - sols[2][::2])))
    return math.log2(d1 / d2)


def g17_text(a) -> str:
    """Python's ``'%.17g' % v`` of every value of the 2-D array ``a``, one
    line per row, values joined by ``,``: a row template per line."""
    a = np.asarray(a, dtype=float)
    line = ",".join(["%.17g"] * a.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in a.tolist())


def flow_texts(result) -> tuple[str, str]:
    """The ``--out`` series and ``--field-out`` field text of a flow result,
    by ``g17_text``: for n = 1 an ``x,u`` table, else one line per row along
    the last axis, in C order."""
    series = "t,weighted_area,oscillation,max_abs_hf\n" + g17_text(result.state.history)
    fld = result.state.field
    if fld.values.ndim == 1:
        return series, "x,u\n" + g17_text(np.column_stack([fld.axis(), fld.values]))
    return series, g17_text(fld.values.reshape(-1, fld.values.shape[-1]))
