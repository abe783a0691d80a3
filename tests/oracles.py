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
formatting, the reference for the array formatter.  The flow's area, H_F
and solve written with a fresh array for every node and edge operator are
the bit-for-bit reference for the library's in-place ones.
"""

import dataclasses
import functools
import math

import mpmath as mp
import numpy as np

from gaussmin.calibration import ambient_samples, extended_normal
from gaussmin.density import as_points
from gaussmin.flow import (
    FLOW_DT,
    REFINE_SWEEPS,
    SOLVE_RTOL,
    FlowStepError,
    _axis,
    _each_axis,
    flow_step,
    initial_field,
    initial_state,
)
from gaussmin.graph import GraphFunction, _divergence_form, hyperplane_minimality
from gaussmin.rng import VERIFY_STREAMS, substream
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
    rng = substream(seed, VERIFY_STREAMS["comass"])
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
    state = dataclasses.replace(initial_state(fld), dt=t_end / steps)
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


def _along(v, axis, n):
    return v.reshape([-1 if k == axis else 1 for k in range(n)])


def _ends(n, axis):
    return tuple(tuple(part if k == axis else slice(None) for k in range(n))
                 for part in (slice(None, -1), slice(1, None)))


def _at_nodes(edge, ax, axis, sign):
    n = edge.ndim
    lo, hi = _ends(n, axis)
    out = np.zeros(tuple(m + (k == axis) for k, m in enumerate(edge.shape)))
    out[lo] = _along(ax.above[:-1], axis, n) * edge
    out[hi] += _along(sign * ax.below[1:], axis, n) * edge
    return out


def _to_nodes(edge, ax, axis):
    return _at_nodes(edge, ax, axis, 1.0)


def _divergence(edge, ax, axis):
    return (2.0 / ax.dx) * _at_nodes(edge, ax, axis, -1.0)


def _to_edges(node, axis):
    lo, hi = _ends(node.ndim, axis)
    return 0.5 * (node[lo] + node[hi])


def _sharpen(edge, ax, axis):
    n, jump = edge.ndim, np.diff(edge, axis=axis) / 12.0
    lo, hi = _ends(n, axis)
    out = edge.copy()
    out[lo] -= _along(ax.above[1:-1], axis, n) * jump
    out[hi] += _along(ax.below[1:-1], axis, n) * jump
    return out


def _integrate(a, weights):
    for wt in reversed(weights):
        a = a @ wt
    return float(a)


def field_geometry(fld):
    """(A_h, H_F^h) of a grid field as ``flow._field_geometry`` defines them,
    every operator forming a fresh array: the reference for its bits."""
    n = fld.dimension
    ax = _axis(fld.half_width, fld.resolution, n)
    slopes = [np.diff(fld.values, axis=i) / ax.dx for i in range(n)]
    nodal = [_to_nodes(g, ax, i) for i, g in enumerate(slopes)]
    area = float(np.sum(ax.cell_mass)) ** n
    fluxes, across = [], [0.0] * n
    for i, g in enumerate(slopes):
        s = _sharpen(g, ax, i)
        cross = [(j, _to_edges(nodal[j], i)) for j in range(n) if j != i]
        t2 = sum((t * t for _, t in cross), 0.0)
        ss = s * s
        w = np.sqrt(1.0 + ss + t2)
        wp = 1.0 + w
        q = s / (w * wp * wp)
        fluxes.append(g + _sharpen(s / w - s + q * t2, ax, i))
        for j, t in cross:
            across[j] = across[j] + _to_nodes(-s * q * t, ax, i)
        weights = [ax.cell_mass if k == i else ax.node_mass for k in range(n)]
        area += _integrate(0.5 * (g * g - ss) + ss / wp, weights)
    hf = 0.0
    for j, f in enumerate(fluxes):
        if n > 1:
            f = f + _to_edges(across[j], j)
        hf = hf + _divergence(f, ax, j)
    return area, hf


def ou_solve(half_width, rhs, dt):
    """(I - dt L_h)^{-1} rhs as ``flow._ou_solve`` defines it, every
    operator forming a fresh array: the reference for its bits."""
    n = rhs.ndim
    ax = _axis(half_width, rhs.shape[0], n)
    bound = np.max(np.abs(rhs))
    k = 1 - math.frexp(bound)[1]
    rhs = np.ldexp(rhs, k)
    denom = 1.0 + dt * functools.reduce(np.add.outer, [ax.lam] * n)
    out = _each_axis(ax.vecs, _each_axis(ax.coefs, rhs) / denom)
    for _ in range(REFINE_SWEEPS):
        resid = rhs - out
        for i in range(n):
            resid = resid + dt * _divergence(np.diff(out, axis=i) / ax.dx, ax, i)
        out = out + _each_axis(ax.vecs, _each_axis(ax.coefs, resid) / denom)
    if not np.max(np.abs(out)) <= (1.0 + SOLVE_RTOL) * np.ldexp(bound, k):
        raise FlowStepError(f"the eigenbasis solve lost its accuracy at dt = {dt:.6g}")
    return np.ldexp(out, -k)
