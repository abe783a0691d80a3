"""Weighted mean-curvature descent for graphs over a truncated box.

The update u <- u + dt * H_F(u) is the gradient flow of the weighted area
int e^{-F} W dx in the weight-scaled inner product, so the weighted area is
a Lyapunov function: dA/dt = -int e^{-F} H_F^2 <= 0.  Spatial derivatives
are second-order central differences; homogeneous Neumann boundary
conditions are imposed by ghost-node reflection.  Constants are the unique
Neumann-stationary graphs over a Gaussian-weighted box, so generic initial
data flattens.

Explicit Euler with CFL safety dt <= safety * dx^2 / (2n); a step that
increases the weighted area beyond roundoff (or produces non-finite values)
is rejected and retried with half the step size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .density import Density
from .graph import GraphFunction
from .rng import DEFAULT_SEED

CFL_SAFETY = 0.4
AREA_SLACK = 1e-12
MAX_REJECTIONS = 10

VERDICT_CONVERGED = "converged_to_constant"
VERDICT_MAX_TIME = "max_time_reached"
VERDICT_STEP_FAILURE = "step_failure"


class FlowStepError(RuntimeError):
    """A step could not be accepted after repeated halvings."""


@dataclass(frozen=True)
class GridField:
    """Samples of u on the uniform grid of [-L, L]^n, n in {1, 2}."""

    half_width: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2):
            raise ValueError("grid fields support n in {1, 2}")
        if min(v.shape) < 3:
            raise ValueError("need at least 3 nodes per axis")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.resolution - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.resolution)

    def nodes(self) -> np.ndarray:
        """Grid node coordinates, shape grid_shape + (n,); read-only."""
        return grid_nodes(self.half_width, self.resolution, self.dimension)

    def oscillation(self) -> float:
        return float(np.max(self.values) - np.min(self.values))


@functools.lru_cache(maxsize=8)
def grid_nodes(half_width: float, resolution: int, n: int) -> np.ndarray:
    """Read-only node coordinates of the uniform grid of [-L, L]^n, shape
    (resolution,) * n + (n,); memoized, since every flow step needs them."""
    ax = np.linspace(-half_width, half_width, resolution)
    nodes = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1)
    nodes.flags.writeable = False
    return nodes


def _d1(p: np.ndarray, axis: int, dx: float) -> np.ndarray:
    sl = [slice(1, -1)] * p.ndim
    hi, lo = sl.copy(), sl.copy()
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (p[tuple(hi)] - p[tuple(lo)]) / (2.0 * dx)


def _d2(p: np.ndarray, axis: int, dx: float) -> np.ndarray:
    sl = [slice(1, -1)] * p.ndim
    hi, lo, mid = sl.copy(), sl.copy(), sl.copy()
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (p[tuple(hi)] - 2.0 * p[tuple(mid)] + p[tuple(lo)]) / (dx * dx)


def _slopes(fld: GridField):
    """Reflect-padded field, central slopes, W^2 and ambient points (x, u)."""
    p = np.pad(fld.values, 1, mode="reflect")
    grads = tuple(_d1(p, i, fld.dx) for i in range(fld.dimension))
    w2 = sum((g * g for g in grads), 1.0)
    ambient = np.concatenate([fld.nodes(), fld.values[..., None]], axis=-1)
    return p, grads, w2, ambient


def grid_weighted_mean_curvature(fld: GridField, dens: Density) -> np.ndarray:
    """H_F at every node: divergence-form H plus the density term, with
    reflected ghost nodes enforcing the Neumann condition."""
    dx = fld.dx
    p, grads, w2, ambient = _slopes(fld)
    if fld.dimension == 1:
        h = _d2(p, 0, dx) / w2**1.5
    else:
        ux, uy = grads
        uxx, uyy = _d2(p, 0, dx), _d2(p, 1, dx)
        uxy = _d1(np.pad(ux, 1, mode="reflect"), 1, dx)
        h = (w2 * (uxx + uyy) - (ux * ux * uxx + 2.0 * ux * uy * uxy + uy * uy * uyy)) / w2**1.5
    gf = dens.grad_log_weight(ambient)
    w = np.sqrt(w2)
    term = gf[..., -1]
    for i, gi in enumerate(grads):
        term = term - gf[..., i] * gi
    return h + term / w


def weighted_area(fld: GridField, dens: Density) -> float:
    """Trapezoid-rule weighted area int e^{-F(x, u)} W dx over the box."""
    _, _, w2, ambient = _slopes(fld)
    integrand = np.exp(-dens.log_weight(ambient)) * np.sqrt(w2)
    for _ in range(fld.dimension):
        integrand = np.trapezoid(integrand, dx=fld.dx, axis=-1)
    return float(integrand)


@dataclass
class FlowState:
    """Owned by a single stepping loop; ``history`` records
    (time, weighted_area, oscillation, max |H_F|) per accepted state."""

    field: GridField
    time: float
    dt: float
    history: list = field(default_factory=list)
    # cached H_F of the current field; recomputed when absent
    hf_cache: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FlowResult:
    state: FlowState
    verdict: str
    limit_constant: Optional[float] = None


def stable_dt(n: int, dx: float, safety: float = CFL_SAFETY) -> float:
    return safety * dx * dx / (2.0 * n)


def initial_field(
    n: int,
    half_width: float = 4.0,
    resolution: int = 257,
    init: str = "sinusoid",
    seed: int = DEFAULT_SEED,
) -> GridField:
    """Build a named initial condition on the grid.

    ``init`` is one of ``constant[:a]``, ``sinusoid``, ``linear`` or
    ``random_bump`` (seeded).
    """
    name, _, arg = init.partition(":")
    if name == "constant":
        level = float(arg) if arg else 0.0
        g = GraphFunction.constant(n, level)
    elif name == "sinusoid":
        g = GraphFunction.sinusoid(n, amplitude=0.5, half_width=half_width)
    elif name == "linear":
        g = GraphFunction.linear([0.25] + [0.0] * (n - 1))
    elif name == "random_bump":
        g = GraphFunction.random_bump(n, seed=seed, amplitude=float(arg) if arg else 0.3)
    else:
        raise ValueError(f"unknown initial condition '{init}'")
    nodes = grid_nodes(half_width, resolution, n)
    return GridField(half_width, np.asarray(g.value(nodes), dtype=float))


def initial_state(
    fld: GridField, dens: Density, safety: float = CFL_SAFETY, dt: Optional[float] = None
) -> FlowState:
    dt = dt if dt is not None else stable_dt(fld.dimension, fld.dx, safety)
    if dt > stable_dt(fld.dimension, fld.dx, safety) * (1.0 + 1e-12):
        raise ValueError("dt violates the explicit-scheme stability bound")
    return _accepted(fld, dens, 0.0, dt, weighted_area(fld, dens), [])


def _accepted(
    fld: GridField, dens: Density, t: float, dt: float, area: float, history: list
) -> FlowState:
    """The state of an accepted field, its record appended to ``history``."""
    hf = grid_weighted_mean_curvature(fld, dens)
    history.append((t, area, fld.oscillation(), float(np.max(np.abs(hf)))))
    return FlowState(field=fld, time=t, dt=dt, history=history, hf_cache=hf)


def flow_step(state: FlowState, dens: Density) -> FlowState:
    """One accepted explicit Euler step u <- u + dt * H_F(u).

    Rejects (halving dt, up to MAX_REJECTIONS times) any step that increases
    the weighted area by more than AREA_SLACK or produces non-finite values.
    """
    fld = state.field
    hf = (
        state.hf_cache
        if state.hf_cache is not None
        else grid_weighted_mean_curvature(fld, dens)
    )
    area0 = state.history[-1][1] if state.history else weighted_area(fld, dens)
    dt = state.dt
    for _ in range(MAX_REJECTIONS + 1):
        cand = fld.values + dt * hf
        if np.all(np.isfinite(cand)):
            new_fld = GridField(fld.half_width, cand)
            area = weighted_area(new_fld, dens)
            if area <= area0 + AREA_SLACK:
                return _accepted(new_fld, dens, state.time + dt, dt, area, state.history)
        dt *= 0.5
    raise FlowStepError(
        f"step rejected {MAX_REJECTIONS} times at t = {state.time:.6g}"
    )


def flow_run(
    state: FlowState,
    dens: Density,
    t_max: float,
    osc_tol: float = 0.005,
    hf_tol: float = 0.005,
) -> FlowResult:
    """Iterate flow_step until flattening or the time budget runs out.

    Converged means oscillation <= osc_tol and max |H_F| <= hf_tol; the
    reported limit constant is the mean of the final field.
    """
    while True:
        # history[-1] is the record of the current field
        _, _, osc, max_hf = state.history[-1]
        if osc <= osc_tol and max_hf <= hf_tol:
            return FlowResult(
                state, VERDICT_CONVERGED, float(np.mean(state.field.values))
            )
        if state.time >= t_max:
            return FlowResult(state, VERDICT_MAX_TIME)
        try:
            state = flow_step(state, dens)
        except FlowStepError:
            return FlowResult(state, VERDICT_STEP_FAILURE)


def run_to_time(
    fld: GridField, dens: Density, t_end: float, safety: float = CFL_SAFETY
) -> FlowState:
    """Advance to exactly t_end with a uniform step dividing it."""
    steps = max(1, math.ceil(t_end / stable_dt(fld.dimension, fld.dx, safety)))
    state = initial_state(fld, dens, dt=t_end / steps)
    for _ in range(steps):
        state = flow_step(state, dens)
    return state


def refinement_order(
    dens: Density,
    n: int = 1,
    half_width: float = 4.0,
    resolutions: tuple[int, int, int] = (33, 65, 129),
    t_end: float = 1.0,
    init: str = "sinusoid",
    seed: int = DEFAULT_SEED,
) -> float:
    """Observed convergence order from three nested grids at a fixed time.

    Successive resolutions must satisfy m' = 2(m-1)+1 so coarse nodes embed
    in fine grids; the order is log2 of the ratio of successive max-norm
    differences on the common nodes.
    """
    m0, m1, m2 = resolutions
    if m1 != 2 * (m0 - 1) + 1 or m2 != 2 * (m1 - 1) + 1:
        raise ValueError("resolutions must nest: m' = 2(m-1)+1")
    sols = [
        run_to_time(initial_field(n, half_width, m, init, seed), dens, t_end).field.values
        for m in (m0, m1, m2)
    ]
    sub = (slice(None, None, 2),) * n
    d1 = float(np.max(np.abs(sols[0] - sols[1][sub])))
    d2 = float(np.max(np.abs(sols[1] - sols[2][sub])))
    return math.log2(d1 / d2)
