"""Weighted mean-curvature descent for graphs over a truncated box in G^n x R.

The density is that of G^n x R: e^{-F} = phi(x) = (2 pi)^{-n/2} e^{-|x|^2/2},
normalized and independent of the height, so it is read once per grid.  Then
H_F = H - sum_i x_i u_i / W, and u_t = H_F(u) is the gradient flow of the
weighted area int phi W dx in the weight-scaled inner product, a Lyapunov
function: dA/dt = -int phi H_F^2 <= 0.  Constants are the unique
Neumann-stationary graphs over the box, so generic initial data flattens.

One grid operator serves every n: with slopes u_i and W^2 = 1 + sum_k u_k^2,
    H = (sum_i (1 + sum_{k != i} u_k^2) u_ii - 2 sum_{i<j} u_i u_j u_ij) / W^3;
one pass over a field gives H_F and the weighted area.  Derivatives are
second-order central differences; homogeneous Neumann boundary conditions
are imposed by ghost-node reflection.

Steps are semi-implicit (Smereka, J. Sci. Comput. 19, 2003) in increment
form, u <- u + P (dt H_F(u)).  With L_OU = sum_i L_i, L_i = d_ii - x_i d_i,
H_F's linear part at a constant, P = prod_i (I - dt L_i)^{-1} is the
approximate factorization (Douglas & Gunn, Numer. Math. 6, 1964) of
(I - dt L_OU)^{-1}: one 1-D inverse applied along every axis.  P^{-1} exceeds
I - dt L_OU only by the dt^2 products of the L_i, so the step stays first-order
consistent, H_F = 0 leaves u unchanged and every grid steps with FLOW_DT; a
step that raises the weighted area beyond roundoff (or is non-finite) is
retried at half the dt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import Density
from .graph import GraphFunction
from .rng import DEFAULT_SEED

FLOW_DT = 0.02
AREA_SLACK = 1e-12
MAX_REJECTIONS = 10

VERDICT_CONVERGED = "converged_to_constant"
VERDICT_MAX_TIME = "max_time_reached"
VERDICT_STEP_FAILURE = "step_failure"


class FlowStepError(RuntimeError):
    """A step could not be accepted after repeated halvings."""


@dataclass(frozen=True)
class GridField:
    """Samples of u on the uniform grid of [-L, L]^n, n in {1, 2, 3}."""

    half_width: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2, 3):
            raise ValueError("grid fields support n in {1, 2, 3}")
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


@functools.lru_cache(maxsize=8)
def _grid_weight(half_width: float, resolution: int, n: int) -> np.ndarray:
    """Read-only phi at the grid nodes; memoized, as no field changes it."""
    weight = Density.gaussian(n).weight(grid_nodes(half_width, resolution, n))
    weight.flags.writeable = False
    return weight


def _reflect_pad(a: np.ndarray) -> np.ndarray:
    """``np.pad(a, 1, mode="reflect")`` by copies: on every axis in turn, ghost
    node -1 takes node 1 and ghost node m takes node m - 2; each copy spans
    the whole slab, so corners take the earlier axes' ghosts."""
    p = np.empty(tuple(s + 2 for s in a.shape))
    p[(slice(1, -1),) * a.ndim] = a
    for axis in range(a.ndim):
        lead = (slice(None),) * axis
        p[lead + (0,)] = p[lead + (2,)]
        p[lead + (-1,)] = p[lead + (-3,)]
    return p


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


def _field_geometry(fld: GridField) -> tuple[float, np.ndarray]:
    """Trapezoid weighted area and H_F at every node from one set of slopes;
    reflected ghost nodes enforce the Neumann condition."""
    n, dx = fld.dimension, fld.dx
    p = _reflect_pad(fld.values)
    grads = [_d1(p, i, dx) for i in range(n)]
    sq = [g * g for g in grads]
    w2 = sum(sq, 1.0)
    diag = [(1.0 + sum(sq[:i] + sq[i + 1:])) * _d2(p, i, dx) for i in range(n)]
    padded = [_reflect_pad(g) for g in grads[:-1]]  # the last slope pairs with no later axis
    mixed = sum(grads[i] * grads[j] * _d1(padded[i], j, dx)
                for i in range(n) for j in range(i + 1, n))
    h = (sum(diag[1:], diag[0]) - 2.0 * mixed) / w2**1.5
    w = np.sqrt(w2)
    x = fld.nodes()
    term = 0.0
    for i, gi in enumerate(grads):
        term = term - x[..., i] * gi
    integrand = _grid_weight(fld.half_width, fld.resolution, n) * w
    for _ in range(n):
        integrand = np.trapezoid(integrand, dx=dx, axis=-1)
    return float(integrand), h + term / w


@functools.lru_cache(maxsize=8)
def _ou_resolvent(half_width: float, resolution: int, dt: float) -> np.ndarray:
    """(I - dt L_1)^{-1} for the 1-D L_1 = d_xx - x d_x on the grid, the factor
    that ``_ou_solve`` applies along every axis; one dense inverse per
    (L, grid, dt) whatever n is."""
    x, dx = np.linspace(-half_width, half_width, resolution, retstep=True)
    eye = np.eye(resolution)
    p = _reflect_pad(eye)  # L_1 is the stencils applied to I
    ou = _d2(p, 0, dx) - x[:, None] * _d1(p, 0, dx)
    return np.linalg.inv(eye - dt * ou)


def _ou_solve(half_width: float, rhs: np.ndarray, dt: float) -> np.ndarray:
    """P rhs, P = (I - dt L_1)^{-1} along every axis of the grid of ``rhs``."""
    inv = _ou_resolvent(half_width, rhs.shape[0], dt)
    # matmul broadcasts over leading axes: ``inv @`` acts on axis 0 for n <= 2
    # and on axis 1 for n = 3, ``@ inv.T`` on the last axis
    out = inv @ rhs
    if rhs.ndim > 1:
        out = out @ inv.T
    if rhs.ndim > 2:
        out = (inv @ out.reshape(rhs.shape[0], -1)).reshape(rhs.shape)
    return out


def grid_weighted_mean_curvature(fld: GridField) -> np.ndarray:
    """H_F at every node: divergence-form H plus the density term."""
    return _field_geometry(fld)[1]


def weighted_area(fld: GridField) -> float:
    """Trapezoid-rule weighted area int phi W dx over the box."""
    return _field_geometry(fld)[0]


@dataclass
class FlowState:
    """Owned by a single stepping loop; ``hf`` is H_F of ``field`` and
    ``history`` records (time, weighted_area, oscillation, max |H_F|) per
    accepted state, the last record being that of ``field``."""

    field: GridField
    time: float
    dt: float
    hf: np.ndarray
    history: list


@dataclass(frozen=True)
class FlowResult:
    state: FlowState
    verdict: str
    limit_constant: Optional[float] = None


def initial_field(
    n: int,
    half_width: float = 4.0,
    resolution: int = 257,
    init: str = "sinusoid",
    seed: int = DEFAULT_SEED,
) -> GridField:
    """Build a named initial condition on the grid.

    ``init`` is one of ``constant[:a]``, ``sinusoid``, ``linear`` or
    ``random_bump[:amplitude]`` (seeded).
    """
    name, sep, arg = init.partition(":")
    if sep and name in ("sinusoid", "linear"):
        raise ValueError(f"initial condition '{name}' takes no argument, got '{init}'")
    if name == "constant":
        g = GraphFunction.constant(n, float(arg) if arg else 0.0)
    elif name == "sinusoid":
        g = GraphFunction.sinusoid(n, half_width=half_width)
    elif name == "linear":
        g = GraphFunction.linear([0.25] + [0.0] * (n - 1))
    elif name == "random_bump":
        g = GraphFunction.random_bump(n, seed=seed, amplitude=float(arg) if arg else 0.3)
    else:
        raise ValueError(f"unknown initial condition '{init}'")
    nodes = grid_nodes(half_width, resolution, n)
    return GridField(half_width, np.asarray(g.value(nodes), dtype=float))


def initial_state(fld: GridField, dt: float = FLOW_DT) -> FlowState:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be finite and positive")
    area, hf = _field_geometry(fld)
    return _accepted(fld, 0.0, dt, area, hf, [])


def _accepted(
    fld: GridField, t: float, dt: float, area: float, hf: np.ndarray, history: list
) -> FlowState:
    """The state of an accepted field, its record appended to ``history``."""
    history.append((t, area, fld.oscillation(), float(np.max(np.abs(hf)))))
    return FlowState(field=fld, time=t, dt=dt, hf=hf, history=history)


def flow_step(state: FlowState) -> FlowState:
    """One accepted semi-implicit step u <- u + P (dt H_F(u)).

    Rejects (halving dt, up to MAX_REJECTIONS times) any step that increases
    the weighted area by more than AREA_SLACK or produces non-finite values.
    """
    fld = state.field
    area0 = state.history[-1][1]
    dt = state.dt
    for _ in range(MAX_REJECTIONS + 1):
        cand = fld.values + _ou_solve(fld.half_width, dt * state.hf, dt)
        if np.all(np.isfinite(cand)):
            new_fld = GridField(fld.half_width, cand)
            area, hf = _field_geometry(new_fld)
            if area <= area0 + AREA_SLACK:
                return _accepted(new_fld, state.time + dt, dt, area, hf, state.history)
        dt *= 0.5
    raise FlowStepError(
        f"step rejected {MAX_REJECTIONS} times at t = {state.time:.6g}"
    )


def flow_run(
    state: FlowState, t_max: float, osc_tol: float = 0.005, hf_tol: float = 0.005
) -> FlowResult:
    """Iterate flow_step until flattening or the time budget runs out.

    Converged: oscillation <= osc_tol and max |H_F| <= hf_tol (the limit
    constant is the final mean).  Failed: dt halved over MAX_REJECTIONS times.
    """
    dt_min = state.dt * 0.5**MAX_REJECTIONS
    while True:
        _, _, osc, max_hf = state.history[-1]
        if osc <= osc_tol and max_hf <= hf_tol:
            return FlowResult(
                state, VERDICT_CONVERGED, float(np.mean(state.field.values))
            )
        if state.time >= t_max:
            return FlowResult(state, VERDICT_MAX_TIME)
        try:
            state = flow_step(state)
        except FlowStepError:
            return FlowResult(state, VERDICT_STEP_FAILURE)
        if state.dt < dt_min:
            return FlowResult(state, VERDICT_STEP_FAILURE)


def run_to_time(fld: GridField, t_end: float) -> FlowState:
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
