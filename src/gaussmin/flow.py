"""Weighted mean-curvature descent for graphs over a truncated box in G^n x R.

The density is that of G^n x R: phi(x) = (2 pi)^{-n/2} e^{-|x|^2/2},
normalized and independent of the height.  Then H_F = H - sum_i x_i u_i / W
and phi H_F = div(phi grad u / W), so u_t = H_F(u) is the gradient flow of the
weighted area A = int phi W dx in the phi-weighted inner product: dA/dt =
-int phi H_F^2 <= 0, and under the natural (Neumann) boundary condition
d/dt int phi u = 0.  Constants are the only stationary graphs, so generic
data flattens, to the phi-weighted mean of the initial graph.

The discrete flow keeps both laws (Deckelnick, Dziuk & Elliott, Acta Numerica
14, 2005): H_F^h = -M^{-1} grad A_h with the separable mass M = prod_i M_i
(phi at the cell centres, half a cell at each end), under the natural
boundary condition, so there are no ghost nodes.  A_h (``_field_geometry``)
keeps the P1 Dirichlet energy u^T K u / 2 as its quadratic part, so
K = sum_i K_i (x) prod_{j != i} M_j, the Kronecker sum of the 1-D
stiffnesses, is its Hessian at a constant for every n.  A step is

    u <- u - dt (M + dt K)^{-1} grad A_h = u + (I - dt L_h)^{-1} (dt H_F^h),

L_h = -M^{-1} K.  K 1 = 0 gives 1^T M (M + dt K)^{-1} = 1^T, so sum M u does
not move, and a step descends A_h at any dt while the Hessian of A_h stays
below 2 K (it stayed below K on every field tried).  The solve is exact, by
fast diagonalization, but its roundoff in the constant mode grows with dt
(one step at dt = 6.3e5 on a 3-D grid-7 box moved sum M u by 4.5e-6), so
each increment has its M-weighted mean subtracted: sum M u then moves only
by the roundoff of adding it, at any dt.  Constants are the only stationary
graphs, so ``flow_run`` heads for the flat limit in pseudo-time: it starts
at FIRST_DT and doubles dt after every step accepted at its first dt
(pseudo-transient continuation: Mulder & van Leer, J. Comput. Phys. 59,
1985; Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998), and a default field
converges in two steps.  A step that raises the area beyond AREA_SLACK, or is
non-finite, is retried at half the dt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .density import Density
from .graph import GraphFunction
from .rng import DEFAULT_SEED

FLOW_DT = 0.02  # the tests' time-accurate uniform step; cli's box bound is stated at it
FIRST_DT = 100.0  # the first dt of flow_run's ladder
AREA_SLACK = 1e-12
MAX_REJECTIONS = 10

VERDICT_CONVERGED = "converged_to_constant"
VERDICT_MAX_TIME = "max_time_reached"
VERDICT_STEP_FAILURE = "step_failure"


class FlowStepError(RuntimeError):
    """A step could not be accepted: it was rejected at every halving, or
    its solve lost its accuracy."""


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

    def oscillation(self) -> float:
        return float(np.max(self.values) - np.min(self.values))


def grid_nodes(half_width: float, resolution: int, n: int) -> np.ndarray:
    """Node coordinates of the uniform grid of [-L, L]^n, shape
    (resolution,) * n + (n,), at which ``initial_field`` samples its graph."""
    ax = np.linspace(-half_width, half_width, resolution)
    return np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1)


# V scales by M^{-1/2}, so the solve's roundoff at the lightest nodes grows
# with the span of the weights.  Each axis's cell weights are floored so that
# they span at most e^{LOG_WEIGHT_SPAN / 2}, and the box's product weights at
# most e^{LOG_WEIGHT_SPAN}: no floor is reached for L <= 10 and n <= 2, and
# for n = 3 it lies at e^{-33} of the centre's weight on each axis.
LOG_WEIGHT_SPAN = 100.0
REFINE_SWEEPS = 2
SOLVE_RTOL = 1e-6


@dataclass(frozen=True)
class _Along:
    """One axis's factors laid along grid axis i of the n-D grid, and the
    index tuples of its edges: ``lo`` and ``hi`` take all but the last and
    all but the first entry along i (an edge's low and high end, or an inner
    node's edge below and above), ``far`` the last.  ``up`` and ``down`` are
    the shares of a node's mass from the cell above and below it, at the
    edges' low and high ends, each repeated to the shape of an edge array;
    ``up[hi]`` and ``down[lo]`` are the shares at the inner nodes.
    ``weights`` are the 1-D weights of an edge array along i, last axis
    first."""

    lo: tuple
    hi: tuple
    far: tuple
    up: np.ndarray
    down: np.ndarray
    weights: tuple


@dataclass(frozen=True)
class _Axis:
    """The 1-D factors of the separable weights on the m nodes of [-L, L].

    ``cell_mass`` is phi_1 dx at the cell centres and ``node_mass`` node j's
    M_j = (dx/2) (phi_1(x_{j-1/2}) + phi_1(x_{j+1/2})), one half cell at each
    end; ``mass`` is M up to a constant factor, which never underflows, and
    ``below`` and ``above`` are the shares of it from the cell on either side.
    With K the stiffness of edge weights phi_1(x_{j+1/2}) / dx, ``lam`` holds
    the eigenvalues of M^{-1} K, and ``vecs`` and ``coefs`` its eigenvectors V
    and V^{-1}, from the symmetric M^{-1/2} K M^{-1/2}.  For the n-D box,
    ``shape`` is its grid's, ``volume`` the box's sum M, ``lam_sum`` the sum
    of the n axes' eigenvalues at every node, and ``along`` holds the axis's
    factors laid along each of the n grid axes."""

    dx: float
    cell_mass: np.ndarray
    node_mass: np.ndarray
    mass: np.ndarray
    below: np.ndarray
    above: np.ndarray
    lam: np.ndarray
    vecs: np.ndarray
    coefs: np.ndarray
    shape: tuple
    volume: float
    lam_sum: np.ndarray
    along: tuple


@functools.lru_cache(maxsize=8)
def _axis(half_width: float, resolution: int, n: int) -> _Axis:
    """The memoized, read-only factors of one axis; all are formed from log
    weights, so no share or mass ratio underflows on a wide box."""
    x, dx = np.linspace(-half_width, half_width, resolution, retstep=True)
    log_w = -Density.gaussian(1).log_weight(0.5 * (x[:-1, None] + x[1:, None]))
    log_w = np.maximum(log_w, np.max(log_w) - LOG_WEIGHT_SPAN / max(n, 2))
    rel = log_w - np.max(log_w)
    lo, hi = np.append(-np.inf, rel), np.append(rel, -np.inf)  # cells below and above each node
    log_mass = np.logaddexp(lo, hi)
    below, above = np.exp(lo - log_mass), np.exp(hi - log_mass)
    # M^{-1/2} K M^{-1/2} in units of 2/dx^2: K_{j,j+1}^2 / (M_j M_{j+1}) = above_j below_{j+1}
    off = np.sqrt(above[:-1] * below[1:])
    lam, q = np.linalg.eigh(np.diag(above + below) - np.diag(off, 1) - np.diag(off, -1))
    lam[0] = 0.0  # K 1 = 0 exactly; roundoff must not let 1 + dt lam_0 leave 1
    lam *= 2.0 / (dx * dx)
    root = np.exp(0.5 * log_mass)
    cell_mass = dx * np.exp(log_w)
    node_mass = 0.5 * (np.append(0.0, cell_mass) + np.append(cell_mass, 0.0))
    along = tuple(_laid_along(i, n, above, below, cell_mass, node_mass) for i in range(n))
    axis = _Axis(dx, cell_mass, node_mass, np.exp(log_mass), below, above, lam, q / root[:, None],
                 q.T * root, (resolution,) * n, float(np.sum(cell_mass)) ** n,
                 functools.reduce(np.add.outer, [lam] * n), along)
    for a in (axis.cell_mass, axis.node_mass, axis.mass, axis.below, axis.above, axis.lam,
              axis.vecs, axis.coefs, axis.lam_sum):
        a.flags.writeable = False
    return axis


def _along(v: np.ndarray, axis: int, n: int) -> np.ndarray:
    """The 1-D ``v`` shaped to broadcast along ``axis`` of an n-D grid."""
    return v.reshape([-1 if k == axis else 1 for k in range(n)])


def _laid_along(i, n, above, below, cell_mass, node_mass) -> _Along:
    """One axis's factors along grid axis i of the n-D grid."""
    def index(part):
        return tuple(part if k == i else slice(None) for k in range(n))

    def spread(v):  # a product with a full array is one contiguous loop, twice as fast
        shape = [v.size if k == i else above.size for k in range(n)]
        out = np.ascontiguousarray(np.broadcast_to(_along(v, i, n), shape))
        out.flags.writeable = False
        return out

    weights = tuple(cell_mass if k == i else node_mass for k in reversed(range(n)))
    return _Along(index(slice(None, -1)), index(slice(1, None)), index(-1),
                  spread(above[:-1]), spread(below[1:]), weights)


def _at_nodes(edge: np.ndarray, ax: _Axis, axis: int, combine, spare) -> np.ndarray:
    """up edge_{j+1/2} ``combine`` down edge_{j-1/2} at every node j along
    ``axis``, ``combine`` being np.add or np.subtract, each edge weighted by
    its cell's share of the node's mass; no edge lies beyond the box's faces,
    and the far face's one edge is combined with 0.0.  ``spare`` receives
    down edge: a buffer of the edges' shape, or None."""
    al = ax.along[axis]
    out = np.empty(ax.shape)
    np.multiply(al.up, edge, out=out[al.lo])
    out[al.far] = 0.0
    high = out[al.hi]
    combine(high, np.multiply(al.down, edge, out=spare), out=high)
    return out


def _to_nodes(edge: np.ndarray, ax: _Axis, axis: int) -> np.ndarray:
    """The mass-weighted mean of the two edges along ``axis`` at every node,
    its one edge at the box's faces."""
    return _at_nodes(edge, ax, axis, np.add, None)


def _divergence(edge: np.ndarray, ax: _Axis, axis: int) -> np.ndarray:
    """M^{-1} times the net outflow of the fluxes phi edge through each node's
    two edges along ``axis``: (2/dx) (above edge_{j+1/2} - below edge_{j-1/2}).
    Overwrites ``edge``."""
    out = _at_nodes(edge, ax, axis, np.subtract, edge)
    out *= 2.0 / ax.dx
    return out


def _slopes(node: np.ndarray, ax: _Axis, al: _Along) -> np.ndarray:
    """The slope of ``node`` on every edge along ``al``: its difference over dx."""
    out = np.subtract(node[al.hi], node[al.lo])
    out /= ax.dx
    return out


def _to_edges(node: np.ndarray, al: _Along) -> np.ndarray:
    """The mean of ``node`` over the two ends of every edge along ``al``."""
    out = np.add(node[al.lo], node[al.hi])
    out *= 0.5
    return out


def _sharpen(edge: np.ndarray, al: _Along) -> np.ndarray:
    """edge - (above jump_{j+1} - below jump_j) / 12 along ``al``, with
    jump_j = edge_{j+1/2} - edge_{j-1/2} at the inner nodes: (26 e - e_- - e_+) / 24
    on equal weights, which takes an edge's slope to the derivative at its
    midpoint to fourth order, and its own adjoint under the edge weights.
    Overwrites ``edge``."""
    jump = np.subtract(edge[al.hi], edge[al.lo])
    jump /= 12.0
    low, high = edge[al.lo], edge[al.hi]
    np.subtract(low, np.multiply(al.up[al.hi], jump), out=low)
    np.add(high, np.multiply(al.down[al.lo], jump, out=jump), out=high)
    return edge


def _field_geometry(fld: GridField) -> tuple[float, np.ndarray]:
    """The weighted area A_h and H_F^h = -M^{-1} grad A_h at every node.

    W - 1 = sum_i p_i^2 / (1 + W), so the area splits into one term per axis,
    taken at the midpoints of the edges along it with the edge weights w_e of K:

        A_h = sum M + sum_i sum_{e along i} w_e (g^2 / 2 + r(s, t)),
        r(s, t) = s^2 / (1 + W) - s^2 / 2,  W = sqrt(1 + s^2 + |t|^2),

    g the edge's slope, s its ``_sharpen``-ed slope and t the slopes across
    it, the mean over its two nodes of their ``_to_nodes`` slopes.  The g^2 / 2
    terms are u^T K u / 2 and r = O(|p|^4).  The P1 area of a triangulation
    takes W from the one-sided slopes of a simplex: on grid 17 at a steep
    bump its H_F^h is not yet second order, where this one is.

    Every operator writes into arrays it owns and keeps the order of the
    formulas above, whose sums of H_F start from 0.0: no -0.0 leaves it."""
    n = fld.dimension
    ax = _axis(fld.half_width, fld.resolution, n)
    slopes = [_slopes(fld.values, ax, al) for al in ax.along]
    nodal = [_to_nodes(g, ax, i) for i, g in enumerate(slopes)] if n > 1 else []
    area = ax.volume
    fluxes, across = [], [None] * n
    for i, (al, g) in enumerate(zip(ax.along, slopes)):
        s = _sharpen(g.copy(), al)
        cross = [(j, _to_edges(nodal[j], al)) for j in range(n) if j != i]
        ss = s * s
        w = np.add(ss, 1.0)
        t2 = None
        for _, t in cross:  # |t|^2, its first term exact: 0.0 + t t is t t
            t2 = t * t if t2 is None else np.add(t2, t * t, out=t2)
        if cross:
            w += t2
        np.sqrt(w, out=w)
        wp = w + 1.0
        q = np.multiply(w, wp)
        q *= wp
        np.divide(s, q, out=q)  # d r / d t_j = -s q t_j, d r / d s = s / W - s + q |t|^2
        inner = np.divide(s, w)
        inner -= s
        if cross:
            t2 *= q
            inner += t2
        flux = _sharpen(inner, al)
        flux += g
        fluxes.append(flux)  # d A_h / d g per unit w_e
        if cross:
            np.negative(s, out=s)
            s *= q
        # d A_h / d t_j, taken to the nodes, reaches the j-edges in the end.  Its
        # sum starts from 0.0 too, but the sign of a zero in it reaches only the
        # signs of H_F's zeros, which the 0.0 + of H_F's own sum sets
        for j, t in cross:
            t *= s
            nodes = _to_nodes(t, ax, i)
            across[j] = nodes if across[j] is None else np.add(across[j], nodes, out=across[j])
        a = np.multiply(g, g)
        a -= ss
        a *= 0.5
        ss /= wp
        a += ss
        area += _integrate(a, al.weights)
    hf = None
    for j, f in enumerate(fluxes):
        if n > 1:
            f += _to_edges(across[j], ax.along[j])
        d = _divergence(f, ax, j)
        hf = d if hf is None else np.add(hf, d, out=hf)
    hf += 0.0  # the sum starts from 0.0
    return area, hf


def _integrate(a: np.ndarray, weights: tuple) -> float:
    """``a`` summed against the tensor product of the 1-D ``weights``, given
    last axis first."""
    for wt in weights:
        a = a @ wt
    return float(a)


def _each_axis(mat: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``mat`` applied along every axis of ``a``: matmul broadcasts over
    leading axes, so ``mat @`` acts on axis 0 for n <= 2 and on axis 1 for
    n = 3, and ``@ mat.T`` on the last axis."""
    out = mat @ a
    if a.ndim > 1:
        out = out @ mat.T
    if a.ndim > 2:
        out = (mat @ out.reshape(a.shape[0], -1)).reshape(a.shape)
    return out


def _ou_solve(half_width: float, rhs: np.ndarray, dt: float) -> np.ndarray:
    """(I - dt L_h)^{-1} rhs, L_h = -M^{-1} K, by fast diagonalization (Lynch,
    Rice & Thomas, Numer. Math. 6, 1964): V^{-1} along every axis, a division
    by 1 + dt sum_i lam_i, V along every axis.  V scales by M^{-1/2}, so the
    light nodes take the heavy ones' roundoff amplified, on the 2-D grid 65 of
    L = 10 by 1e3 times the solution's norm; REFINE_SWEEPS sweeps on the
    residual, in flux form, bring that to 1e-13.  The solve is linear: it runs
    on 2^k rhs, max |2^k rhs| in [1, 2), which is exact and makes it
    scale-free.  L_h is a generator (rows sum to 0, no negative rates), so the
    exact solution lies within max |rhs|; a solve that leaves it by more than
    SOLVE_RTOL has lost its accuracy and raises FlowStepError."""
    n = rhs.ndim
    ax = _axis(half_width, rhs.shape[0], n)
    bound = np.max(np.abs(rhs))
    k = 1 - math.frexp(bound)[1]
    rhs = np.ldexp(rhs, k)
    denom = dt * ax.lam_sum
    denom += 1.0
    out = _each_axis(ax.coefs, rhs)
    out /= denom
    out = _each_axis(ax.vecs, out)
    for _ in range(REFINE_SWEEPS):
        resid = np.subtract(rhs, out)
        for i, al in enumerate(ax.along):
            div = _divergence(_slopes(out, ax, al), ax, i)
            div *= dt
            resid += div
        step = _each_axis(ax.coefs, resid)
        step /= denom
        out += _each_axis(ax.vecs, step)
    if not np.max(np.abs(out)) <= (1.0 + SOLVE_RTOL) * np.ldexp(bound, k):
        raise FlowStepError(f"the eigenbasis solve lost its accuracy at dt = {dt:.6g}")
    return np.ldexp(out, -k, out=out)


def grid_weighted_mean_curvature(fld: GridField) -> np.ndarray:
    """H_F^h = -M^{-1} grad A_h at every node."""
    return _field_geometry(fld)[1]


def weighted_area(fld: GridField) -> float:
    """The weighted area A_h over the box."""
    return _field_geometry(fld)[0]


def _mass_mean(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum M v / sum M, M the product of the 1-D ``weights`` along every axis."""
    mean = values
    for _ in range(values.ndim):
        mean = mean @ weights / np.sum(weights)
    return mean


def mass_mean(fld: GridField) -> float:
    """The M-weighted mean sum M u / sum M, which every step conserves."""
    weights = _axis(fld.half_width, fld.resolution, fld.dimension).mass
    return float(_mass_mean(fld.values, weights))


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


def initial_state(fld: GridField) -> FlowState:
    try:
        with np.errstate(over="raise", invalid="raise"):
            area, hf = _field_geometry(fld)
    except FloatingPointError as exc:
        raise ValueError(
            f"the initial field is too steep: its weighted area or H_F overflows ({exc})"
        ) from None
    return _accepted(fld, 0.0, FIRST_DT, area, hf, [])


def _accepted(
    fld: GridField, t: float, dt: float, area: float, hf: np.ndarray, history: list
) -> FlowState:
    """The state of an accepted field, its record appended to ``history``."""
    history.append((t, area, fld.oscillation(), float(np.max(np.abs(hf)))))
    return FlowState(field=fld, time=t, dt=dt, hf=hf, history=history)


def flow_step(state: FlowState) -> FlowState:
    """One accepted step u <- u + (I - dt L_h)^{-1} (dt H_F^h(u)), its
    increment less its M-weighted mean, which is zero but for the solve's
    roundoff.

    Rejects (halving dt, up to MAX_REJECTIONS times) any step that increases
    the weighted area by more than AREA_SLACK, overflows or is not finite.
    """
    fld = state.field
    mass = _axis(fld.half_width, fld.resolution, fld.dimension).mass
    area0 = state.history[-1][1]
    dt = state.dt
    for _ in range(MAX_REJECTIONS + 1):
        area = math.inf
        try:
            with np.errstate(over="raise", invalid="raise"):
                du = _ou_solve(fld.half_width, dt * state.hf, dt)
                du -= _mass_mean(du, mass)
                du += fld.values
                if np.all(np.isfinite(du)):
                    new_fld = GridField(fld.half_width, du)
                    area, hf = _field_geometry(new_fld)
        except FloatingPointError:
            pass  # a trial that overflows is rejected like one that raises the area
        if area <= area0 + AREA_SLACK:
            return _accepted(new_fld, state.time + dt, dt, area, hf, state.history)
        dt *= 0.5
    raise FlowStepError(
        f"step rejected {MAX_REJECTIONS} times at t = {state.time:.6g}"
    )


def flow_run(
    state: FlowState, t_max: float, osc_tol: float = 0.005, hf_tol: float = 0.005
) -> FlowResult:
    """Iterate flow_step until flattening or the pseudo-time budget runs out,
    doubling dt after every step accepted at its first dt.

    A step that would pass t_max is clipped to end there.  The clip is no
    rejection: the ladder's dt stays, halved only as often as the clipped
    step was.  Converged: oscillation <= osc_tol and max |H_F| <= hf_tol; the
    limit constant is the conserved M-weighted mean.  Failed: dt fell below
    the initial dt halved MAX_REJECTIONS times, or a step was rejected that
    often.
    """
    dt_min = state.dt * 0.5**MAX_REJECTIONS
    while True:
        _, _, osc, max_hf = state.history[-1]
        if osc <= osc_tol and max_hf <= hf_tol:
            return FlowResult(state, VERDICT_CONVERGED, mass_mean(state.field))
        if state.time >= t_max:
            return FlowResult(state, VERDICT_MAX_TIME)
        dt, left = state.dt, t_max - state.time
        clipped = dt > left
        try:
            state = flow_step(replace(state, dt=left) if clipped else state)
        except FlowStepError:
            return FlowResult(state, VERDICT_STEP_FAILURE)
        if clipped:
            state.dt = dt * (state.dt / left)
        if state.dt < dt_min:
            return FlowResult(state, VERDICT_STEP_FAILURE)
        if state.dt == dt and not clipped:
            state.dt = 2.0 * dt

