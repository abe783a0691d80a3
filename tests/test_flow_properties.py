"""Property gate: one flow step at any dt keeps the flow's discrete laws.

On random boxes that ``flow`` accepts and random fields, one ``flow_step``
at any dt in [1e-3, 1e6] keeps sum M u, does not raise A_h beyond
AREA_SLACK, and its solve stays within max |rhs| (the maximum principle of
the generator L_h).  Every drawn input is used.
"""

import dataclasses
import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from gaussmin import flow
from gaussmin.flow import AREA_SLACK, FLOW_DT, GridField, flow_step, initial_field, initial_state

EPS = sys.float_info.epsilon


@st.composite
def one_step_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(3, 17))
    # the L that ``flow`` accepts on grid m, 1 % inside either end: dx^2 / sqrt(eps)
    # >= FLOW_DT, and n L^2 and the box volume (2 L)^n are finite
    lo = math.log10(0.5 * (m - 1) * math.sqrt(FLOW_DT * math.sqrt(EPS)))
    hi = math.log10(min(math.sqrt(sys.float_info.max / n), 0.5 * sys.float_info.max ** (1.0 / n)))
    L = 10.0 ** draw(st.floats(lo + 0.005, hi - 0.005))
    init = draw(st.sampled_from(["sinusoid", "linear", "random_bump"]))
    amplitude = draw(st.floats(0.0, 10.0))
    if init == "random_bump":
        seed = draw(st.integers(0, 2**32 - 1))
        fld = initial_field(n, L, m, f"random_bump:{amplitude!r}", seed=seed)
    else:
        # max |u| = amplitude, as random_bump scales itself; the linear preset's
        # slope of 0.25 would make max |u| grow with L
        v = initial_field(n, L, m, init).values
        fld = GridField(L, amplitude / np.max(np.abs(v)) * v)
    dt = 10.0 ** draw(st.floats(-3.0, 6.0))
    return fld, dt


@settings(derandomize=True, max_examples=200, deadline=None)
@given(one_step_cases())
def test_one_step_at_any_dt_keeps_the_mean_the_area_and_the_maximum_principle(case):
    fld, dt = case
    state = dataclasses.replace(initial_state(fld), dt=dt)
    mean0 = flow.mass_mean(fld)
    stepped = flow_step(state)
    assert abs(flow.mass_mean(stepped.field) - mean0) <= 1e-15 * max(1.0, abs(mean0))
    assert stepped.history[-1][1] <= state.history[0][1] + AREA_SLACK
    # the accepted attempt's solve: L_h is a generator, so the exact solution
    # lies within max |rhs|, and the solve keeps that to SOLVE_RTOL
    rhs = stepped.dt * state.hf
    du = flow._ou_solve(fld.half_width, rhs, stepped.dt)
    assert np.max(np.abs(du)) <= (1.0 + flow.SOLVE_RTOL) * np.max(np.abs(rhs))
