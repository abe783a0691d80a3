"""Bit gate: the flow's in-place node and edge operators give the bytes of
the reference that forms a fresh array for every operator.

On random boxes that ``flow`` accepts, random fields (amplitudes 1e-3 to
1e3, the constant -0.0, and fields of signed zeros and subnormals, whose
H_F has zeros of either sign until its sum adds them to 0.0) and any dt in
[1e-3, 1e6], the weighted area, H_F (the signs of its zeros included) and
the solve equal ``oracles.field_geometry`` and ``oracles.ou_solve`` byte
for byte, and a solve raises FlowStepError on both sides or on neither.
Every drawn input is used.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussmin import flow
from gaussmin.flow import FLOW_DT, FlowStepError, GridField, initial_field
from oracles import field_geometry, ou_solve, same_bits

EPS = sys.float_info.epsilon


@st.composite
def boxes(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(3, 17))
    # the L that ``flow`` accepts on grid m, as in test_flow_properties
    lo = math.log10(0.5 * (m - 1) * math.sqrt(FLOW_DT * math.sqrt(EPS)))
    hi = math.log10(min(math.sqrt(sys.float_info.max / n), 0.5 * sys.float_info.max ** (1.0 / n)))
    L = 10.0 ** draw(st.floats(lo + 0.005, hi - 0.005))
    init = draw(st.sampled_from(["sinusoid", "linear", "random_bump", "constant:-0.0", "zeros"]))
    amplitude = 10.0 ** draw(st.floats(-3.0, 3.0))
    if init == "random_bump":
        fld = initial_field(n, L, m, f"random_bump:{amplitude!r}", seed=draw(st.integers(0, 2**32 - 1)))
    elif init == "constant:-0.0":
        fld = initial_field(n, L, m, init)
    elif init == "zeros":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        fld = GridField(L, rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310], (m,) * n))
    else:
        v = initial_field(n, L, m, init).values
        fld = GridField(L, amplitude / np.max(np.abs(v)) * v)
    return fld, 10.0 ** draw(st.floats(-3.0, 6.0))


def solved(half_width, rhs, dt, solve):
    """The solve's bytes, or the message of the FlowStepError it raised."""
    try:
        return solve(half_width, rhs, dt).tobytes()
    except FlowStepError as exc:
        return str(exc)


def assert_same_bits(fld, dt):
    area, hf = flow._field_geometry(fld)
    ref_area, ref_hf = field_geometry(fld)
    assert same_bits(np.float64(area), np.float64(ref_area))
    assert same_bits(hf, ref_hf)
    # H_F's step, and the field itself, whose zeros may be -0.0
    for rhs in (dt * ref_hf, fld.values):
        got = solved(fld.half_width, rhs, dt, flow._ou_solve)
        assert got == solved(fld.half_width, rhs, dt, ou_solve)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(boxes())
def test_area_hf_and_solve_equal_the_reference_bit_for_bit(case):
    assert_same_bits(*case)


@pytest.mark.parametrize("n, m", [(1, 257), (2, 65), (3, 33)])
@pytest.mark.parametrize("init", ["sinusoid", "random_bump:1"])
def test_the_cli_grids_equal_the_reference_bit_for_bit(n, m, init):
    assert_same_bits(initial_field(n, 4.0, m, init, seed=5), flow.FIRST_DT)
