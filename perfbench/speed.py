"""Speed probe: a fixed unit of work that does not touch gaussmin.

The shared host this benchmark runs on changes speed by tens of percent, in
episodes of seconds to minutes, and CPU time tracks wall time, so no single
run can tell a slower program from a slower machine.  During a timed run a
``Sampler`` therefore times one probe unit every ``INTERVAL_S`` of wall
time, from a timer signal, inside ops as well as between them, and each
end-to-end time is reported scaled to the probe's nominal speed: an op's
latency divided by the slowness the units near it measured.  The unit mixes
the kinds of work the workloads do, so a machine slowdown moves it much as
it moves an op: on a shared 2-core host, over 5 minutes, the log of a 20-s
window's median op time tracked the log of the window's median unit time
with correlation 0.89-0.95 for verify, flow --n 2 and measure ops.  A
change to gaussmin does not move the unit at all.  Probe time spent inside
an op is taken out of that op's latency.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time

import numpy as np

# Median unit time on an idle 2-core x86-64 host (Python 3.11, numpy 2, one
# BLAS thread).  Only the ratio to it matters; it is fixed so that scaled
# times compare across runs and commits.
REF_UNIT_S = 0.0056
# one unit per INTERVAL_S of wall time: about 3% of the run
INTERVAL_S = 0.25
# an op's slowness is the median over at least this many units near it
NEAREST = 8
# units run and discarded before sampling starts (first calls are slower)
WARM_UP = 5


@functools.cache
def _arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe inputs and the large array's scratch buffer, made on first use
    so that importing costs no set-up.  The buffer keeps the unit from
    allocating 2 MiB arrays, whose cost would depend on the heap state the
    ops leave behind rather than on the machine."""
    rng = np.random.default_rng(20131227)
    samples = rng.standard_normal(1 << 18)
    return rng.standard_normal((65, 65)), samples, np.empty_like(samples)


def unit() -> float:
    """Seconds taken by one probe unit: an interpreted loop (verify's
    pointwise geometry), a 2-D stencil on a 65 x 65 grid (a flow step) and
    one pass over a 2 MiB array (Monte Carlo sampling), in about the
    time proportions 5 : 1 : 1."""
    grid, samples, scratch = _arrays()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(25_000):
        acc += (i * 0.5) % 7.0
    x = grid.copy()
    for _ in range(15):
        y = np.pad(x, 1, mode="edge")
        x = x + 1e-6 * (y[2:, 1:-1] + y[:-2, 1:-1] + y[1:-1, 2:] + y[1:-1, :-2] - 4.0 * x)
    np.multiply(samples, samples, out=scratch)
    np.multiply(scratch, -0.5, out=scratch)
    acc += float(np.exp(scratch, out=scratch).sum())
    return time.perf_counter() - t0


def factor(units: list[float]) -> float:
    """How much slower than nominal the machine ran over a whole run: the
    median unit time over REF_UNIT_S.  Times divide by it."""
    return statistics.median(units) / REF_UNIT_S


class Sampler:
    """Runs a probe unit every INTERVAL_S while active.  ``spent`` is the
    wall time taken by the signal handler so far, for subtraction from op
    latencies."""

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter() at the start of each unit
        self.units: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.stamps.append(t0)
        self.units.append(unit())
        self.spent += time.perf_counter() - t0

    def slowness(self, start: float, end: float) -> float:
        """How much slower than nominal the machine ran while an op ran from
        ``start`` to ``end`` (perf_counter): the median time of the units
        started in that interval, or of the NEAREST units to it when fewer
        did, over REF_UNIT_S.  The op's latency divides by it."""
        near = sorted((max(0.0, start - t, t - end), u) for t, u in zip(self.stamps, self.units))
        inside = sum(1 for distance, _ in near if distance == 0.0)
        return statistics.median(u for _, u in near[:max(inside, NEAREST)]) / REF_UNIT_S

    def __enter__(self) -> Sampler:
        for _ in range(WARM_UP):
            unit()
        self._tick(None, None)  # one unit before the first op and one after the last
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        self._tick(None, None)
