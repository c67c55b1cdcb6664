"""Host speed, sampled beside every timed command.

The benchmark shares a few cores of a host whose speed drifts by 30% and more
over tens of seconds, with CPU time staying equal to wall time, so the noise
is the core running slower, not the process waiting. A fixed reference slice
is timed before and after each command and, while the command runs, every
SLICE_EVERY_S seconds from a SIGALRM handler. The command's host time (with the
slices taken out) is scaled by REFERENCE_S over the mean slice time: it is the
time the command would take on a host where one slice takes REFERENCE_S.

The slice does the kind of work pfdsim's Newton loop does (fancy indexing,
ufuncs, `np.add.at`, a 24x24 dense solve, Python bytecode between them) but
imports nothing from pfdsim, so a change to the program leaves it alone.
Taken over whole runs, the scaled time of a command spread 2-3% between runs
where its raw host time spread 8-10%: slices taken only before and after a
6 s command track its speed poorly, slices inside it track it closely.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SLICE_ITERS = 1000
REFERENCE_S = 0.045  # about the median slice on the 2-core VM the benchmark was defined on
SLICE_EVERY_S = 0.4  # between slices inside a command, so ~10% of its time


def reference_slice() -> float:
    """Run one fixed slice of work; its host seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 24)) + 8.0 * np.eye(24)
    idx = rng.integers(0, 24, 40)
    x = rng.standard_normal(24)
    acc = 0.0
    for _ in range(SLICE_ITERS):
        v = x[idx]
        w = np.where(v < 0.0, -v, v) - 0.3
        np.maximum(w, 0.0, out=w)
        f = a @ x
        np.add.at(f, idx, 1e-3 * w)
        s = np.zeros(24)
        np.maximum.at(s, idx, w)
        dx = np.linalg.solve(a, -f)
        x = x + 1e-3 * dx
        acc += float(np.max(np.abs(dx))) + sum({i: 0.5 * i for i in range(30)}.values())
    if not np.isfinite(acc):
        raise ArithmeticError("reference slice diverged")
    return time.perf_counter() - t0


class HostSpeed:
    """Times calls between reference slices; keeps every slice time of the run."""

    def __init__(self):
        self.slices: list[float] = []

    def _slice(self, taken: list[float]) -> float:
        """Run a slice, note its host seconds; the time it ended."""
        s = reference_slice()
        taken.append(s)
        self.slices.append(s)
        return time.perf_counter()

    def time(self, fn, *args, inside: bool = True):
        """Call fn(*args); return (result, host s, reference-host s).

        With `inside`, slices also run inside the call and are taken out of
        its host time. Leave it off where the call's time belongs to another
        process (the slices would run beside it) or where spans inside the call
        are recorded (they would include the slices).
        """
        taken: list[float] = []
        self._slice(taken)
        inner: list[float] = []
        ends: list[float] = []

        def on_alarm(signum, frame):
            ends.append(self._slice(inner))
            signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S)

        if inside:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            if inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        # a slice whose signal came as fn returned may end after t1
        wall = t1 - t0 - sum(s for s, end in zip(inner, ends) if end <= t1)
        self._slice(taken)
        return result, wall, wall * REFERENCE_S / statistics.mean(taken + inner)
