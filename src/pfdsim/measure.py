"""Waveform post-processing: rise time, average power, and the pulse
table of a run's UP and DN outputs that every lead/lag decision, overlap
and high time is read from. A pulse is a stretch at or above 0.5*vdd.

Threshold crossings are linearly interpolated between samples, so
results do not inherit the integrator's step granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from pfdsim.engine import Waveform


class MeasurementError(Exception):
    """Raised when a waveform lacks the feature being measured."""


class Decision(Enum):
    """Which input the detector judged to be leading."""

    LEAD_A = "LeadA"
    LEAD_B = "LeadB"
    UNDETERMINED = "Undetermined"


def _crossings(t: np.ndarray, v: np.ndarray, above: np.ndarray, level: float):
    """Where the mask `above` (v against `level`) flips: the index of the
    sample after each flip, and the interpolated crossing time, clamped
    into its sample interval [t[k], t[k+1]]. Rounding alone can carry an
    interpolation past an end, so that a pulse whose only sample lies at
    the level would end before it starts."""
    k = np.flatnonzero(above[1:] != above[:-1])
    when = t[k] + (level - v[k]) * (t[k + 1] - t[k]) / (v[k + 1] - v[k])
    return k + 1, np.minimum(np.maximum(when, t[k]), t[k + 1])


def rise_time(w: Waveform, v_low: float, v_high: float) -> float:
    """10%-to-90% time of the first rising transition between the levels:
    from the first upward crossing of the 10% level (v[k-1] < level <=
    v[k]) to the next upward crossing of the 90% level."""
    k, times = 0, []
    for f in (0.1, 0.9):
        level = v_low + f * (v_high - v_low)
        above = w.v >= level
        ks, when = _crossings(w.t, w.v, above, level)
        hit = np.flatnonzero(above[ks] & (ks >= k))
        if not hit.size:
            raise MeasurementError(f"no qualifying transition ({f:.0%} level never crossed)")
        k = ks[hit[0]]
        times.append(when[hit[0]])
    return float(times[1] - times[0])


def _pulses(w: Waveform, threshold: float) -> np.ndarray:
    """The maximal intervals with v >= threshold, crossings interpolated,
    as a (2, k) array of starts over ends. Intervals clipped by the
    waveform ends still count."""
    above = w.v >= threshold
    k, when = _crossings(w.t, w.v, above, threshold)
    rising = above[k]
    # the first and last sample, where they lie inside a clipped interval
    return np.array((np.concatenate((w.t[:1][above[:1]], when[rising])),
                     np.concatenate((when[~rising], w.t[-1:][above[-1:]]))), dtype=float)


@dataclass(frozen=True)
class PulseTable:
    """One run's UP and DN on their one time axis, each scanned once: the
    starts and ends of every pulse, the highest sample of the run, and the
    highest sample in each full period from the anchor (-inf when a period
    holds no sample). One set of period cuts, counted in closed form,
    serves both rows."""

    vdd: float
    up: np.ndarray  # rows: pulse starts, pulse ends
    dn: np.ndarray
    run_peaks: tuple[float, float]  # UP's, DN's
    period_peaks: np.ndarray  # rows UP and DN, one column per period


def pulse_table(up: Waveform, dn: Waveform, *, vdd: float, anchor: float,
                period: float) -> PulseTable:
    """The table of UP and DN on one time axis; its periods are [anchor +
    k*period, anchor + (k+1)*period), each ending by the run's end. Each
    raises ValueError: a period that is not finite and > 0, or an anchor
    that is not finite (its periods would never stop being counted, or a
    NaN would count none); a vdd that is not finite and > 0 (no sample
    would be read as full swing, or every one); UP and DN sampled at
    different times; a voltage sample that is not finite; and a period
    count numpy cannot allocate. Empty UP and DN raise MeasurementError."""
    if not (0 < period < np.inf and np.isfinite(anchor)):  # NaN fails too
        raise ValueError(f"need a finite period > 0 and a finite anchor, "
                         f"got period = {period!r} s, anchor = {anchor!r} s")
    if not 0 < vdd < np.inf:
        raise ValueError(f"need a finite vdd > 0, got vdd = {vdd!r} V")
    # pulse_table_for passes one array for both: compare only other axes
    if up.t is not dn.t and not np.array_equal(up.t, dn.t):
        raise ValueError(f"UP and DN must be sampled at the same times, "
                         f"got {up.t.size} UP and {dn.t.size} DN samples")
    if not up.t.size:
        raise MeasurementError("UP and DN are empty waveforms: no sample to tabulate")
    for name, w in (("UP", up), ("DN", dn)):
        bad = np.flatnonzero(~np.isfinite(w.v))
        if bad.size:
            raise ValueError(f"{name} has a non-finite voltage sample: "
                             f"{w.v[bad[0]]} V at t = {w.t[bad[0]]} s")
    # Python floats: their arithmetic is numpy's, bit for bit, but an
    # overflowing quotient gives inf without a RuntimeWarning
    anchor, period = float(anchor), float(period)
    t_end = float(up.t[-1]) + 1e-15 * period
    # The full periods are the j >= 1 with anchor + j*period <= t_end, a test
    # monotone in j as rounding is monotone. The slack, 2^-49 of the larger
    # magnitude, exceeds the rounding of the quotient, the product and the
    # sum, so j = k + 2 fails the test even where period is below the
    # resolution of anchor and successive period starts round together.
    slack = 2.0 ** -49 * max(abs(anchor), abs(t_end))
    count = max((t_end - anchor + slack) / period, -1.0)  # -inf: no period
    # numpy refuses an array too large at once (MemoryError, or ValueError
    # beyond its index range; a count past the float range overflows)
    try:
        starts = anchor + np.arange(math.floor(count) + 3) * period
        n = int(np.count_nonzero(starts[1:] <= t_end))
        cuts = np.searchsorted(up.t, starts[:n + 1])
        peaks = np.full((2, n), -np.inf)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"{count:.3g} periods of {period!r} s from anchor = {anchor!r} s, "
                         f"a pulse table too large to allocate") from None
    held = cuts[:-1] < cuts[1:]
    for row, w in zip(peaks, (up, dn)):
        row[held] = np.maximum.reduceat(w.v[:cuts[-1]], cuts[:-1][held])
    return PulseTable(vdd, _pulses(up, 0.5 * vdd), _pulses(dn, 0.5 * vdd),
                      (float(up.v.max()), float(dn.v.max())), peaks)


def _decide(up_peak: float, dn_peak: float, vdd: float) -> Decision:
    up_full, dn_full = up_peak >= 0.8 * vdd, dn_peak >= 0.8 * vdd
    if up_full == dn_full:
        return Decision.UNDETERMINED
    return Decision.LEAD_A if up_full else Decision.LEAD_B


def classify_decision(table: PulseTable) -> Decision:
    """The whole run's decision: LeadA when only UP carries a full-swing
    pulse, LeadB when only DN does, Undetermined otherwise. A sample that
    reaches 0.8*vdd lies in a pulse, so the run's highest sample decides."""
    return _decide(*table.run_peaks, table.vdd)


def per_period_decisions(table: PulseTable) -> list[Decision]:
    """The decision of each full period, by the same rule: a period holds a
    full-swing pulse exactly when one of its samples reaches 0.8*vdd."""
    return [_decide(u, d, table.vdd) for u, d in table.period_peaks.T]


def mutual_exclusion_overlap(table: PulseTable) -> float:
    """Total duration with UP and DN both at or above 0.5*vdd: the positive
    overlaps of UP and DN pulses, added UP pulse by UP pulse in order."""
    (s, e), (ds, de) = table.up, table.dn
    # starts and ends are each sorted: only DN pulses lo..hi-1 end after
    # an UP pulse starts and start before it ends
    lo, hi = np.searchsorted(de, s, side="right"), np.searchsorted(ds, e, side="left")
    counts = np.maximum(hi - lo, 0)
    i = np.repeat(np.arange(s.size), counts)  # the pairs, UP-major
    j = np.arange(i.size) - (np.cumsum(counts) - counts - lo)[i]
    overlap = np.minimum(e[i], de[j]) - np.maximum(s[i], ds[j])
    overlap = overlap[overlap > 0.0]
    # a running sum adds in a loop's order, where numpy's sum pairs terms
    return float(np.cumsum(overlap)[-1]) if overlap.size else 0.0


def average_power(supply: Waveform, vdd: float, window: tuple[float, float]) -> float:
    """vdd times the windowed mean of the supply current (trapezoid rule).
    ValueError for a vdd that is not finite and > 0; MeasurementError when
    the supply waveform is empty or does not span the window."""
    if not 0 < vdd < np.inf:  # NaN fails too
        raise ValueError(f"need a finite vdd > 0, got vdd = {vdd!r} V")
    if not supply.t.size:
        raise MeasurementError("supply waveform is empty: no span to average power over")
    t0, t1 = window
    if not (supply.t[0] <= t0 < t1 <= supply.t[-1]):
        raise MeasurementError(
            f"window [{t0:g}, {t1:g}] outside waveform span "
            f"[{supply.t[0]:g}, {supply.t[-1]:g}]"
        )
    inside = (supply.t > t0) & (supply.t < t1)
    ts = np.concatenate(([t0], supply.t[inside], [t1]))
    vs = np.concatenate(([supply.at(t0)], supply.v[inside], [supply.at(t1)]))
    # np.trapezoid's sum written out, as numpy 1.x has no np.trapezoid
    return vdd * float((np.diff(ts) * (vs[1:] + vs[:-1]) / 2.0).sum()) / (t1 - t0)
