"""Waveform post-processing: rise time, average power, and the pulse
table of a run's UP and DN outputs that every lead/lag decision, overlap
and high time is read from. A pulse is a stretch at or above 0.5*vdd.

Threshold crossings are linearly interpolated between samples, so
results do not inherit the integrator's step granularity.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class PulseEvent:
    start: float
    end: float
    peak: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _crossings(t: np.ndarray, v: np.ndarray, above: np.ndarray, level: float):
    """Where the mask `above` (v against `level`) flips: the index of the
    sample after each flip, and the interpolated crossing time."""
    k = np.flatnonzero(above[1:] != above[:-1])
    return k + 1, t[k] + (level - v[k]) * (t[k + 1] - t[k]) / (v[k + 1] - v[k])


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


def detect_pulses(w: Waveform, vdd: float) -> list[PulseEvent]:
    """Maximal intervals with v >= 0.5*vdd, crossings interpolated, each
    with its highest sample. Intervals clipped by the waveform ends still
    count as events."""
    threshold = 0.5 * vdd
    above = w.v >= threshold
    k, when = _crossings(w.t, w.v, above, threshold)
    rising = above[k]
    starts, ends, first = when[rising], when[~rising], k[rising]
    if above[:1].any():  # an empty waveform has no pulses
        starts, first = np.concatenate((w.t[:1], starts)), np.concatenate(([0], first))
    if above[-1:].any():
        ends = np.concatenate((ends, w.t[-1:]))
    # a slice from one pulse's first sample to the next also holds samples below
    peaks = np.maximum.reduceat(w.v, first)
    return [PulseEvent(start=float(s), end=float(e), peak=float(p))
            for s, e, p in zip(starts, ends, peaks)]


@dataclass(frozen=True)
class PulseTable:
    """One run's UP and DN, each scanned once: every pulse, and the highest
    sample of each in each full period from the anchor (-inf when a period
    holds no sample)."""

    vdd: float
    up: list[PulseEvent]
    dn: list[PulseEvent]
    period_peaks: np.ndarray  # rows UP and DN, one column per period


def pulse_table(up: Waveform, dn: Waveform, *, vdd: float, anchor: float,
                period: float) -> PulseTable:
    """The table of UP and DN on one time axis; its periods are [anchor +
    k*period, anchor + (k+1)*period), each ending by the run's end. A
    period that is not finite and > 0, or an anchor that is not finite,
    raises ValueError: its periods would never stop being counted, or a
    NaN would count none."""
    if not (0 < period < np.inf and np.isfinite(anchor)):  # NaN fails too
        raise ValueError(f"need a finite period > 0 and a finite anchor, "
                         f"got period = {period!r} s, anchor = {anchor!r} s")
    t_end = up.t[-1] + 1e-15 * period
    n = 0
    while anchor + (n + 1) * period <= t_end:
        n += 1
    cuts = np.searchsorted(up.t, anchor + np.arange(n + 1) * period)
    held = cuts[:-1] < cuts[1:]
    peaks = np.full((2, n), -np.inf)
    for row, w in zip(peaks, (up, dn)):
        row[held] = np.maximum.reduceat(w.v[:cuts[-1]], cuts[:-1][held])
    return PulseTable(vdd, detect_pulses(up, vdd), detect_pulses(dn, vdd), peaks)


def _decide(up_peak: float, dn_peak: float, vdd: float) -> Decision:
    up_full, dn_full = up_peak >= 0.8 * vdd, dn_peak >= 0.8 * vdd
    if up_full == dn_full:
        return Decision.UNDETERMINED
    return Decision.LEAD_A if up_full else Decision.LEAD_B


def classify_decision(table: PulseTable) -> Decision:
    """The whole run's decision: LeadA when only UP carries a full-swing
    pulse, LeadB when only DN does, Undetermined otherwise."""
    up, dn = (max((ev.peak for ev in p), default=-np.inf) for p in (table.up, table.dn))
    return _decide(up, dn, table.vdd)


def per_period_decisions(table: PulseTable) -> list[Decision]:
    """The decision of each full period, by the same rule: a period holds a
    full-swing pulse exactly when one of its samples reaches 0.8*vdd."""
    return [_decide(u, d, table.vdd) for u, d in table.period_peaks.T]


def high_time(pulses: list[PulseEvent]) -> float:
    """Total duration of the pulses (time at or above 0.5*vdd)."""
    return sum(ev.duration for ev in pulses)


def mutual_exclusion_overlap(table: PulseTable) -> float:
    """Total duration with UP and DN both at or above 0.5*vdd."""
    total = 0.0
    for a in table.up:
        for b in table.dn:
            total += max(0.0, min(a.end, b.end) - max(a.start, b.start))
    return float(total)


def average_power(supply: Waveform, vdd: float, window: tuple[float, float]) -> float:
    """vdd times the windowed mean of the supply current (trapezoid rule)."""
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
