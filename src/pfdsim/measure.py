"""Waveform post-processing: edge timing, pulse detection, lead/lag
classification, mutual-exclusion overlap, and average power.

All threshold crossings are linearly interpolated between samples so
measurement results do not inherit the integrator's step granularity.
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


def _cross_time(t0, t1, v0, v1, level) -> float:
    if v1 == v0:
        return float(t0)
    return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0))


def _first_crossing(w: Waveform, level: float, rising: bool, start_index: int = 0):
    v = w.v
    for k in range(max(start_index, 1), len(v)):
        if rising and v[k - 1] < level <= v[k]:
            return k, _cross_time(w.t[k - 1], w.t[k], v[k - 1], v[k], level)
        if not rising and v[k - 1] > level >= v[k]:
            return k, _cross_time(w.t[k - 1], w.t[k], v[k - 1], v[k], level)
    return None, None


def rise_time(w: Waveform, v_low: float, v_high: float) -> float:
    """10%-to-90% time of the first rising transition between the levels."""
    span = v_high - v_low
    lo, hi = v_low + 0.1 * span, v_low + 0.9 * span
    k10, t10 = _first_crossing(w, lo, rising=True)
    if k10 is None:
        raise MeasurementError("no qualifying transition (10% level never crossed)")
    k90, t90 = _first_crossing(w, hi, rising=True, start_index=k10)
    if k90 is None:
        raise MeasurementError("no qualifying transition (90% level never crossed)")
    return float(t90 - t10)


def fall_time(w: Waveform, v_low: float, v_high: float) -> float:
    """90%-to-10% time of the first falling transition between the levels."""
    span = v_high - v_low
    lo, hi = v_low + 0.1 * span, v_low + 0.9 * span
    k90, t90 = _first_crossing(w, hi, rising=False)
    if k90 is None:
        raise MeasurementError("no qualifying transition (90% level never crossed)")
    k10, t10 = _first_crossing(w, lo, rising=False, start_index=k90)
    if k10 is None:
        raise MeasurementError("no qualifying transition (10% level never crossed)")
    return float(t10 - t90)


def detect_pulses(w: Waveform, threshold: float) -> list[PulseEvent]:
    """Maximal intervals with v >= threshold, crossings interpolated.

    Intervals clipped by the waveform ends still count as events.
    """
    v = np.asarray(w.v)
    t = np.asarray(w.t)
    above = v >= threshold
    if not above.any():
        return []
    edges = np.flatnonzero(np.diff(above.astype(np.int8)))
    starts: list[float] = []
    ends: list[float] = []
    if above[0]:
        starts.append(float(t[0]))
    for k in edges:
        if above[k + 1]:
            starts.append(_cross_time(t[k], t[k + 1], v[k], v[k + 1], threshold))
        else:
            ends.append(_cross_time(t[k], t[k + 1], v[k], v[k + 1], threshold))
    if above[-1]:
        ends.append(float(t[-1]))
    events = []
    for s, e in zip(starts, ends):
        inside = (t >= s) & (t <= e)
        peak = float(v[inside].max()) if inside.any() else threshold
        events.append(PulseEvent(start=s, end=e, peak=max(peak, threshold)))
    return events


def high_time(w: Waveform, threshold: float) -> float:
    """Total time spent at or above the threshold."""
    return sum(ev.duration for ev in detect_pulses(w, threshold))


def classify_decision(up: Waveform, dn: Waveform, *, vdd: float) -> Decision:
    """LeadA when only UP carries a full-swing pulse, LeadB when only DN
    does, Undetermined otherwise. A pulse is a stretch at or above 0.5*vdd;
    it is full-swing when it peaks at 0.8*vdd or more."""
    threshold, min_peak = 0.5 * vdd, 0.8 * vdd
    up_real = [ev for ev in detect_pulses(up, threshold) if ev.peak >= min_peak]
    dn_real = [ev for ev in detect_pulses(dn, threshold) if ev.peak >= min_peak]
    if up_real and not dn_real:
        return Decision.LEAD_A
    if dn_real and not up_real:
        return Decision.LEAD_B
    return Decision.UNDETERMINED


def mutual_exclusion_overlap(up: Waveform, dn: Waveform, threshold: float) -> float:
    """Total duration with both waveforms simultaneously >= threshold."""
    total = 0.0
    dn_events = detect_pulses(dn, threshold)
    for a in detect_pulses(up, threshold):
        for b in dn_events:
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
    return vdd * float(np.trapezoid(vs, ts)) / (t1 - t0)

