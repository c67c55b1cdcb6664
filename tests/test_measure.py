"""Measurement routines checked against closed-form waveforms, and the
pulse table's reductions against the per-reader scans they replaced."""

import math
import re
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfdsim.engine import Waveform
from pfdsim.measure import (
    Decision,
    MeasurementError,
    PulseTable,
    _crossings,
    average_power,
    classify_decision,
    mutual_exclusion_overlap,
    per_period_decisions,
    pulse_table,
    rise_time,
)


def ramp(t_start, t_end, v0, v1, n=200, pre=None, post=None):
    """Linear ramp with optional flat head/tail segments."""
    t = np.linspace(t_start, t_end, n)
    v = np.linspace(v0, v1, n)
    if pre is not None:
        t = np.concatenate(([pre], t))
        v = np.concatenate(([v0], v))
    if post is not None:
        t = np.concatenate((t, [post]))
        v = np.concatenate((v, [v1]))
    return Waveform(t, v)


def table(up, dn, vdd=1.2):
    """Pulse table for the whole-run readings: no full period (1 s)."""
    return pulse_table(up, dn, vdd=vdd, anchor=0.0, period=1.0)


def pulses(w, vdd=1.2):
    """The table's (2, k) row of w's pulse starts over ends."""
    return table(w, w, vdd).up


def high_time(rows) -> float:
    """Summed pulse durations, added pulse by pulse as frequency_mismatch_test
    adds them."""
    starts, ends = rows
    return sum((ends - starts).tolist())


def trapezoid_pulse(t0=1e-9, rise=1e-10, width=3e-10, fall=1e-10, vhi=1.2, t_end=3e-9):
    ts = [0.0, t0, t0 + rise, t0 + rise + width, t0 + rise + width + fall, t_end]
    vs = [0.0, 0.0, vhi, vhi, 0.0, 0.0]
    return Waveform(np.array(ts), np.array(vs))


def ref_period_count(up, anchor, period):
    """The loop that pulse_table counted its full periods with, one pass
    per period: the reference for the closed form."""
    t_end = up.t[-1] + 1e-15 * period
    n = 0
    while anchor + (n + 1) * period <= t_end:
        n += 1
    return n


@st.composite
def period_counts(draw):
    """A time axis of 1 to 60 samples, steps of 0.001 to 5 units of 10 ps;
    an anchor before, at, between or after its samples; and a period from
    a thousandth of the mean step to 40 of them."""
    n = draw(st.integers(min_value=1, max_value=60))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=n - 1,
                          max_size=n - 1))
    t = np.cumsum([0.0] + steps) * 1e-11
    mean_step = t[-1] / (n - 1) if n > 1 else 1e-11
    span = t[-1] + mean_step
    anchor = draw(st.one_of(st.sampled_from(t.tolist()),
                            st.floats(min_value=-1.0, max_value=2.0).map(lambda f: f * span)))
    period = mean_step * draw(st.floats(min_value=1e-3, max_value=40.0))
    return Waveform(t, np.zeros(n)), anchor, period


class TestPulseTablePeriods:
    @pytest.mark.parametrize("anchor, period", [
        (0.0, 0.0), (0.0, -1e-10), (0.0, math.inf), (0.0, math.nan),
        (-math.inf, 1e-9), (math.inf, 1e-9), (math.nan, 1e-9),
    ], ids=["period-0", "period-negative", "period-inf", "period-nan",
            "anchor--inf", "anchor-inf", "anchor-nan"])
    def test_malformed_period_or_anchor_refused(self, anchor, period):
        """Refused before the periods are counted: a zero, negative or
        infinite period and an anchor of -inf never stopped counting, and a
        NaN or an anchor of +inf counted no period."""
        w = trapezoid_pulse()
        message = (f"need a finite period > 0 and a finite anchor, "
                   f"got period = {period!r} s, anchor = {anchor!r} s")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pulse_table(w, w, vdd=1.2, anchor=anchor, period=period)

    @settings(max_examples=300, deadline=None)
    @given(run=period_counts())
    # the anchor at the last sample, the period below its float resolution:
    # 206 period starts round to the anchor before one exceeds the run's end
    @example(run=(trapezoid_pulse(), 3e-9, 1e-27))
    def test_count_equals_the_loop(self, run):
        w, anchor, period = run
        tab = pulse_table(w, w, vdd=1.2, anchor=anchor, period=period)
        assert tab.period_peaks.shape == (2, ref_period_count(w, anchor, period))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("period", [1e-30, 5e-324])
    def test_count_too_large_refused_at_once(self, period):
        """3e21 periods, and a quotient past the float range: the loop that
        counted them one at a time never returned."""
        w = trapezoid_pulse()
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f" periods of {re.escape(repr(period))} s "
                                             f"from anchor = 0.0 s, a pulse table too large"):
            pulse_table(w, w, vdd=1.2, anchor=0.0, period=period)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("dn_axis", ["ten-samples", "doubled"])
    def test_up_and_dn_on_different_axes_refused(self, dn_axis):
        """A 10-sample DN raised numpy's IndexError in reduceat, and a DN on
        the doubled axis had its 2.5-2.9 ns pulse read in period 1, giving
        [LeadA, LeadB, Undetermined]."""
        t = np.linspace(0.0, 3e-9, 31)
        up = Waveform(t, np.where((0.15e-9 < t) & (t < 0.45e-9), 1.2, 0.0))
        dn_t = np.linspace(0.0, 3e-9, 10) if dn_axis == "ten-samples" else 2 * t
        dn = Waveform(dn_t, np.where((2.5e-9 <= dn_t) & (dn_t <= 2.9e-9), 1.2, 0.0))
        with pytest.raises(ValueError, match="^UP and DN must be sampled at the same times"):
            pulse_table(up, dn, vdd=1.2, anchor=0.0, period=1e-9)

    @pytest.mark.parametrize("vdd", [math.nan, math.inf, 0.0, -1.2])
    def test_malformed_vdd_refused(self, vdd):
        """Refused before the outputs are scanned: each of these made every
        whole-run and per-period decision of a three-period square wave on
        UP Undetermined."""
        t = np.linspace(0.0, 3e-9, 301)
        up = Waveform(t, 1.2 * ((t % 1e-9) < 0.5e-9))
        dn = Waveform(t, np.zeros_like(t))
        with pytest.raises(ValueError, match=f"^need a finite vdd > 0, got vdd = {vdd!r} V$"):
            pulse_table(up, dn, vdd=vdd, anchor=0.0, period=1e-9)

    @pytest.mark.parametrize("output", ["UP", "DN"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, output, value):
        """One NaN sample gave a pulse ending at NaN, a NaN period peak and
        a silent Undetermined."""
        w = trapezoid_pulse()
        bad = Waveform(w.t, np.where(np.arange(w.t.size) == 2, value, w.v))
        up, dn = (bad, w) if output == "UP" else (w, bad)
        message = f"{output} has a non-finite voltage sample: {value!r} V at t = {float(w.t[2])!r} s"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pulse_table(up, dn, vdd=1.2, anchor=0.0, period=1e-9)

    def test_empty_waveforms_refused(self):
        """No sample to tabulate: numpy's IndexError from the run's end
        (t[-1]) used to escape instead."""
        w = Waveform(np.array([]), np.array([]))
        with pytest.raises(MeasurementError, match="^UP and DN are empty waveforms"):
            pulse_table(w, w, vdd=1.2, anchor=0.0, period=1e-9)


class TestRiseFallTime:
    def test_linear_ramp_80_percent(self):
        w = ramp(0.0, 100e-12, 0.0, 1.0, pre=-10e-12, post=200e-12)
        assert rise_time(w, 0.0, 1.0) == pytest.approx(80e-12, rel=1e-6)

    def test_rc_step_log9(self):
        rc = 1e-9
        t = np.linspace(0, 10e-9, 5000)
        w = Waveform(t, 1.0 - np.exp(-t / rc))
        assert rise_time(w, 0.0, 1.0) == pytest.approx(math.log(9) * rc, rel=0.01)

    def test_flat_waveform_raises(self):
        w = Waveform(np.linspace(0, 1e-9, 50), np.full(50, 0.2))
        with pytest.raises(MeasurementError, match="no qualifying transition"):
            rise_time(w, 0.0, 1.0)

    def test_shift_invariance(self):
        w1 = ramp(0.0, 100e-12, 0.0, 1.0, pre=-10e-12, post=200e-12)
        w2 = Waveform(w1.t + 5e-9, w1.v)
        assert rise_time(w1, 0.0, 1.0) == pytest.approx(rise_time(w2, 0.0, 1.0))

    def test_offset_invariance(self):
        w1 = ramp(0.0, 100e-12, 0.0, 1.0, pre=-10e-12, post=200e-12)
        w2 = Waveform(w1.t, w1.v + 0.3)
        assert rise_time(w2, 0.3, 1.3) == pytest.approx(rise_time(w1, 0.0, 1.0))


class TestDetectPulses:
    def test_constant_low_empty(self):
        w = Waveform(np.linspace(0, 1e-9, 20), np.zeros(20))
        assert pulses(w).shape == (2, 0)

    def test_single_trapezoid(self):
        w = trapezoid_pulse()
        (start,), (end,) = pulses(w)
        assert start == pytest.approx(1e-9 + 0.5e-10, rel=1e-9)
        assert end == pytest.approx(1e-9 + 1e-10 + 3e-10 + 0.5e-10, rel=1e-9)
        assert table(w, w).run_peaks == (1.2, 1.2)

    def test_concatenation_doubles_count(self):
        w = trapezoid_pulse()
        shift = w.t[-1] + 1e-10
        w2 = Waveform(np.concatenate([w.t, w.t + shift]), np.concatenate([w.v, w.v]))
        assert pulses(w2).shape[1] == 2 * pulses(w).shape[1]

    def test_events_disjoint_and_sorted(self):
        t = np.linspace(0, 1, 1001)
        v = np.sin(2 * np.pi * 5 * t)
        starts, ends = pulses(Waveform(t, v), vdd=1.0)
        assert starts.size == 5
        assert np.all(starts < ends) and np.all(ends[:-1] < starts[1:])

    def test_clipped_interval_counts(self):
        w = Waveform(np.linspace(0, 1e-9, 10), np.full(10, 1.0))
        assert pulses(w).tolist() == [[0.0], [1e-9]]

    def test_high_time_sums_durations(self):
        w = trapezoid_pulse()
        assert high_time(pulses(w)) == pytest.approx(4e-10, rel=1e-9)


class TestClassifyDecision:
    def flat(self):
        """Low throughout, on trapezoid_pulse's time axis."""
        return Waveform(trapezoid_pulse().t, np.zeros(6))

    def test_up_pulsing_dn_flat(self):
        assert classify_decision(table(trapezoid_pulse(), self.flat())) == Decision.LEAD_A

    def test_dn_pulsing_up_flat(self):
        assert classify_decision(table(self.flat(), trapezoid_pulse())) == Decision.LEAD_B

    def test_both_flat_undetermined(self):
        assert classify_decision(table(self.flat(), self.flat())) == Decision.UNDETERMINED

    def test_both_pulsing_undetermined(self):
        assert classify_decision(table(trapezoid_pulse(), trapezoid_pulse())) \
            == Decision.UNDETERMINED

    def test_weak_glitch_ignored(self):
        weak = trapezoid_pulse(vhi=0.7)  # crosses 0.6 threshold, below 0.96 peak
        assert classify_decision(table(trapezoid_pulse(), weak)) == Decision.LEAD_A

    def test_antisymmetry(self):
        up, dn = trapezoid_pulse(), self.flat()
        assert classify_decision(table(up, dn)) == Decision.LEAD_A
        assert classify_decision(table(dn, up)) == Decision.LEAD_B
        assert classify_decision(table(up, up)) == Decision.UNDETERMINED


class TestMutualExclusionOverlap:
    def test_flat_low_no_overlap(self):
        w = trapezoid_pulse()
        flat = Waveform(w.t, np.zeros_like(w.v))
        assert mutual_exclusion_overlap(table(w, flat)) == 0.0

    def test_identical_square_waves(self):
        t = np.linspace(0, 4e-9, 4001)
        v = 1.2 * ((t % 1e-9) < 0.5e-9)
        w = Waveform(t, v)
        overlap = mutual_exclusion_overlap(table(w, w))
        assert overlap == pytest.approx(high_time(pulses(w)), rel=1e-9)

    def test_partial_overlap_geometry(self):
        a = trapezoid_pulse(t0=1e-9)
        b = trapezoid_pulse(t0=1.2e-9)
        t = np.union1d(a.t, b.t)  # both are linear between these times
        a, b = (Waveform(t, np.interp(t, w.t, w.v)) for w in (a, b))
        # both above 0.6 V in [1.25, 1.45] ns
        assert mutual_exclusion_overlap(table(a, b)) == pytest.approx(0.2e-9, rel=1e-6)


class TestAveragePower:
    def test_constant_current(self):
        t = np.linspace(0, 1e-8, 100)
        i = Waveform(t, np.full(100, 10e-6))
        assert average_power(i, 1.2, (0, 1e-8)) == pytest.approx(12e-6, rel=1e-12)

    def test_window_additivity(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0, 1e-8, 257)
        i = Waveform(t, rng.uniform(0, 1e-4, 257))
        p_full = average_power(i, 1.2, (t[0], t[-1]))
        p1 = average_power(i, 1.2, (t[0], t[128]))
        p2 = average_power(i, 1.2, (t[128], t[-1]))
        w1 = (t[128] - t[0]) / (t[-1] - t[0])
        assert p_full == pytest.approx(w1 * p1 + (1 - w1) * p2, rel=1e-12)

    def test_needs_no_np_trapezoid(self, monkeypatch):
        """numpy 1.x has no np.trapezoid: the sum is written out, bit-equal
        to it (np.trapz on numpy 1.x)."""
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 1e-8, 257))
        i = Waveform(t, rng.uniform(0, 1e-4, 257))
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        expected = 1.2 * float(trapezoid(i.v, t)) / (t[-1] - t[0])
        monkeypatch.delattr(np, "trapezoid", raising=False)
        assert average_power(i, 1.2, (t[0], t[-1])) == expected

    def test_window_outside_waveform(self):
        i = Waveform(np.linspace(0, 1e-9, 10), np.zeros(10))
        with pytest.raises(MeasurementError, match="outside"):
            average_power(i, 1.2, (0, 2e-9))

    def test_empty_waveform_refused(self):
        """numpy's IndexError from the span's start (t[0]) used to escape."""
        i = Waveform(np.array([]), np.array([]))
        with pytest.raises(MeasurementError, match="^supply waveform is empty"):
            average_power(i, 1.2, (0.0, 1e-9))

    @pytest.mark.parametrize("vdd", [math.nan, math.inf, 0.0, -1.0])
    def test_malformed_vdd_refused(self, vdd):
        """vdd = nan gave nan W, and vdd = -1.0 a negative power."""
        i = Waveform(np.linspace(0, 1e-8, 100), np.full(100, 10e-6))
        with pytest.raises(ValueError, match=f"^need a finite vdd > 0, got vdd = {vdd!r} V$"):
            average_power(i, vdd, (0, 1e-8))

    def test_capacitor_charge_transfer_oracle(self):
        """Supply charging C through a switch: integral i dt = C * VDD."""
        from pfdsim.devices import MosfetParams
        from pfdsim.engine import SimOptions, transient
        from pfdsim.netlist import Capacitor, DcSource, Mosfet, Netlist, PulseSource, PulseSpec

        vdd = 1.2
        cload = 10e-15
        # zero gate capacitance so the supply charge is exactly C * VDD
        pm = MosfetParams(polarity="pmos", vth0=-0.35, kprime=80e-6, lam=0.1,
                          w=1e-6, l=100e-9, cgs=0.0, cgd=0.0)
        net = Netlist()
        net.add_node("0")
        for n in ("vdd", "sw", "out"):
            net.add_node(n)
        net.add(DcSource("VS", plus="vdd", minus="0", volts=vdd))
        # gate starts high (switch off), drops low at 1 ns to charge the cap
        spec = PulseSpec(v_low=vdd, v_high=0.0, delay=1e-9, rise=1e-11,
                         fall=1e-11, width=5e-9, period=10e-9)
        net.add(PulseSource("VG", plus="sw", minus="0", spec=spec))
        net.add(Mosfet("M1", drain="out", gate="sw", source="vdd", params=pm))
        net.add(Capacitor("CL", a="out", b="0", farads=cload))
        res = transient(net, SimOptions(dt=1e-12), 3e-9)
        assert res.voltage("out").at(3e-9) == pytest.approx(vdd, rel=1e-3)
        window = (0.5e-9, 3e-9)
        p = average_power(res.supply_current(), vdd, window)
        expect = vdd * (cload * vdd) / (window[1] - window[0])
        assert p == pytest.approx(expect, rel=0.02)



# --------------------------------------------------------------------------
# The pulse table against the readers it replaced: each of these scanned UP
# and DN again. Kept as the reference for bit-for-bit comparison.
# --------------------------------------------------------------------------

def ref_cross_time(t0, t1, v0, v1, level) -> float:
    """The interpolated crossing, clamped into [t0, t1] as the package
    clamps it: LEVELS draws samples exactly at the threshold."""
    if v1 == v0:
        return float(t0)
    return float(min(max(t0 + (level - v0) * (t1 - t0) / (v1 - v0), t0), t1))


def ref_first_crossing(w, level, start_index=0):
    v = w.v
    for k in range(max(start_index, 1), len(v)):
        if v[k - 1] < level <= v[k]:
            return k, ref_cross_time(w.t[k - 1], w.t[k], v[k - 1], v[k], level)
    return None, None


def ref_rise_time(w, v_low, v_high):
    span = v_high - v_low
    k1, t1 = ref_first_crossing(w, v_low + 0.1 * span)
    if k1 is None:
        raise MeasurementError("first level never crossed")
    k2, t2 = ref_first_crossing(w, v_low + 0.9 * span, start_index=k1)
    if k2 is None:
        raise MeasurementError("second level never crossed")
    return float(t2 - t1)


@dataclass(frozen=True)
class PulseEvent:
    """One pulse as the package once returned it, a record per pulse."""

    start: float
    end: float
    peak: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def ref_detect_pulses(w, threshold):
    v, t = w.v, w.t
    above = v >= threshold
    if not above.any():
        return []
    edges = np.flatnonzero(np.diff(above.astype(np.int8)))
    starts, ends = [], []
    if above[0]:
        starts.append(float(t[0]))
    for k in edges:
        if above[k + 1]:
            starts.append(ref_cross_time(t[k], t[k + 1], v[k], v[k + 1], threshold))
        else:
            ends.append(ref_cross_time(t[k], t[k + 1], v[k], v[k + 1], threshold))
    if above[-1]:
        ends.append(float(t[-1]))
    events = []
    for s, e in zip(starts, ends):
        inside = (t >= s) & (t <= e)
        peak = float(v[inside].max()) if inside.any() else threshold
        events.append(PulseEvent(start=s, end=e, peak=max(peak, threshold)))
    return events


def ref_classify(up, dn, vdd):
    threshold, min_peak = 0.5 * vdd, 0.8 * vdd
    up_real = [ev for ev in ref_detect_pulses(up, threshold) if ev.peak >= min_peak]
    dn_real = [ev for ev in ref_detect_pulses(dn, threshold) if ev.peak >= min_peak]
    if up_real and not dn_real:
        return Decision.LEAD_A
    if dn_real and not up_real:
        return Decision.LEAD_B
    return Decision.UNDETERMINED


def ref_overlap(up, dn, threshold):
    total = 0.0
    dn_events = ref_detect_pulses(dn, threshold)
    for a in ref_detect_pulses(up, threshold):
        for b in dn_events:
            total += max(0.0, min(a.end, b.end) - max(a.start, b.start))
    return float(total)


def ref_high_time(w, threshold):
    return sum(ev.duration for ev in ref_detect_pulses(w, threshold))


def loop_high_time(pulses):
    """The package's high time over a list of events, before the table held
    columns."""
    return sum(ev.duration for ev in pulses)


def loop_overlap(up, dn):
    """The package's overlap over two lists of events, before the table held
    columns: every UP pulse against every DN pulse."""
    total = 0.0
    for a in up:
        for b in dn:
            total += max(0.0, min(a.end, b.end) - max(a.start, b.start))
    return float(total)


def ref_per_period_decisions(up, dn, vdd, t_first, period):
    """Each full period cut out of the run and classified again."""
    out = []
    k = 0
    while t_first + (k + 1) * period <= up.t[-1] + 1e-15 * period:
        m = (up.t >= t_first + k * period) & (up.t < t_first + (k + 1) * period)
        out.append(ref_classify(Waveform(up.t[m], up.v[m]), Waveform(dn.t[m], dn.v[m]), vdd))
        k += 1
    return out


def bits(x: float) -> str:
    return float(x).hex()


def assert_table_matches_reference(up, dn, vdd, anchor, period):
    tab = pulse_table(up, dn, vdd=vdd, anchor=anchor, period=period)
    threshold = 0.5 * vdd
    for rows, run_peak, w in ((tab.up, tab.run_peaks[0], up), (tab.dn, tab.run_peaks[1], dn)):
        ref = ref_detect_pulses(w, threshold)
        assert rows.dtype == np.float64 and rows.shape == (2, len(ref))
        assert [(bits(s), bits(e)) for s, e in rows.T] == \
            [(bits(e.start), bits(e.end)) for e in ref]
        # a run whose highest sample reaches the threshold has a pulse holding it
        assert max((e.peak for e in ref), default=None) == \
            (run_peak if run_peak >= threshold else None)
        assert bits(high_time(rows)) == bits(ref_high_time(w, threshold))
    assert classify_decision(tab) is ref_classify(up, dn, vdd)
    assert per_period_decisions(tab) == ref_per_period_decisions(up, dn, vdd, anchor, period)
    assert bits(mutual_exclusion_overlap(tab)) == bits(ref_overlap(up, dn, threshold))


VDD = 1.2
# physical levels, with samples exactly at the pulse and full-swing
# thresholds (0.5 and 0.8 vdd) and at the 10% and 90% transition levels
LEVELS = st.one_of(st.sampled_from([0.0, 0.1 * VDD, 0.5 * VDD, 0.8 * VDD, 0.9 * VDD, VDD]),
                   st.floats(min_value=-0.2 * VDD, max_value=1.2 * VDD))


@st.composite
def runs(draw):
    """UP and DN on one strictly increasing time axis, in units of 10 ps.
    Steps of up to 5 units leave periods of 0.5 units or more empty, high
    end samples clip pulses, and the anchor and period cut anywhere."""
    n = draw(st.integers(min_value=1, max_value=60))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=n - 1,
                          max_size=n - 1))
    t = np.cumsum([0.0] + steps) * 1e-11
    up = draw(st.lists(LEVELS, min_size=n, max_size=n))
    dn = draw(st.lists(LEVELS, min_size=n, max_size=n))
    anchor = draw(st.floats(min_value=0.0, max_value=1.0)) * t[-1]
    period = draw(st.floats(min_value=0.5, max_value=40.0)) * 1e-11
    return Waveform(t, np.array(up)), Waveform(t, np.array(dn)), anchor, period


# pulse edges on a 10 ps grid, which UP and DN share, or anywhere in 200 ps
EDGES = st.one_of(st.integers(min_value=0, max_value=20).map(lambda k: k * 1e-11),
                  st.floats(min_value=0.0, max_value=2e-10))


@st.composite
def pulse_rows(draw):
    """Up to 15 sorted, disjoint pulses as a (2, k) row of starts over ends;
    a pulse may end where the next starts, or last no time."""
    edges = sorted(draw(st.lists(EDGES, max_size=30)))
    return np.array(edges[:len(edges) // 2 * 2]).reshape(-1, 2).T


def many_overlaps():
    """200 overlapping pairs, where numpy's pairwise sum differs from a
    loop's running sum in the last bits."""
    rng = np.random.default_rng(7)
    up = np.cumsum(rng.uniform(1e-12, 1e-10, 400)).reshape(-1, 2).T
    dn = up + rng.uniform(0.0, 1e-12, up.shape)
    dn[1] = np.minimum(dn[1], np.append(up[0, 1:], np.inf))
    return {"up": up, "dn": dn}


class TestPulseTableReference:
    @settings(max_examples=500, deadline=None)
    @given(run=runs())
    def test_reductions_bit_equal_on_drawn_waveforms(self, run):
        up, dn, anchor, period = run
        assert_table_matches_reference(up, dn, VDD, anchor, period)

    def test_reductions_bit_equal_on_grid_runs(self, grid_runs, zero_offset_run):
        from pfdsim.netlist import input_delays

        for point, result in [*grid_runs.values(), zero_offset_run]:
            anchor = input_delays(point.period, point.offset)[0]
            assert_table_matches_reference(result.voltage("UP"), result.voltage("DN"),
                                           VDD, anchor, point.period)

    @settings(max_examples=500, deadline=None)
    @given(up=pulse_rows(), dn=pulse_rows())
    @example(up=np.array([[0.0, 2e-11], [1e-11, 3e-11]]), dn=np.array([[1e-11], [2e-11]]))
    @example(**many_overlaps())
    def test_overlap_and_high_time_equal_the_loops(self, up, dn):
        """On drawn sorted, disjoint pulses that overlap across the outputs
        and share endpoints: every transient checked above has no overlap,
        so the sum's order is exercised here."""
        tab = PulseTable(VDD, up, dn, (VDD, VDD), np.full((2, 0), -np.inf))
        events = [[PulseEvent(s, e, VDD) for s, e in rows.T.tolist()] for rows in (up, dn)]
        assert bits(mutual_exclusion_overlap(tab)) == bits(loop_overlap(*events))
        for rows, evs in zip((up, dn), events):
            assert bits(high_time(rows)) == bits(loop_high_time(evs))

    @settings(max_examples=500, deadline=None)
    @given(run=runs())
    def test_rise_time_matches_reference(self, run):
        """Same time, or the same failure, including samples exactly at the
        10% and 90% levels (a rising crossing needs v[k-1] < level <= v[k])."""
        for w in run[:2]:
            try:
                expected = bits(ref_rise_time(w, 0.0, VDD))
            except MeasurementError:
                with pytest.raises(MeasurementError):
                    rise_time(w, 0.0, VDD)
            else:
                assert bits(rise_time(w, 0.0, VDD)) == expected


@st.composite
def sample_at_threshold(draw):
    """Three samples on a drawn axis, the middle one exactly at the pulse
    threshold 0.5*vdd: a pulse that starts and ends in one sample, whose
    interpolated start rounding can carry past its end."""
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=2, max_size=2))
    t = np.cumsum([0.0] + steps) * 1e-11
    low = st.floats(min_value=-0.2 * VDD, max_value=0.5 * VDD, exclude_max=True)
    return t, np.array([draw(low), 0.5 * VDD, draw(low)])


class TestCrossings:
    @settings(max_examples=500, deadline=None)
    @given(run=st.one_of(sample_at_threshold(), runs().map(lambda r: (r[0].t, r[0].v))))
    # unclamped, this pulse started 1.6e-27 s after it ended
    @example(run=(np.array([0.0, 1e-11, 2e-11]), np.array([0.19, 0.5 * VDD, 0.0])))
    def test_each_crossing_lies_in_its_interval(self, run):
        """Every interpolated crossing, at the rise-time levels and the
        pulse threshold, lies in the sample interval [t[k-1], t[k]] whose
        flip it marks, so no pulse ends before it starts."""
        t, v = run
        for level in (0.1 * VDD, 0.5 * VDD, 0.9 * VDD):
            k, when = _crossings(t, v, v >= level, level)
            assert np.all(t[k - 1] <= when) and np.all(when <= t[k])
        starts, ends = pulses(Waveform(t, v))
        assert np.all(starts <= ends)
