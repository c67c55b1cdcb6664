"""Measurement routines checked against closed-form waveforms."""

import math

import numpy as np
import pytest

from pfdsim.engine import Waveform
from pfdsim.measure import (
    Decision,
    MeasurementError,
    average_power,
    classify_decision,
    detect_pulses,
    fall_time,
    high_time,
    mutual_exclusion_overlap,
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


def trapezoid_pulse(t0=1e-9, rise=1e-10, width=3e-10, fall=1e-10, vhi=1.2, t_end=3e-9):
    ts = [0.0, t0, t0 + rise, t0 + rise + width, t0 + rise + width + fall, t_end]
    vs = [0.0, 0.0, vhi, vhi, 0.0, 0.0]
    return Waveform(np.array(ts), np.array(vs))


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

    def test_fall_time_mirror(self):
        w = ramp(0.0, 100e-12, 1.0, 0.0, pre=-10e-12, post=200e-12)
        assert fall_time(w, 0.0, 1.0) == pytest.approx(80e-12, rel=1e-6)

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
        assert detect_pulses(w, 0.6) == []

    def test_single_trapezoid(self):
        w = trapezoid_pulse()
        events = detect_pulses(w, 0.6)
        assert len(events) == 1
        ev = events[0]
        assert ev.start == pytest.approx(1e-9 + 0.5e-10, rel=1e-9)
        assert ev.end == pytest.approx(1e-9 + 1e-10 + 3e-10 + 0.5e-10, rel=1e-9)
        assert ev.peak == 1.2

    def test_concatenation_doubles_count(self):
        w = trapezoid_pulse()
        shift = w.t[-1] + 1e-10
        w2 = Waveform(np.concatenate([w.t, w.t + shift]), np.concatenate([w.v, w.v]))
        assert len(detect_pulses(w2, 0.6)) == 2 * len(detect_pulses(w, 0.6))

    def test_events_disjoint_and_sorted(self):
        t = np.linspace(0, 1, 1001)
        v = np.sin(2 * np.pi * 5 * t)
        events = detect_pulses(Waveform(t, v), 0.5)
        assert len(events) == 5
        for a, b in zip(events, events[1:]):
            assert a.end < b.start

    def test_clipped_interval_counts(self):
        w = Waveform(np.linspace(0, 1e-9, 10), np.full(10, 1.0))
        events = detect_pulses(w, 0.6)
        assert len(events) == 1
        assert events[0].start == 0.0 and events[0].end == 1e-9

    def test_high_time_sums_durations(self):
        w = trapezoid_pulse()
        assert high_time(w, 0.6) == pytest.approx(4e-10, rel=1e-9)


class TestClassifyDecision:
    def flat(self):
        return Waveform(np.linspace(0, 1e-9, 50), np.zeros(50))

    def test_up_pulsing_dn_flat(self):
        assert classify_decision(trapezoid_pulse(), self.flat(), vdd=1.2) == Decision.LEAD_A

    def test_dn_pulsing_up_flat(self):
        assert classify_decision(self.flat(), trapezoid_pulse(), vdd=1.2) == Decision.LEAD_B

    def test_both_flat_undetermined(self):
        assert classify_decision(self.flat(), self.flat(), vdd=1.2) == Decision.UNDETERMINED

    def test_both_pulsing_undetermined(self):
        assert classify_decision(trapezoid_pulse(), trapezoid_pulse(), vdd=1.2) \
            == Decision.UNDETERMINED

    def test_weak_glitch_ignored(self):
        weak = trapezoid_pulse(vhi=0.7)  # crosses 0.6 threshold, below 0.96 peak
        assert classify_decision(trapezoid_pulse(), weak, vdd=1.2) == Decision.LEAD_A

    def test_antisymmetry(self):
        up, dn = trapezoid_pulse(), self.flat()
        assert classify_decision(up, dn, vdd=1.2) == Decision.LEAD_A
        assert classify_decision(dn, up, vdd=1.2) == Decision.LEAD_B
        assert classify_decision(up, up, vdd=1.2) == Decision.UNDETERMINED


class TestMutualExclusionOverlap:
    def test_flat_low_no_overlap(self):
        w = trapezoid_pulse()
        flat = Waveform(w.t, np.zeros_like(w.v))
        assert mutual_exclusion_overlap(w, flat, 0.6) == 0.0

    def test_identical_square_waves(self):
        t = np.linspace(0, 4e-9, 4001)
        v = 1.2 * ((t % 1e-9) < 0.5e-9)
        w = Waveform(t, v)
        overlap = mutual_exclusion_overlap(w, w, 0.6)
        assert overlap == pytest.approx(high_time(w, 0.6), rel=1e-9)

    def test_partial_overlap_geometry(self):
        a = trapezoid_pulse(t0=1e-9)
        b = trapezoid_pulse(t0=1.2e-9)
        # both above 0.6 V in [1.25, 1.45] ns
        assert mutual_exclusion_overlap(a, b, 0.6) == pytest.approx(0.2e-9, rel=1e-6)


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

    def test_window_outside_waveform(self):
        i = Waveform(np.linspace(0, 1e-9, 10), np.zeros(10))
        with pytest.raises(MeasurementError, match="outside"):
            average_power(i, 1.2, (0, 2e-9))

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
        res = transient(net, SimOptions(dt=1e-12, t_stop=3e-9))
        assert res.voltage("out").at(3e-9) == pytest.approx(vdd, rel=1e-3)
        window = (0.5e-9, 3e-9)
        p = average_power(res.supply_current(), vdd, window)
        expect = vdd * (cload * vdd) / (window[1] - window[0])
        assert p == pytest.approx(expect, rel=0.02)

