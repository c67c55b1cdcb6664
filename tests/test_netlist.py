"""Netlist construction and validation, pulse stimuli, and the PFD builder."""

import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdsim.devices import DEFAULT_CONFIG, STANDARD_CORNERS, load_config
from pfdsim.engine import SimOptions, dc_operating_point, transient
from pfdsim.netlist import (
    Capacitor,
    DcSource,
    DesignPoint,
    Mosfet,
    Netlist,
    NetlistError,
    PulseSource,
    PulseSpec,
    Resistor,
    build_nor2,
    build_pfd,
    default_pulse,
)

ROOT = Path(__file__).resolve().parents[1]

CORNER_NETLIST_SHA256 = {
    ("default", "TT"): "90549e675d77744f954bf5ff50823e371cd79033b8ffe722961f6157719bcd2b",
    ("default", "FF"): "94520907bdb3e736449d73088399547c027e1723965cddb54a63698fef39b025",
    ("default", "FS"): "976a67b8b363759eeba26c9a8a225bcf623fb05d0f1842dd7fcc8d45282e1bb3",
    ("default", "SF"): "7b9127f2044ae2f0420d8e404bb09bad16caa46f77a87c61ffb5065b50f2cbd1",
    ("default", "SS"): "51c20b7301b339816c193433eaa483fa07b49631e904ab3b4ae992055be70194",
    ("highspeed", "TT"): "b0c83cfddfb01ba7fe13252a333a9503783c6385511fa1ce47dadc0180a3b862",
    ("highspeed", "FF"): "ed98d18ef3e52998cdb70ed502f5e070e1afff1a86f0f1308ca294a2035a1ef6",
    ("highspeed", "FS"): "584632648ca89a73009f7f4321faf77e0539a73a816af9ad98170736ca176c16",
    ("highspeed", "SF"): "b744c4d560659eeea8d4fe2bac896692962342f47ef201830132000ea78a0ee3",
    ("highspeed", "SS"): "8cc501a40825454b4b90d4aa8e8eb29c27323170a5d1d02943955342562f9b0d",
}

# probes that waves.csv cannot hold, after a probe on node b, and why
BAD_PROBES = pytest.mark.parametrize("node, message", [
    ("0", "probe on the ground node '0'"),
    ("zz", "unknown node 'zz' for a probe"),
    ("b", "duplicate probe 'b'"),
], ids=["ground", "unknown", "repeat"])

NM = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9)
PM = DEFAULT_CONFIG.mosfet("pmos", 260e-9, 100e-9)


def simple_net() -> Netlist:
    net = Netlist()
    net.add_node("0")
    net.add_node("a")
    net.add_node("b")
    net.add(DcSource("V1", plus="a", minus="0", volts=1.0))
    net.add(Resistor("R1", a="a", b="b", ohms=1e3))
    net.add(Resistor("R2", a="b", b="0", ohms=1e3))
    return net


class TestConstruction:
    def test_add_appends(self):
        net = simple_net()
        n = len(net.devices)
        net.add(Resistor("R3", a="a", b="0", ohms=10.0))
        assert len(net.devices) == n + 1

    def test_unknown_node_rejected(self):
        net = simple_net()
        with pytest.raises(NetlistError, match="unknown node"):
            net.add(Resistor("R9", a="a", b="zz", ohms=1.0))

    def test_probe_on_unknown_node_rejected(self):
        net = simple_net()
        with pytest.raises(NetlistError, match=r"^unknown node 'zz' for a probe$"):
            net.add_probe("zz")
        assert net.probes == []

    @BAD_PROBES
    def test_probe_waves_csv_cannot_hold_rejected(self, node, message):
        """Ground and an unknown node have no voltage column, so to_csv
        failed after the whole run; a repeat wrote its column twice."""
        net = simple_net()
        net.add_probe("b")
        with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
            net.add_probe(node)
        assert net.probes == ["b"]

    def test_duplicate_device_rejected(self):
        net = simple_net()
        with pytest.raises(NetlistError, match="duplicate identifier"):
            net.add(Resistor("R1", a="a", b="b", ohms=1.0))

    def test_duplicate_node_rejected(self):
        net = simple_net()
        with pytest.raises(NetlistError, match="duplicate identifier"):
            net.add_node("a")


class TestValidate:
    def test_valid_netlist_has_no_violations(self):
        assert simple_net().validate() == []

    @BAD_PROBES
    def test_probe_waves_csv_cannot_hold_refused_before_solving(self, node, message,
                                                                monkeypatch):
        """A probe put in `probes` past add_probe is reported, so transient
        refuses the netlist before anything is solved."""
        import pfdsim.engine as engine

        def no_solve(*args):
            raise AssertionError("solved")

        net = simple_net()
        net.probes += ["b", node]
        assert net.validate() == [message]
        monkeypatch.setattr(engine, "_dc_solve", no_solve)
        with pytest.raises(NetlistError, match=f"^invalid netlist: {re.escape(message)}$"):
            transient(net, SimOptions(dt=1e-12), 1e-9)

    def test_no_ground(self):
        net = Netlist(ground="gnd")
        net.add_node("a")
        out = net.validate()
        assert any("no ground" in v for v in out)

    def test_floating_gate_reported(self):
        net = simple_net()
        net.add_node("g")
        net.add_node("d")
        net.add(Mosfet("M1", drain="d", gate="g", source="0", params=NM))
        net.add(Resistor("RD", a="d", b="a", ohms=1e3))
        out = net.validate()
        assert any("floating gate" in v and "'g'" in v for v in out)

    def test_gate_tied_through_resistor_is_driven(self):
        net = simple_net()
        net.add_node("g")
        net.add_node("d")
        net.add(Mosfet("M1", drain="d", gate="g", source="0", params=NM))
        net.add(Resistor("RD", a="d", b="a", ohms=1e3))
        net.add(Resistor("RG", a="g", b="a", ohms=1e3))
        assert net.validate() == []

    def test_disconnected_island_reported(self):
        net = simple_net()
        net.add_node("p")
        net.add_node("q")
        net.add(Resistor("RX", a="p", b="q", ohms=1.0))
        out = net.validate()
        assert any("not reachable" in v for v in out)

    def test_nonpositive_values_reported(self):
        net = simple_net()
        net.devices.append(Resistor("RBAD", a="a", b="0", ohms=0.0))
        net.devices.append(Capacitor("CBAD", a="a", b="0", farads=-1e-15))
        out = net.validate()
        assert any("RBAD" in v for v in out)
        assert any("CBAD" in v for v in out)


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_resistor_reported(self, value):
        net = simple_net()
        net.devices.append(Resistor("RBAD", a="a", b="0", ohms=value))
        assert any("RBAD" in v and "finite ohms" in v for v in net.validate())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_capacitor_reported(self, value):
        net = simple_net()
        net.devices.append(Capacitor("CBAD", a="a", b="0", farads=value))
        assert any("CBAD" in v and "finite farads" in v for v in net.validate())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_dc_source_refused(self, value):
        """Such a source passed validate() and ended in 'DC operating point
        did not converge'; it is now refused before anything is solved."""
        net = simple_net()
        net.add(DcSource("VBAD", plus="b", minus="0", volts=value))
        assert net.validate() == ["source 'VBAD' must have finite volts"]
        message = "^invalid netlist: source 'VBAD' must have finite volts$"
        with pytest.raises(NetlistError, match=message):
            transient(net, SimOptions(dt=1e-12), 1e-9)
        with pytest.raises(NetlistError, match=message):
            dc_operating_point(net)


    @pytest.mark.parametrize("device,kind", [
        (DcSource("VBAD", plus="a", minus="a", volts=1.0), "source"),
        (PulseSource("VBAD", plus="b", minus="b", spec=default_pulse(1e9, 1.0, 0.0)),
         "pulse source"),
        (Resistor("RBAD", a="a", b="a", ohms=1e3), "resistor"),
        (Capacitor("CBAD", a="0", b="0", farads=1e-15), "capacitor"),
    ], ids=["dc_source", "pulse_source", "resistor", "capacitor"])
    def test_branch_from_a_node_to_itself_reported(self, device, kind):
        """A shorted source used to end in 'DC operating point did not
        converge'; a shorted resistor or capacitor was accepted silently."""
        net = simple_net()
        net.add(device)
        out = net.validate()
        assert f"{kind} {device.name!r} connects node {device.nodes[0]!r} to itself" in out
        with pytest.raises(NetlistError, match=f"invalid netlist: .*{device.name}"):
            dc_operating_point(net)


@st.composite
def valid_pulse_specs(draw):
    """Valid PulseSpecs: edges and width over six decades, period just above
    to 20x their sum, delay from -2 to 5 periods."""
    scale = 10.0 ** draw(st.integers(-13, -7))
    rise, fall, width = (scale * draw(st.floats(1e-3, 1.0)) for _ in range(3))
    period = (rise + width + fall) * draw(st.floats(1.0001, 20.0))
    level = st.floats(-5.0, 5.0, allow_subnormal=False)
    return PulseSpec(v_low=draw(level), v_high=draw(level),
                     delay=period * draw(st.floats(-2.0, 5.0)), rise=rise, fall=fall,
                     width=width, period=period)


@st.composite
def pulse_times(draw, spec):
    """Times that reach every branch of `value`: breakpoints and their
    neighbouring floats, times before the delay, exact multiples of the
    period (from 0 and from the delay), and times many periods out."""
    p, d = spec.period, spec.delay
    corners = spec.breakpoints(d + 2 * p).tolist() or [max(d, 0.0)]
    periods = st.integers(0, 10**6)
    near = st.sampled_from([-math.inf, 0.0, math.inf])
    kinds = st.one_of(
        st.tuples(st.sampled_from(corners), near).map(lambda c: float(np.nextafter(*c))),
        st.tuples(st.sampled_from(corners), periods).map(lambda c: c[0] + c[1] * p),
        st.floats(d - 10 * p, d),
        periods.map(lambda k: k * p),
        periods.map(lambda k: d + k * p),
        st.floats(0.0, 1e6 * p),
    )
    return draw(st.lists(kinds, min_size=1, max_size=40))


class TestPulseSpec:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_values_bit_equal_to_value(self, data):
        """The vectorised `values` gives every time the float `value` gives it:
        `np.remainder` computes Python's float `%`."""
        spec = data.draw(valid_pulse_specs())
        times = data.draw(pulse_times(spec))
        scalar = np.fromiter(map(spec.value, times), float, len(times))
        assert spec.values(np.array(times)).tobytes() == scalar.tobytes()

    def test_value_profile(self):
        s = PulseSpec(v_low=0.0, v_high=1.0, delay=1e-9, rise=1e-10,
                      fall=1e-10, width=3e-10, period=1e-9)
        assert s.value(0.0) == 0.0
        assert s.value(1e-9) == 0.0
        assert s.value(1e-9 + 0.5e-10) == pytest.approx(0.5)
        assert s.value(1e-9 + 2e-10) == 1.0
        assert s.value(1e-9 + 4.5e-10) == pytest.approx(0.5)
        assert s.value(1e-9 + 0.9e-9) == 0.0
        # periodic repeat
        assert s.value(2e-9 + 2e-10) == 1.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            PulseSpec(0, 1, 0, rise=0.0, fall=1e-10, width=1e-10, period=1e-9)
        with pytest.raises(ValueError):
            PulseSpec(0, 1, 0, rise=5e-10, fall=5e-10, width=5e-10, period=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["v_low", "v_high", "delay", "rise", "fall", "width",
                                       "period"])
    def test_nonfinite_value_rejected(self, field, value):
        """A NaN period passed the old `<=` checks and `breakpoints` never
        returned; every field must now be finite."""
        values = dict(v_low=0.0, v_high=1.0, delay=1e-10, rise=1e-11, fall=1e-11,
                      width=4e-10, period=1e-9)
        with pytest.raises(ValueError, match=f"pulse {field} must be finite"):
            PulseSpec(**{**values, field: value})

    def test_default_pulse_rejects_nan_frequency(self):
        with pytest.raises(ValueError, match="pulse rise must be finite"):
            default_pulse(math.nan, 1.2, 0.0)

    def test_breakpoints_cover_corners(self):
        s = PulseSpec(v_low=0.0, v_high=1.0, delay=2e-10, rise=1e-10,
                      fall=1e-10, width=3e-10, period=1e-9)
        bps = s.breakpoints(1e-9)
        assert isinstance(bps, np.ndarray)
        assert np.abs(bps - [2e-10, 3e-10, 6e-10, 7e-10]).max() < 1e-18


class TestNor2:
    def test_four_fets_and_internal_node(self):
        """build_nor2 adds its internal node, then its four FETs, to the
        netlist: the in1 PMOS from VDD to the internal node first."""
        net = Netlist()
        for n in ("0", "VDD", "i1", "i2", "o"):
            net.add_node(n)
        build_nor2(net, "N1", out="o", in1="i1", in2="i2", p_params=PM, n_params=NM)
        assert net.nodes[-1] == "N1.m"
        assert [d.name for d in net.devices] == ["N1.p1", "N1.p2", "N1.n1", "N1.n2"]
        assert [d.params.polarity for d in net.devices] == ["pmos", "pmos", "nmos", "nmos"]
        assert net.devices[0].nodes == ("N1.m", "i1", "VDD")


class TestBuildPfd:
    def test_device_counts(self):
        net = build_pfd()
        fets = [d for d in net.devices if isinstance(d, Mosfet)]
        pulses = [d for d in net.devices if isinstance(d, PulseSource)]
        dcs = [d for d in net.devices if isinstance(d, DcSource)]
        caps = [d for d in net.devices if isinstance(d, Capacitor)]
        assert len(fets) == 16
        assert len(pulses) == 2
        assert len(dcs) == 1
        assert len(caps) == 4  # 2 output loads + 2 internal storage nodes

    def test_counts_stable_across_arguments(self):
        for w in (120e-9, 310e-9):
            net = build_pfd(DesignPoint(width=w, frequency=2.5e9, offset=50e-12))
            assert len([d for d in net.devices if isinstance(d, Mosfet)]) == 16

    def test_validates_clean(self):
        assert build_pfd().validate() == []
        assert build_pfd(DesignPoint(offset=-100e-12)).validate() == []

    def test_deterministic_construction(self):
        a = build_pfd(DesignPoint(width=200e-9, offset=25e-12))
        b = build_pfd(DesignPoint(width=200e-9, offset=25e-12))
        assert a == b

    def test_probe_aliases(self):
        """Probes are node names, in the column order of waves.csv."""
        net = build_pfd()
        assert net.probes == ["A", "B", "X", "Y", "UP", "DN"]

    def test_corner_changes_parameters_only(self):
        tt = build_pfd()
        ff = build_pfd(DesignPoint(corner="FF"))
        assert [d.name for d in tt.devices] == [d.name for d in ff.devices]
        assert tt.nodes == ff.nodes
        m_tt = {d.name: d for d in tt.devices if isinstance(d, Mosfet)}
        m_ff = {d.name: d for d in ff.devices if isinstance(d, Mosfet)}
        for name, d in m_tt.items():
            assert m_ff[name].nodes == d.nodes
            assert m_ff[name].params.vth0 != d.params.vth0
            assert m_ff[name].params.w == d.params.w

    @pytest.mark.parametrize("corner", STANDARD_CORNERS)
    @pytest.mark.parametrize("calibration", ["default", "highspeed"])
    def test_corner_netlist_text_unchanged(self, calibration, corner):
        """The PFD at each corner, under the built-in and the shipped
        calibration, is exactly the recorded netlist (SHA-256 of its
        dataclass `repr`, which prints every node, device and parameter),
        recorded with Y's precharge stack mirroring X's and the probes as
        a list of node names."""
        models = (DEFAULT_CONFIG if calibration == "default"
                  else load_config(ROOT / "calibrations" / "highspeed.params"))
        text = repr(build_pfd(DesignPoint(corner=corner), models=models))
        # a numpy scalar field would print differently under numpy 1 and 2
        assert "np." not in text
        assert hashlib.sha256(text.encode()).hexdigest() == CORNER_NETLIST_SHA256[
            calibration, corner]

    def test_offset_moves_only_b_delay(self):
        net0 = build_pfd(DesignPoint(offset=0.0))
        net1 = build_pfd(DesignPoint(offset=100e-12))
        sa0, sb0 = (d.spec for d in net0.devices if isinstance(d, PulseSource))
        sa1, sb1 = (d.spec for d in net1.devices if isinstance(d, PulseSource))
        assert sa0 == sa1
        assert sb1.delay - sb0.delay == pytest.approx(100e-12)
        assert (sb1.rise, sb1.width, sb1.period) == (sb0.rise, sb0.width, sb0.period)

    def test_negative_offset_moves_a(self):
        net = build_pfd(DesignPoint(offset=-80e-12))
        sa, sb = (d.spec for d in net.devices if isinstance(d, PulseSource))
        assert sa.delay - sb.delay == pytest.approx(80e-12)


def positive(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@st.composite
def pulse_specs(draw):
    """A stimulus and a stop time, both in periods of a drawn length."""
    period = draw(positive(1e-12, 1e-6))
    spec = PulseSpec(v_low=0.0, v_high=1.0, delay=draw(positive(0.0, 3.0)) * period,
                     rise=draw(positive(1e-3, 0.3)) * period,
                     fall=draw(positive(1e-3, 0.3)) * period,
                     width=draw(positive(0.0, 0.3)) * period, period=period)
    return spec, draw(positive(0.0, 8.0)) * period


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(drawn=pulse_specs())
    def test_breakpoints_one_per_corner(self, drawn):
        spec, t_stop = drawn
        bps = spec.breakpoints(t_stop).tolist()
        assert bps == sorted(bps)
        assert all(0.0 <= t <= t_stop for t in bps)
        corners = (0.0, spec.rise, spec.rise + spec.width, spec.rise + spec.width + spec.fall)
        every = [spec.delay + k * spec.period + c
                 for k in range(int(t_stop / spec.period) + 2) for c in corners]
        assert bps == [t for t in every if 0.0 <= t <= t_stop]

    @settings(max_examples=100, deadline=None)
    @given(frequency=positive(1e8, 2e10), fraction=st.floats(min_value=0.0, max_value=0.99),
           width=positive(50e-9, 2e-6))
    def test_negative_offset_swaps_the_inputs(self, frequency, fraction, width):
        offset = fraction / frequency
        pos = build_pfd(DesignPoint(width=width, frequency=frequency, offset=offset))
        neg = build_pfd(DesignPoint(width=width, frequency=frequency, offset=-offset))
        spec = {d.name: d.spec for d in pos.devices if isinstance(d, PulseSource)}
        other = {"VA": "VB", "VB": "VA"}
        swapped = [replace(d, spec=spec[other[d.name]]) if d.name in other else d
                   for d in pos.devices]
        assert neg == Netlist(pos.ground, pos.nodes, swapped, pos.probes)
