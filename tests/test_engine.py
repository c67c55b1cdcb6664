"""Solver validation against independent oracles.

DC points are checked against hand-solved or bisected equations, the
transient integrator against the analytic RC step response, and the
companion models against charge-conservation and convergence-order
properties.
"""

import copy
import functools
import math
import re
import warnings
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pfdsim.devices import DEFAULT_CONFIG, MosfetParams
from pfdsim.engine import (
    SimOptions,
    SolverError,
    _Kernel,
    dc_operating_point,
    kcl_residual_ratio,
    transient,
)
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
    build_pfd,
)
from pfdsim.measure import average_power


def step_source(name: str, node: str, v: float, at: float = 0.0) -> PulseSource:
    """Near-ideal step: 1 fs rise, effectively flat-high afterwards."""
    spec = PulseSpec(v_low=0.0, v_high=v, delay=at, rise=1e-15, fall=1e-15,
                     width=1.0, period=3.0)
    return PulseSource(name, plus=node, minus="0", spec=spec)


def rc_lowpass(r=1e3, c=1e-12) -> Netlist:
    net = Netlist()
    net.add_node("0")
    net.add_node("in")
    net.add_node("out")
    net.add(step_source("VIN", "in", 1.0))
    net.add(Resistor("R1", a="in", b="out", ohms=r))
    net.add(Capacitor("C1", a="out", b="0", farads=c))
    net.add_probe("out")
    return net


def floating_stack():
    """Series cutoff devices leave an internal node on gmin only."""
    nm = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9)
    net = Netlist()
    net.add_node("0")
    for n in ("VDD", "mid"):
        net.add_node(n)
    net.add(DcSource("VS", plus="VDD", minus="0", volts=1.2))
    net.add(Mosfet("M1", drain="mid", gate="0", source="VDD", params=nm))
    net.add(Mosfet("M2", drain="mid", gate="0", source="0", params=nm))
    return net


class TestDcOperatingPoint:
    def test_resistor_divider(self):
        net = Netlist()
        net.add_node("0")
        net.add_node("top")
        net.add_node("mid")
        net.add(DcSource("V1", plus="top", minus="0", volts=1.2))
        net.add(Resistor("R1", a="top", b="mid", ohms=10e3))
        net.add(Resistor("R2", a="mid", b="0", ohms=10e3))
        v = dc_operating_point(net)
        assert abs(v["mid"] - 0.6) <= 1e-6

    def test_diode_connected_fet_matches_bisection_oracle(self):
        """Gate tied to drain through 10k from 1.2 V; lambda = 0.

        Oracle: bisect 0.5*k'*(w/l)*(v - vth)^2 = (1.2 - v)/10k on [vth, 1.2].
        """
        params = MosfetParams(polarity="nmos", vth0=0.35, kprime=200e-6,
                              lam=0.0, w=260e-9, l=100e-9)

        def imbalance(v):
            return 0.5 * 200e-6 * 2.6 * (v - 0.35) ** 2 - (1.2 - v) / 10e3

        lo, hi = 0.35, 1.2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if imbalance(mid) > 0:
                hi = mid
            else:
                lo = mid
        v_oracle = 0.5 * (lo + hi)
        assert v_oracle == pytest.approx(0.7609379669, abs=1e-9)

        net = Netlist()
        net.add_node("0")
        net.add_node("vdd")
        net.add_node("d")
        net.add(DcSource("V1", plus="vdd", minus="0", volts=1.2))
        net.add(Resistor("R1", a="vdd", b="d", ohms=10e3))
        net.add(Mosfet("M1", drain="d", gate="d", source="0", params=params))
        v = dc_operating_point(net)
        assert abs(v["d"] - v_oracle) <= 1e-3

    def test_pfd_precharged_state(self):
        """A = B = 0 at t = 0: internal sense nodes high, outputs low."""
        net = build_pfd()
        v = dc_operating_point(net)
        vdd = DEFAULT_CONFIG.vdd
        assert v["X"] > 0.95 * vdd
        assert v["Y"] > 0.95 * vdd
        assert abs(v["UP"]) < 0.05 * vdd
        assert abs(v["DN"]) < 0.05 * vdd

    def test_nor_truth_table(self):
        """DC sweep of the NOR subcircuit through all four input states."""
        from pfdsim.netlist import build_nor2

        vdd = DEFAULT_CONFIG.vdd
        pm = DEFAULT_CONFIG.mosfet("pmos", 260e-9, 100e-9)
        nm = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9)
        for a, b, expect_high in [(0, 0, True), (0, 1, False), (1, 0, False), (1, 1, False)]:
            net = Netlist()
            net.add_node("0")
            for n in ("VDD", "i1", "i2", "o"):
                net.add_node(n)
            net.add(DcSource("VS", plus="VDD", minus="0", volts=vdd))
            net.add(DcSource("VI1", plus="i1", minus="0", volts=a * vdd))
            net.add(DcSource("VI2", plus="i2", minus="0", volts=b * vdd))
            build_nor2(net, "N1", out="o", in1="i1", in2="i2", p_params=pm, n_params=nm)
            v = dc_operating_point(net)
            if expect_high:
                assert v["o"] > 0.9 * vdd, (a, b, v["o"])
            else:
                assert v["o"] < 0.1 * vdd, (a, b, v["o"])

    def test_gmin_stepping_recovers_floating_stack(self, monkeypatch):
        """Without gmin the floating node's Jacobian row is zero at the zero
        state, so plain Newton fails and the gmin ladder finds the point: one
        Newton call per ladder pass after the failed one, the last accepted."""
        import pfdsim.engine as engine

        calls = []
        newton = _Kernel.newton

        def recorded(k, p, x0, ev0=None, iters=None):
            out = newton(k, p, x0, ev0, iters)
            calls.append((iters, out[1]))
            return out

        monkeypatch.setattr(_Kernel, "newton", recorded)
        monkeypatch.setattr(engine, "_GMIN", 0.0)
        v = dc_operating_point(floating_stack())
        assert math.isfinite(v["mid"])
        assert calls[1] == (None, False)  # plain Newton from the zero state
        assert len(calls) > 3 and calls[-1] == (None, True)


class TestTransientRc:
    def test_step_response_matches_analytic(self):
        res = transient(rc_lowpass(), SimOptions(dt=10e-12), 1e-9)
        out = res.voltage("out")
        assert out.at(1e-9) == pytest.approx(1 - math.exp(-1), rel=0.01)
        analytic = 1.0 - np.exp(-np.clip(out.t - 1e-15, 0, None) / 1e-9)
        assert np.max(np.abs(out.v - analytic)) < 0.01

    def test_backward_euler_also_tracks(self):
        opt = SimOptions(dt=5e-12, integrator="backward_euler")
        res = transient(rc_lowpass(), opt, 1e-9)
        assert res.voltage("out").at(1e-9) == pytest.approx(1 - math.exp(-1), rel=0.02)

    @pytest.mark.parametrize("integrator,min_ratio", [
        ("backward_euler", 1.8),
        ("trapezoidal", 3.5),
    ])
    def test_halving_dt_shrinks_error_by_integrator_order(self, integrator, min_ratio):
        def max_err(dt):
            res = transient(rc_lowpass(), SimOptions(dt=dt, integrator=integrator), 2e-9)
            out = res.voltage("out")
            keep = out.t > 1e-14
            analytic = 1.0 - np.exp(-(out.t[keep] - 1e-15) / 1e-9)
            return np.max(np.abs(out.v[keep] - analytic))

        assert max_err(40e-12) / max_err(20e-12) >= min_ratio

    def test_quiescent_capacitor_stays_at_zero(self):
        net = Netlist()
        net.add_node("0")
        net.add_node("a")
        net.add(Capacitor("C1", a="a", b="0", farads=1e-12))
        res = transient(net, SimOptions(dt=1e-11), 1e-9)
        assert np.all(res.voltage("a").v == 0.0)

    def test_charge_conservation_in_redistribution(self):
        """Two 1 pF caps through 1 kohm; closed system keeps total charge."""
        net = Netlist()
        net.add_node("0")
        net.add_node("a")
        net.add_node("b")
        net.add(Capacitor("C1", a="a", b="0", farads=1e-12))
        net.add(Resistor("R1", a="a", b="b", ohms=1e3))
        net.add(Capacitor("C2", a="b", b="0", farads=1e-12))
        res = transient(net, SimOptions(dt=5e-12), 5e-9, initial_voltages={"a": 1.0, "b": 0.0})
        va = res.voltage("a").v
        vb = res.voltage("b").v
        q = 1e-12 * va + 1e-12 * vb
        assert np.max(np.abs(q - q[0])) <= 1e-4 * q[0]
        # analytic endpoint: equal split
        assert va[-1] == pytest.approx(0.5, rel=1e-3)
        assert vb[-1] == pytest.approx(0.5, rel=1e-3)


class TestSupplyCurrent:
    def test_resistive_load_ohms_law(self):
        net = Netlist()
        net.add_node("0")
        net.add_node("vdd")
        net.add_node("mid")
        net.add(DcSource("VS", plus="vdd", minus="0", volts=1.2))
        net.add(Resistor("R1", a="vdd", b="mid", ohms=600.0))
        net.add(Resistor("R2", a="mid", b="0", ohms=600.0))
        res = transient(net, SimOptions(dt=1e-12), 1e-10)
        i = res.supply_current()
        assert np.allclose(i.v, 1e-3, rtol=1e-6)

    def test_error_without_supply(self):
        res = transient(rc_lowpass(), SimOptions(dt=1e-11), 1e-10)
        with pytest.raises(KeyError, match="no supply source"):
            res.supply_current()


LEAD_A_T_STOP = 3.25e-9


@pytest.fixture(scope="module")
def lead_a_run():
    net = build_pfd(DesignPoint(offset=100e-12))
    opt = SimOptions()
    return net, opt, transient(net, opt, LEAD_A_T_STOP)


class TestPfdTransient:

    def test_up_pulses_dn_quiet(self, lead_a_run):
        _, _, res = lead_a_run
        vdd = DEFAULT_CONFIG.vdd
        up = res.voltage("UP")
        dn = res.voltage("DN")
        assert np.max(up.v) > 0.9 * vdd
        assert np.max(dn.v) < 0.35 * vdd

    def test_kcl_residuals_within_tolerance(self, lead_a_run):
        net, opt, res = lead_a_run
        assert kcl_residual_ratio(net, res, opt) <= 1.0

    def test_deterministic_rerun_bit_identical(self, lead_a_run):
        net, opt, res = lead_a_run
        res2 = transient(net, opt, LEAD_A_T_STOP)
        assert np.array_equal(res.time, res2.time)
        assert np.array_equal(res.voltages, res2.voltages)
        assert np.array_equal(res.branch_currents, res2.branch_currents)

    def test_time_shift_equivariance(self, lead_a_run):
        """Delaying both inputs by k*dt shifts the response exactly."""
        net, opt, res = lead_a_run
        delta = 40e-12  # 80 grid steps at the default 0.5 ps
        shifted = Netlist(ground=net.ground, nodes=list(net.nodes),
                          probes=list(net.probes))
        for d in net.devices:
            if isinstance(d, PulseSource):
                d = replace(d, spec=replace(d.spec, delay=d.spec.delay + delta))
            shifted.devices.append(d)
        res2 = transient(shifted, opt, LEAD_A_T_STOP + delta)
        up1 = res.voltage("UP")
        up2 = res2.voltage("UP")
        for t in np.arange(0.2e-9, 3.0e-9, 0.05e-9):
            assert up2.at(t + delta) == pytest.approx(up1.at(t), abs=2e-3)

    def test_breakpoints_land_exactly(self, lead_a_run):
        net, _, res = lead_a_run
        for d in net.devices:
            if isinstance(d, PulseSource):
                bps = d.spec.breakpoints(float(res.time[-1]))
                assert len(bps) > 0
                assert (np.abs(res.time[:, None] - bps).min(axis=0) < 1e-18).all()

    def test_ends_exactly_at_t_stop(self):
        """10.25 ns is 20500 steps of 0.5 ps, which round to one ulp below
        it; the run still ends at t_stop, so a power window up to it holds."""
        res = transient(build_pfd(DesignPoint(offset=100e-12)), SimOptions(), 10.25e-9)
        assert res.time[-1] == 10.25e-9
        assert average_power(res.supply_current(), 1.2, (2.35e-9, 10.25e-9)) > 0

    def test_supply_spikes_align_with_input_edges(self, lead_a_run):
        """Switching current is drawn around stimulus activity, while the
        precharged idle state before the first edge draws leakage only."""
        _, _, res = lead_a_run
        i = res.supply_current()
        idle = np.abs(i.v[(i.t > 0.05e-9) & (i.t < 0.2e-9)]).max()  # pre-edge
        active = np.abs(i.v[(i.t > 0.25e-9) & (i.t < 1.25e-9)]).max()
        assert idle < 1e-10
        assert active > 1e3 * max(idle, 1e-12)


# ---------------------------------------------------------------------------
# Scatter-based reference: the step assembly the engine's kernel replaced
# (np.add.at / np.maximum.at on the ground-augmented system), kept as an
# oracle. Tolerances: the scale is bit-identical (a max is exact); f and the
# Jacobian agree to rtol 1e-12 of each entry's summed term magnitudes (a
# reordered sum differs by a few ulps of its largest term, not of its
# result); the converged verdict matches unless the worst ratio is within
# 1e-9 of 1.
# ---------------------------------------------------------------------------

def ref_mosfet(r, x):
    vgs = r.m_sign * (x[r.m_g] - x[r.m_s])
    vds = r.m_sign * (x[r.m_d] - x[r.m_s])
    swap = vds < 0.0
    vds_c = np.abs(vds)
    vov = np.maximum(np.where(swap, vgs - vds, vgs) - r.m_vth, 0.0)
    vmin = np.minimum(vds_c, vov)
    poly = vmin * (vov - 0.5 * vmin)
    bclm = r.m_beta * (1.0 + r.m_lam * vds_c)
    gm_core = bclm * vmin
    gds_core = bclm * np.maximum(vov - vds_c, 0.0) + r.m_beta * r.m_lam * poly
    flip = np.where(swap, -1.0, 1.0)
    ids = (r.m_sign * flip) * (bclm * poly)
    return ids, flip * gm_core, np.where(swap, gm_core + gds_core, gds_core)


def ref_pairs(plus, minus, size, weight=None):
    """One row per pair: +weight in column plus, -weight in column minus."""
    w = np.ones(len(plus)) if weight is None else weight
    mat = np.zeros((len(plus), size))
    rows = np.arange(len(plus))
    np.add.at(mat, (rows, plus), w)
    np.add.at(mat, (rows, minus), -w)
    return mat


def ref_compile(net, gmin):
    """The step kernel's constant matrices as they were built before the
    kernel derived them from one branch incidence: one index table per
    matrix, the tolerance segments and the Jacobian stamps from loops. Its
    states keep a ground slot, index n of naug = n + 1, so its `gather`
    has a ground column that the kernel's lacks."""
    node_names = [n for n in net.nodes if n != net.ground]
    n_nodes = len(node_names)
    sources = net.sources()
    n = n_nodes + len(sources)
    naug = n + 1
    index = {name: i for i, name in enumerate(node_names)}
    index[net.ground] = n

    r_ab, r_g, c_ab, c_val, m_list = [], [], [], [], []
    for d in net.devices:
        if isinstance(d, Resistor):
            r_ab.append((index[d.a], index[d.b]))
            r_g.append(1.0 / d.ohms)
        elif isinstance(d, Capacitor):
            c_ab.append((index[d.a], index[d.b]))
            c_val.append(d.farads)
        elif isinstance(d, Mosfet):
            m_list.append(d)
            for cval, other in ((d.params.cgs, d.source), (d.params.cgd, d.drain)):
                if cval > 0:
                    c_ab.append((index[d.gate], index[other]))
                    c_val.append(cval)
    supply = next((s.name for s in sources if isinstance(s, DcSource)), None)

    def ints(values):
        return np.array(values, dtype=np.intp)

    (r_a, r_b), (c_a, c_b) = (ints(ab).reshape(-1, 2).T for ab in (r_ab, c_ab))
    s_p, s_m = (ints([index[getattr(s, t)] for s in sources]) for t in ("plus", "minus"))
    m_d, m_g, m_s = (ints([index[getattr(m, t)] for m in m_list])
                     for t in ("drain", "gate", "source"))
    m_sign = np.array([1.0 if m.params.polarity == "nmos" else -1.0 for m in m_list])
    r_g, c_val = np.array(r_g), np.array(c_val)

    res_gather = ref_pairs(r_a, r_b, naug)
    cap_gather = ref_pairs(c_a, c_b, naug)
    src_pattern = ref_pairs(s_p, s_m, naug)[:, :n]
    res_n, cap_n = res_gather[:, :n], cap_gather[:, :n]
    g_static = res_n.T @ (r_g[:, None] * res_n)
    g_static[n_nodes:] += src_pattern
    g_static[:, n_nodes:] += src_pattern.T
    g_static[:n_nodes, :n_nodes] += gmin * np.eye(n_nodes)
    lin_gather = np.vstack([res_gather, cap_gather, np.eye(naug)[n_nodes:n],
                            np.zeros((1, naug))])

    plus = np.concatenate([m_d, r_a, c_a, s_p]).tolist()
    minus = np.concatenate([m_s, r_b, c_b, s_m]).tolist()
    row_ends = [[len(plus)] for _ in range(naug)]
    for k, (a, b) in enumerate(zip(plus, minus)):
        row_ends[a].append(k)
        row_ends[b].append(k)
    ends, starts = [], []
    for seg in row_ends[:n]:
        starts.append(len(ends))
        ends.extend(seg)

    n_mos = len(m_list)
    j_stamps = np.zeros((n, n, 2 * n_mos))
    for k, (d, g, s) in enumerate(zip(m_d.tolist(), m_g.tolist(), m_s.tolist())):
        for row, col, cg, cd in ((d, g, 1, 0), (d, d, 0, 1), (d, s, -1, -1),
                                 (s, g, -1, 0), (s, d, 0, -1), (s, s, 1, 1)):
            if row < n and col < n:
                j_stamps[row, col, k] += cg
                j_stamps[row, col, n_mos + k] += cd
    m_beta = np.array([m.params.beta for m in m_list])
    m_lam = np.array([m.params.lam for m in m_list])
    return SimpleNamespace(
        n_nodes=n_nodes, n=n, naug=naug, node_names=node_names, sources=sources,
        supply=supply, r_g=r_g, c_val=c_val, m_beta=m_beta,
        m_vth=np.array([abs(m.params.vth0) for m in m_list]), m_lam=m_lam, m_sign=m_sign,
        m_blam=m_beta * m_lam, g_static=g_static, cap_pattern=cap_n.T @ (c_val[:, None] * cap_n),
        gather=np.vstack([ref_pairs(m_g, m_s, naug, m_sign), ref_pairs(m_d, m_s, naug, m_sign),
                          lin_gather]),
        m_kcl=ref_pairs(m_d, m_s, naug)[:, :n].T.copy(), cap_kcl=cap_n.T.copy(),
        cap=slice(n_mos + len(r_a), n_mos + len(r_a) + len(c_a)),
        ends=ints(ends), starts=ints(starts), j_stamps=j_stamps.reshape(n * n, 2 * n_mos))


@pytest.mark.parametrize("make_net,gmin", [
    (build_pfd, 1e-12), (build_pfd, 0.0), (floating_stack, 1e-12),
    (rc_lowpass, 1e-12),
], ids=["pfd", "pfd_gmin0", "floating_stack", "rc"])
def test_kernel_matrices_equal_reference(make_net, gmin, monkeypatch):
    """Every matrix the kernel derives from its branch incidence equals the
    reference build byte for byte, in the same memory order (a matrix-vector
    product sums in an order that follows the layout); the tolerance
    segments hold the same branch ends per row. The kernel's states are
    the n unknowns alone, so its gather is the reference's without the
    ground column."""
    import pfdsim.engine as engine

    monkeypatch.setattr(engine, "_GMIN", gmin)
    net = make_net()
    ref = ref_compile(net, gmin)
    kern = _Kernel(net, SimOptions())
    assert not hasattr(kern, "naug") and kern.gather.shape[1] == kern.n
    for name, want in vars(ref).items():
        if name in ("ends", "starts", "naug"):
            continue
        if name == "gather":
            want = np.ascontiguousarray(want[:, : ref.n])
        got = getattr(kern, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert got.flags.c_contiguous == want.flags.c_contiguous, name
        else:
            assert got == want, name

    def segments(k):
        return [set(seg.tolist()) for seg in np.split(k.ends, k.starts[1:])]

    assert kern.ends.dtype == ref.ends.dtype
    assert segments(kern) == segments(ref)


def ref_index(net, c, gmin):
    """The netlist as state-vector indices, in device order (ground is n),
    and its stamped static and capacitance matrices."""
    index = {name: i for i, name in enumerate(c.node_names)}
    index[net.ground] = c.n
    r = SimpleNamespace(r_a=[], r_b=[], r_g=[], c_a=[], c_b=[], c_val=[], m_d=[], m_g=[],
                        m_s=[], s_p=[index[s.plus] for s in c.sources],
                        s_m=[index[s.minus] for s in c.sources])
    for d in net.devices:
        if isinstance(d, Resistor):
            r.r_a.append(index[d.a])
            r.r_b.append(index[d.b])
            r.r_g.append(1.0 / d.ohms)
        elif isinstance(d, Capacitor):
            r.c_a.append(index[d.a])
            r.c_b.append(index[d.b])
            r.c_val.append(d.farads)
        elif isinstance(d, Mosfet):
            r.m_d.append(index[d.drain])
            r.m_g.append(index[d.gate])
            r.m_s.append(index[d.source])
            for cval, other in ((d.params.cgs, d.source), (d.params.cgd, d.drain)):
                if cval > 0:
                    r.c_a.append(index[d.gate])
                    r.c_b.append(index[other])
                    r.c_val.append(cval)
    for name, vals in list(vars(r).items()):
        setattr(r, name, np.array(vals, dtype=float if name in ("r_g", "c_val") else np.intp))
    for name in ("n", "n_nodes", "naug", "sources", "m_sign", "m_vth", "m_beta", "m_lam"):
        setattr(r, name, getattr(c, name))
    r.g_static = np.zeros((r.naug, r.naug))
    r.cap = np.zeros((r.naug, r.naug))
    for mat, aa, bb, vals in ((r.g_static, r.r_a, r.r_b, r.r_g), (r.cap, r.c_a, r.c_b, r.c_val)):
        for a, b, v in zip(aa, bb, vals):
            mat[a, a] += v
            mat[b, b] += v
            mat[a, b] -= v
            mat[b, a] -= v
    for row, p, m in zip(ref_rows(r)[1], r.s_p, r.s_m):
        r.g_static[p, row] += 1.0
        r.g_static[m, row] -= 1.0
        r.g_static[row, p] += 1.0
        r.g_static[row, m] -= 1.0
    nodes = np.arange(r.n_nodes)
    r.g_static[nodes, nodes] += gmin
    return r


def ref_rows(r):
    """(reduced row indices, source-branch row indices) of the augmented system."""
    keep = np.array([i for i in range(r.naug) if i != r.n])
    return keep, keep[r.n_nodes:]


def ref_point(r, opt, h, vsrc, x_prev=None, i_prev=None):
    """(a_lin, rhs, geq, ieq) of one DC (h None) or companion time point."""
    _, branch = ref_rows(r)
    rhs = np.zeros(r.naug)
    rhs[branch] = vsrc
    if h is None:
        return r.g_static, rhs, None, None
    a0 = (1.0 if opt.integrator == "backward_euler" else 2.0) / h
    geq = a0 * r.c_val
    ieq = geq * (x_prev[r.c_a] - x_prev[r.c_b])
    if opt.integrator == "trapezoidal":
        ieq = ieq + i_prev
    np.add.at(rhs, r.c_a, ieq)
    np.add.at(rhs, r.c_b, -ieq)
    return r.g_static + a0 * r.cap, rhs, geq, ieq


def ref_residual(r, pt, x):
    """Reduced (f, scale, jacobian, |f| term sums, |jacobian| term sums)."""
    a_lin, rhs, geq, ieq = pt
    keep, branch = ref_rows(r)
    ids, gm, gds = ref_mosfet(r, x)
    f = a_lin @ x - rhs
    f_mag = np.abs(a_lin) @ np.abs(x) + np.abs(rhs)
    scale = np.zeros(r.naug)
    np.add.at(f, r.m_d, ids)
    np.add.at(f, r.m_s, -ids)
    np.add.at(f_mag, r.m_d, np.abs(ids))
    np.add.at(f_mag, r.m_s, np.abs(ids))
    currents = [(r.m_d, r.m_s, np.abs(ids)),
                (r.r_a, r.r_b, np.abs(r.r_g * (x[r.r_a] - x[r.r_b]))),
                (r.s_p, r.s_m, np.abs(x[branch]))]
    if geq is not None:
        currents.append((r.c_a, r.c_b, np.abs(geq * (x[r.c_a] - x[r.c_b]) - ieq)))
    for plus, minus, mag in currents:
        np.maximum.at(scale, plus, mag)
        np.maximum.at(scale, minus, mag)
    rows = np.concatenate([r.m_d, r.m_d, r.m_d, r.m_s, r.m_s, r.m_s])
    cols = np.concatenate([r.m_g, r.m_d, r.m_s, r.m_g, r.m_d, r.m_s])
    vals = np.concatenate([gm, gds, -(gm + gds), -gm, -gds, gm + gds])
    jac = a_lin.copy()
    jac_mag = np.abs(a_lin)
    np.add.at(jac, (rows, cols), vals)
    np.add.at(jac_mag, (rows, cols), np.abs(vals))
    sub = np.ix_(keep, keep)
    return f[keep], scale[keep], jac[sub], f_mag[keep], jac_mag[sub]


def ref_tolerance(r, opt, scale):
    from pfdsim.engine import _ABSTOL_I, _ABSTOL_V

    return np.concatenate([_ABSTOL_I + opt.reltol * scale[: r.n_nodes],
                           np.full(len(scale) - r.n_nodes, _ABSTOL_V)])


def ref_converged(r, opt, f, scale):
    tol = ref_tolerance(r, opt, scale)
    return not np.any(np.abs(f) > tol), float(np.max(np.abs(f) / tol))


def ref_transient(net, opt, t_stop, initial=None):
    """The engine's time loop over the reference assembly, started from the
    DC point or from initial node voltages."""
    from pfdsim.engine import (
        _GMIN,
        _MAX_NEWTON_ITERS,
        _MAX_STEP_HALVINGS,
        _NEWTON_DAMP_V,
        _time_axis,
    )

    c = ref_compile(net, _GMIN)
    r = ref_index(net, c, _GMIN)
    keep, _ = ref_rows(r)
    axis = _time_axis(net, opt, t_stop)

    def vsrc(t):
        return [s.volts if isinstance(s, DcSource) else s.spec.value(t) for s in r.sources]

    def solve(pt, x0):
        x = x0.copy()
        f, scale, jac, _, _ = ref_residual(r, pt, x)
        for _ in range(_MAX_NEWTON_ITERS):
            if ref_converged(r, opt, f, scale)[0]:
                return x, True
            dx = np.linalg.solve(jac, -f)
            vmax = np.max(np.abs(dx[: r.n_nodes]))
            if vmax > _NEWTON_DAMP_V:
                dx *= _NEWTON_DAMP_V / vmax
            x[keep] += dx
            f, scale, jac, _, _ = ref_residual(r, pt, x)
        return x, ref_converged(r, opt, f, scale)[0]

    if initial is None:
        x, ok = solve(ref_point(r, opt, None, vsrc(0.0)), np.zeros(r.naug))
        assert ok
    else:
        x = np.zeros(r.naug)
        x[: r.n_nodes] = [initial[name] for name in c.node_names]
    times, rows = [0.0], [x]

    def advance(x_prev, i_prev, t0, t1, depth):
        pt = ref_point(r, opt, t1 - t0, vsrc(t1), x_prev, i_prev)
        x_new, ok = solve(pt, x_prev)
        if ok:
            times.append(t1)
            rows.append(x_new)
            _, _, geq, ieq = pt
            return x_new, geq * (x_new[r.c_a] - x_new[r.c_b]) - ieq
        assert depth < _MAX_STEP_HALVINGS
        tm = 0.5 * (t0 + t1)
        mid = advance(x_prev, i_prev, t0, tm, depth + 1)
        return advance(*mid, tm, t1, depth + 1)

    state = (x, np.zeros(len(r.c_a)))
    for k in range(1, len(axis)):
        state = advance(*state, float(axis[k - 1]), float(axis[k]), 0)
    return np.array(times), np.array(rows)[:, : r.n_nodes]


@functools.cache
def _compiled_pfd():
    from pfdsim.engine import _GMIN, _dc_solve

    net = build_pfd()
    c = ref_compile(net, _GMIN)
    return c, ref_index(net, c, _GMIN), _dc_solve(_Kernel(net, SimOptions()))[0]


def kernel_state(kern, pt, x):
    """(accepted, f, tol, jacobian) of the engine's Newton iteration at
    state x: a zero-iteration `newton` call gives the verdict, residual and
    tolerance; the Jacobian is the matrix its first LU solve receives, taken
    from a copy of the kernel whose tolerance (abs_tol = -inf) accepts no
    state."""
    import pfdsim.engine as engine

    _, accepted, f, tol, _, _ = kern.newton(pt, x, iters=0)
    never = copy.copy(kern)
    never.abs_tol = np.full_like(kern.abs_tol, -math.inf)
    solved = []
    solve = engine._lu_solve
    engine._lu_solve = lambda a, b: solved.append(a.copy()) or solve(a, b)
    try:
        never.newton(pt, x, iters=1)
    finally:
        engine._lu_solve = solve
    return accepted, f, tol, solved[0]


@settings(max_examples=150, deadline=None)
@given(
    step=st.sampled_from([None, ("trapezoidal", 0.5e-12), ("backward_euler", 0.5e-12),
                          ("trapezoidal", 7e-15)]),
    log_dx=st.floats(-12.0, 0.5),
    t=st.floats(0.0, 2e-9),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_scatter_reference(step, log_dx, t, seed):
    """f, tolerance, Jacobian and converged verdict of the step kernel
    against the scatter-based reference, at states drawn around the PFD's
    DC point (log_dx sets the distance, so both verdicts occur)."""
    from pfdsim.engine import _source_values

    c, r, x_dc = _compiled_pfd()
    rng = np.random.default_rng(seed)
    opt = SimOptions() if step is None else SimOptions(integrator=step[0])
    h = None if step is None else step[1]
    kern = _Kernel(build_pfd(), opt)

    def near_dc(exponent):  # with the reference's ground slot, index n
        x = np.append(x_dc, 0.0) + 10.0 ** exponent * rng.uniform(-1.0, 1.0, c.naug)
        x[c.n_nodes: c.n] = x_dc[c.n_nodes: c.n] + 1e-4 * 10.0 ** exponent * rng.uniform(
            -1.0, 1.0, c.n - c.n_nodes)
        x[c.n] = 0.0
        return x

    x = near_dc(log_dx)
    vsrc = _source_values(kern, [t])[0]
    if h is None:
        pt, ref = kern.point(None, vsrc), ref_point(r, opt, None, vsrc)
    else:
        x_prev = near_dc(rng.uniform(-6.0, 0.0))
        i_prev = 1e-5 * rng.uniform(-1.0, 1.0, len(r.c_a))
        pt = kern.point(h, vsrc, x_prev[r.c_a] - x_prev[r.c_b], i_prev)
        ref = ref_point(r, opt, h, vsrc, x_prev, i_prev)

    accepted, f, tol, jac = kernel_state(kern, pt, x[: c.n])
    f_ref, scale_ref, jac_ref, f_mag, jac_mag = ref_residual(r, ref, x)

    assert np.array_equal(tol, ref_tolerance(r, opt, scale_ref))
    assert np.all(np.abs(f - f_ref) <= 1e-12 * f_mag)
    assert np.all(np.abs(jac - jac_ref) <= 1e-12 * jac_mag)
    verdict, worst = ref_converged(r, opt, f_ref, scale_ref)
    if abs(worst - 1.0) > 1e-9:
        assert accepted == verdict


@settings(max_examples=300, deadline=None)
@given(
    step=st.sampled_from([None, ("trapezoidal", 0.5e-12), ("backward_euler", 0.5e-12)]),
    log_dx=st.floats(-7.0, -1.0),  # mostly one update from the floor
    seed=st.integers(0, 2**32 - 1),
    # in half the draws, up to two (MOSFET current?, index, NaN or +-inf)
    # entries to write into the updated state
    spoil=st.tuples(st.booleans(), st.lists(st.tuples(
        st.booleans(), st.integers(0, 10**6), st.sampled_from([math.nan, math.inf, -math.inf])),
        min_size=1, max_size=2)).map(lambda drawn: drawn[1] if drawn[0] else []),
)
def test_floor_acceptance_matches_exact_rule(step, log_dx, seed, spoil):
    """One Newton update from a state drawn around the PFD's DC point, as
    `newton(..., iters=1)` makes it: the verdict, x, f, cur and the counts
    equal those of the exact rule, RefKernel.newton, which builds every
    row's tolerance before it tests. The updated state is accepted on the
    floor |f| <= abs_tol or else by the full tolerance. NaN and +-inf enter
    its MOSFET currents (so the KCL rows of the residual and the tolerance
    scales) or its source branch currents through `spoil`."""
    import pfdsim.devices as devices
    import pfdsim.engine as engine
    from pfdsim.engine import SimStats, _source_values

    c, r, x_dc = _compiled_pfd()
    rng = np.random.default_rng(seed)
    opt = SimOptions(integrator="trapezoidal" if step is None else step[0])
    net = build_pfd()
    kern, ref = _Kernel(net, opt), RefKernel(net, opt)
    x_dc = np.append(x_dc, 0.0)  # the reference's ground slot, index n
    x = x_dc + 10.0 ** log_dx * rng.uniform(-1.0, 1.0, c.naug)
    x[c.n_nodes: c.n] = x_dc[c.n_nodes: c.n]
    x[c.n] = 0.0
    vsrc = _source_values(kern, [0.0])[0]
    if step is None:
        pt = kern.point(None, vsrc)
    else:
        # a history near the DC point's, whose step solution is near it too
        scale = 10.0 ** rng.uniform(-12.0, -3.0)
        x_prev = x_dc + scale * rng.uniform(-1.0, 1.0, c.naug)
        pt = kern.point(step[1], vsrc, x_prev[r.c_a] - x_prev[r.c_b],
                        1e-3 * scale * rng.uniform(-1.0, 1.0, len(r.c_a)))
    ev0 = kern.newton(pt, x[: c.n], iters=0)[-1]
    kern.stats = SimStats()  # count from here on, as the reference does
    m, n_src = len(c.m_sign), c.n - c.n_nodes
    evaluate = devices.mosfet_eval

    def spoiled_eval(*args):  # the updated state's evaluation
        dev = evaluate(*args)
        for mos, k, v in spoil:
            if mos:
                dev[0, k % m] = v
        return dev

    def spoiled(solve):
        def update(a, b):
            dx = solve(a, b)
            for mos, k, v in spoil:
                if not mos:
                    dx[c.n_nodes + k % n_src] = v
            return dx
        return update

    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(devices, "mosfet_eval", spoiled_eval)
        mp.setattr(engine, "mosfet_eval", spoiled_eval)
        mp.setattr(engine, "_lu_solve", spoiled(engine._lu_solve))
        mp.setattr(np.linalg, "solve", spoiled(np.linalg.solve))
        mp.setattr(engine, "_MAX_NEWTON_ITERS", 1)  # the reference's limit
        x1, ok, f, tol, cur, _ = kern.newton(pt, x[: c.n], ev0, iters=1)
        x_ref, ok_ref, f_ref, tol_ref, cur_ref, _ = ref.newton(pt, x, ev0)
    assert ok == ok_ref
    assert x1.tobytes() == x_ref[: c.n].tobytes() and x_ref[c.n] == 0.0
    assert f.tobytes() == f_ref.tobytes()
    assert cur.tobytes() == cur_ref.tobytes()
    assert kern.stats == ref.stats
    if tol is None:  # accepted on the floor
        assert ok and np.all(np.abs(f) <= kern.abs_tol)
    else:
        assert tol.tobytes() == tol_ref.tobytes()
    # the verdict mix: pytest --hypothesis-show-statistics
    event(("floor" if tol is None else "full tolerance" if ok else "rejected")
          + (", spoilt" if spoil else ""))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_acceptance_byte_compare_matches_logical_and(data):
    """Both acceptance tests of `newton` decide as np.logical_and.reduce
    over the row comparisons: the test that starts a call, against the full
    tolerance, and the two after an update, the floor |f| <= abs_tol first.
    The residual is drawn by making f = -rhs (no linear block and no MOSFET
    current): each row within the floor or the full tolerance (+-0.0, the
    bound itself, the float below it or a value between), then in most
    draws up to two rows spoilt by NaN, +-inf or the float above a bound.
    The starting evaluation's KCL rows are NaN, so the call always reaches
    its one update, which a spoiled solve makes zero."""
    import pfdsim.engine as engine
    from pfdsim.engine import SimStats, _source_values

    _, _, x_dc = _compiled_pfd()
    kern = _Kernel(build_pfd(), SimOptions())
    n, m = kern.n, len(kern.m_sign)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(engine, "mosfet_eval", lambda *args: np.zeros((3, m)))
        mp.setattr(engine, "_lu_solve", lambda a, b: np.zeros(n))
        p = kern.point(None, _source_values(kern, [0.0])[0])._replace(a_lin=np.zeros((n, n)))
        tol = kern.newton(p, x_dc, iters=0)[3]
        bounds = {"floor": kern.abs_tol, "full": tol}
        within = bounds[data.draw(st.sampled_from(sorted(bounds)))]
        f_drawn = np.array([
            data.draw(st.sampled_from([1.0, -1.0])) * data.draw(st.one_of(
                st.sampled_from([0.0, within[row], np.nextafter(within[row], 0.0)]),
                st.floats(0.0, float(within[row]))))
            for row in range(n)])
        for row, value in data.draw(st.lists(st.tuples(
                st.integers(0, n - 1),
                st.sampled_from([math.nan, math.inf, -math.inf, "floor", "full"])),
                max_size=2)):
            f_drawn[row] = (np.nextafter(bounds[value][row], math.inf)
                            if isinstance(value, str) else value)
        p = p._replace(rhs=-f_drawn)
        start = kern.newton(p, x_dc, iters=0)
        ev = start[-1]
        kern.stats = SimStats()
        x, ok, f, tol_out, _, _ = kern.newton(p, x_dc, (ev[0], ev[1], np.full(n, math.nan)),
                                              iters=1)
    assert np.array_equal(np.abs(f), np.abs(f_drawn), equal_nan=True)
    full = bool(np.logical_and.reduce(np.abs(f) <= tol))
    floor = bool(np.logical_and.reduce(np.abs(f) <= kern.abs_tol))
    assert start[1] == full and start[3].tobytes() == tol.tobytes()
    assert kern.stats == SimStats(lu_solves=1, device_evals=1)
    assert x.tobytes() == x_dc.tobytes()
    assert ok == full and (tol_out is None) == floor
    event("floor" if floor else "full tolerance" if full else "rejected")


_DAMPING_ENTRIES = (0.3, -0.3, np.nextafter(0.3, 1.0), -np.nextafter(0.3, 0.0), 0.0, -0.0,
                    math.nan, math.inf, -math.inf)


@settings(max_examples=300, deadline=None)
@given(
    wide=st.booleans(),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_damping_fast_path_matches_exact_rule(wide, data, seed):
    """One Newton update whose LU solve returns a drawn dx: the state it
    reaches and the counts equal those of the exact rule, which takes
    vmax = max(0, max |dx| over the node rows), ends the iteration on a
    NaN vmax without counting a solve, and scales dx by 0.3 / vmax when
    vmax > 0.3. Drawn node entries include exactly +-0.3, its float
    neighbours, NaN, +-inf and -0.0; narrow draws keep every entry
    within the bound, so the fast path is taken too."""
    import pfdsim.engine as engine
    from pfdsim.engine import _NEWTON_DAMP_V, SimStats, _source_values

    _, _, x_dc = _compiled_pfd()
    kern = _Kernel(build_pfd(), SimOptions())
    never = copy.copy(kern)  # accepts no state, so the update is always made
    never.abs_tol = np.full_like(kern.abs_tol, -math.inf)
    k = kern.n_nodes
    inside = st.one_of(st.floats(-0.3, 0.3), st.sampled_from([0.3, -0.3, 0.0, -0.0]))
    entry = st.one_of(inside, st.sampled_from(_DAMPING_ENTRIES), st.floats(-5.0, 5.0)) \
        if wide else inside
    dx = np.empty(kern.n)
    dx[:k] = data.draw(st.lists(entry, min_size=k, max_size=k))
    dx[k:] = 1e-6 * np.random.default_rng(seed).uniform(-1.0, 1.0, kern.n - k)
    p = kern.point(None, _source_values(kern, [0.0])[0])
    ev0 = never.newton(p, x_dc, iters=0)[-1]
    never.stats = SimStats()
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(engine, "_lu_solve", lambda a, b: dx.copy())
        x, ok, *_ = never.newton(p, x_dc, ev0, iters=1)
        vmax = np.maximum.reduce(np.abs(dx[:k]), initial=0.0)
        want = x_dc.copy()
        if vmax == vmax:
            want -= dx * (_NEWTON_DAMP_V / vmax) if vmax > _NEWTON_DAMP_V else dx
    solved = int(vmax == vmax)
    assert not ok
    assert x.tobytes() == want.tobytes()
    assert never.stats == SimStats(lu_solves=solved, device_evals=solved)
    event("NaN" if not solved else "damped" if vmax > _NEWTON_DAMP_V else "undamped")


ONE_PERIOD_RUNS = pytest.mark.parametrize("offset,options", [
    (25e-12, {}),
    (-25e-12, {}),
    # one LU solve per Newton call: most steps are halved
    (50e-12, {"dt": 5e-12, "_MAX_NEWTON_ITERS": 1}),
])


def one_period_run(offset, options, monkeypatch):
    """(netlist, options, t_stop, initial voltages) of a 1-period
    default-PFD run; runs with extra options start from the default DC
    point. An option with a leading underscore names an engine constant,
    patched into the engine once that DC point is taken; the rest go to
    SimOptions."""
    import pfdsim.engine as engine

    net = build_pfd(DesignPoint(offset=offset))
    t_stop = 0.25e-9 + abs(offset) + 1e-9
    initial = dc_operating_point(net) if options else None
    fields = {}
    for name, value in options.items():
        if name.startswith("_"):
            monkeypatch.setattr(engine, name, value)
        else:
            fields[name] = value
    return net, SimOptions(**fields), t_stop, initial


@ONE_PERIOD_RUNS
def test_transient_matches_scatter_reference(offset, options, monkeypatch):
    """One period of the default PFD: identical time axis, voltages within
    1 nV of the reference time loop."""
    net, opt, t_stop, initial = one_period_run(offset, options, monkeypatch)
    res = transient(net, opt, t_stop, initial_voltages=initial)
    times, volts = ref_transient(net, opt, t_stop, initial)
    assert np.array_equal(res.time, times)
    assert np.max(np.abs(res.voltages - volts)) <= 1e-9
    if options:  # the halving path ran
        from pfdsim.engine import _time_axis

        assert len(res.time) > len(_time_axis(net, opt, t_stop))


@ONE_PERIOD_RUNS
def test_reused_evaluation_is_bit_identical(offset, options, monkeypatch):
    """Seeding each step with the accepted point's evaluation changes no
    float: the same run with every Newton start evaluated afresh gives
    identical arrays (including after failed, halved attempts)."""
    net, opt, t_stop, initial = one_period_run(offset, options, monkeypatch)
    reused = transient(net, opt, t_stop, initial_voltages=initial)
    newton = _Kernel.newton
    monkeypatch.setattr(_Kernel, "newton",
                        lambda k, p, x0, ev0=None, iters=None: newton(k, p, x0, None, iters))
    fresh = transient(net, opt, t_stop, initial_voltages=initial)
    assert np.array_equal(reused.time, fresh.time)
    assert np.array_equal(reused.voltages, fresh.voltages)
    assert np.array_equal(reused.branch_currents, fresh.branch_currents)


# ---------------------------------------------------------------------------
# Reference Newton loop: the step kernel as it was before the iteration was
# written out in one method (separate point / evaluate / residual / accepts /
# jacobian helpers, capacitor history from its own incidence product, the
# error state entered per solve through np.linalg.solve). Every float and
# every count of the engine must equal it.
# ---------------------------------------------------------------------------

class RefKernel:
    def __init__(self, net, opt):
        from pfdsim.engine import _ABSTOL_I, _ABSTOL_V, _GMIN, SimStats

        self.c = c = ref_compile(net, _GMIN)
        r = ref_index(net, c, _GMIN)
        self.cap_gather = ref_pairs(r.c_a, r.c_b, c.naug)
        self.opt = opt
        self.stats = SimStats()
        self.a0_num = 1.0 if opt.integrator == "backward_euler" else 2.0
        self.trap = opt.integrator == "trapezoidal"
        self.abs_tol = np.concatenate([np.full(c.n_nodes, _ABSTOL_I),
                                       np.full(c.n - c.n_nodes, _ABSTOL_V)])

    def point(self, h, vsrc, x_prev=None, i_prev=None):
        c = self.c
        a0 = 0.0 if h is None else self.a0_num / h
        geq = a0 * c.c_val
        a_lin = c.g_static + a0 * c.cap_pattern
        weights = np.concatenate([np.ones(len(c.m_sign)), c.r_g, geq,
                                  np.ones(c.n - c.n_nodes + 1)])
        if x_prev is None:
            history, rhs = None, np.zeros(c.n)
        else:
            history = self.cap_gather.dot(x_prev)
            history *= geq
            if self.trap:
                history += i_prev
            rhs = c.cap_kcl.dot(history)
        rhs[c.n_nodes:] = vsrc
        return a_lin, weights, history, rhs

    def evaluate(self, x):
        from pfdsim.devices import mosfet_eval

        c = self.c
        self.stats.device_evals += 1
        m = len(c.m_sign)
        y = c.gather.dot(x)
        dev = mosfet_eval(y[:m], y[m: 2 * m], c.m_beta, c.m_vth, c.m_lam, c.m_sign,
                          c.m_blam)
        ids = dev[0]
        y[m: 2 * m] = ids
        return dev, y[m:], c.m_kcl.dot(ids)

    def residual(self, p, x, ev):
        c = self.c
        a_lin, weights, ieq, rhs = p
        cur = weights * ev[1]
        if ieq is not None:
            cap = cur[c.cap]
            cap -= ieq
        tol = np.maximum.reduceat(np.abs(cur)[c.ends], c.starts)
        tol *= self.opt.reltol
        tol += self.abs_tol
        f = a_lin.dot(x[: c.n])
        f += ev[2]
        f -= rhs
        return f, tol, cur

    @staticmethod
    def accepts(f, tol):
        return bool(np.logical_and.reduce(np.abs(f) <= tol))

    def jacobian(self, p, ev):
        c = self.c
        jac = c.j_stamps.dot(ev[0][1:].reshape(-1)).reshape(c.n, c.n)
        jac += p[0]
        return jac

    def newton(self, p, x0, ev0):
        from pfdsim.engine import _MAX_NEWTON_ITERS, _NEWTON_DAMP_V

        c, stats = self.c, self.stats
        x, ev = x0.copy(), ev0
        unknowns = x[: c.n]
        f, tol, cur = self.residual(p, x, ev)
        for _ in range(_MAX_NEWTON_ITERS):
            if self.accepts(f, tol):
                return x, True, f, tol, cur, ev
            try:
                dx = np.linalg.solve(self.jacobian(p, ev), f)
            except np.linalg.LinAlgError:
                return x, False, f, tol, cur, ev
            stats.lu_solves += 1
            vmax = np.maximum.reduce(np.abs(dx[: c.n_nodes]), initial=0.0)
            if vmax > _NEWTON_DAMP_V:
                dx *= _NEWTON_DAMP_V / vmax
            unknowns -= dx
            ev = self.evaluate(x)
            f, tol, cur = self.residual(p, x, ev)
        return x, self.accepts(f, tol), f, tol, cur, ev

    def dc_solve(self):
        from pfdsim.engine import _GMIN, _GMIN_LADDER_START, _source_values

        c = self.c
        a_lin, weights, ieq, rhs = p = self.point(None, _source_values(c, [0.0])[0])
        zero = np.zeros(c.naug)
        ev_zero = self.evaluate(zero)
        x, ok, _, _, _, ev = self.newton(p, zero, ev_zero)
        self.gmin_ladder = not ok
        if ok:
            return x, ev
        ladder, g = [], _GMIN_LADDER_START
        while g > max(_GMIN, 1e-15):
            ladder.append(g)
            g /= 10.0
        ladder.append(0.0)
        shunt = np.diag((np.arange(c.n) < c.n_nodes).astype(float))
        x, ev = zero, ev_zero
        for g in ladder:
            x, ok, _, _, _, ev = self.newton((a_lin + g * shunt, weights, ieq, rhs), x, ev)
            assert ok
        return x, ev

    def transient(self, net, t_stop, initial=None):
        from pfdsim.engine import (
            _MAX_STEP_HALVINGS,
            _source_values,
            _time_axis,
        )

        c, opt, stats = self.c, self.opt, self.stats
        axis = _time_axis(net, opt, t_stop).tolist()
        vsrc = _source_values(c, axis)
        if initial is None:
            x, ev = self.dc_solve()
        else:
            x = np.zeros(c.naug)
            x[: c.n_nodes] = [initial[name] for name in c.node_names]
            ev = self.evaluate(x)
        times, rows, i_prev = [axis[0]], [x], np.zeros(len(c.c_val))
        for j in range(1, len(axis)):
            pending = [(axis[j], vsrc[j], 0)]
            while pending:
                t0, (t1, v1, depth) = times[-1], pending[-1]
                p = self.point(t1 - t0, v1, rows[-1], i_prev)
                solves = stats.lu_solves
                x_new, ok, _, _, cur, ev_new = self.newton(p, rows[-1], ev)
                if ok:
                    stats.steps_without_solve += stats.lu_solves == solves
                    times.append(t1)
                    rows.append(x_new)
                    i_prev, ev = cur[c.cap], ev_new
                    pending.pop()
                else:
                    assert depth < _MAX_STEP_HALVINGS
                    stats.step_halvings += 1
                    tm = 0.5 * (t0 + t1)
                    pending[-1] = (t1, v1, depth + 1)
                    pending.append((tm, _source_values(c, [tm])[0], depth + 1))
        stats.points = len(times)
        data = np.array(rows)
        return np.array(times), data[:, : c.n_nodes], data[:, c.n_nodes: c.n]


@ONE_PERIOD_RUNS
def test_transient_bit_identical_to_reference_loop(offset, options, monkeypatch):
    """Time axis, voltages and branch currents byte for byte, and every
    SimStats counter, against the reference loop (including the halving
    path of the third run)."""
    net, opt, t_stop, initial = one_period_run(offset, options, monkeypatch)
    res = transient(net, opt, t_stop, initial_voltages=initial)
    ref = RefKernel(net, opt)
    times, volts, currents = ref.transient(net, t_stop, initial)
    assert res.time.tobytes() == times.tobytes()
    assert res.voltages.tobytes() == volts.tobytes()
    assert res.branch_currents.tobytes() == currents.tobytes()
    assert res.stats == ref.stats


@ONE_PERIOD_RUNS
def test_stored_rows_are_the_states_newton_returned(offset, options, monkeypatch):
    """Each row `transient` stores is bytewise the x that an accepted
    `newton` call returned, in order, or a copy of the row before it (a
    held step); the first row of a run from initial voltages is that
    state."""
    accepted = []
    newton = _Kernel.newton

    def recorded(k, p, x0, ev0=None, iters=None):
        out = newton(k, p, x0, ev0, iters)
        if out[1] and iters is None:
            accepted.append(out[0])
        return out

    net, opt, t_stop, initial = one_period_run(offset, options, monkeypatch)
    monkeypatch.setattr(_Kernel, "newton", recorded)
    res = transient(net, opt, t_stop, initial_voltages=initial)
    block = res.voltages.base
    assert block.shape == (res.stats.points, 16)
    if initial is not None:
        assert block[0, : len(res.node_names)].tolist() == [
            initial[name] for name in res.node_names]
    pending = iter(accepted)
    want = next(pending)
    for j, row in enumerate(block[int(initial is not None):], int(initial is not None)):
        if want is not None and row.tobytes() == want.tobytes():
            want = next(pending, None)
        else:
            assert j and row.tobytes() == block[j - 1].tobytes(), j
    assert want is None


@pytest.mark.parametrize("net,gmin,ladder", [
    (build_pfd(), 1e-12, False),
    # without gmin the floating node's Jacobian row is zero at the zero
    # state: the first solve is singular and the gmin ladder takes over
    (floating_stack(), 0.0, True),
], ids=["pfd", "singular_then_gmin_ladder"])
def test_dc_solve_bit_identical_to_reference_loop(net, gmin, ladder, monkeypatch):
    """The DC solution, its device evaluation and the counts, byte for byte."""
    import pfdsim.engine as engine

    monkeypatch.setattr(engine, "_GMIN", gmin)
    opt = SimOptions()
    kern, ref = _Kernel(net, opt), RefKernel(net, opt)
    with np.errstate(all="ignore"):
        x, ev = engine._dc_solve(kern)
    x_ref, ev_ref = ref.dc_solve()
    assert ref.gmin_ladder == ladder
    assert x.tobytes() == x_ref[: ref.c.n].tobytes() and x_ref[ref.c.n] == 0.0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ev, ev_ref))
    assert kern.stats == ref.stats


def test_one_device_evaluation_per_newton_iterate(monkeypatch):
    """On the 1-period default PFD every device evaluation but one follows
    an LU solve: the DC start's evaluation of the zero state. Re-evaluating
    each step's starting state would add one per accepted point."""
    import pfdsim.engine as engine

    calls = {"eval": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(engine, "mosfet_eval", counted("eval", engine.mosfet_eval))
    monkeypatch.setattr(engine, "_lu_solve", counted("solve", engine._lu_solve))
    transient(build_pfd(), SimOptions(), 1.25e-9)
    assert calls["solve"] > 0
    assert calls["eval"] == calls["solve"] + 1


@ONE_PERIOD_RUNS
def test_stats_count_the_run(offset, options, monkeypatch):
    """`TransientResult.stats` against counts taken from outside: LU solves
    and device evaluations by patching, points from the result, halvings
    from the time axis (each halving adds one point)."""
    import pfdsim.engine as engine
    from pfdsim.engine import _time_axis

    net, opt, t_stop, initial = one_period_run(offset, options, monkeypatch)
    calls = {"solve": 0, "eval": 0}
    solve, mosfet_eval = engine._lu_solve, engine.mosfet_eval

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    def counted_eval(*args):
        calls["eval"] += 1
        return mosfet_eval(*args)

    monkeypatch.setattr(engine, "_lu_solve", counted_solve)
    monkeypatch.setattr(engine, "mosfet_eval", counted_eval)
    res = transient(net, opt, t_stop, initial_voltages=initial)
    stats = res.stats
    axis = _time_axis(net, opt, t_stop)
    assert stats.points == len(res.time)
    assert stats.lu_solves == calls["solve"] > 0
    assert stats.device_evals == calls["eval"] == stats.lu_solves + 1
    assert stats.step_halvings == len(res.time) - len(axis)
    assert (stats.step_halvings > 0) == bool(options)
    assert 0 < stats.steps_without_solve < stats.points - 1


def test_peak_memory_per_accepted_point():
    """A run stores its time vector and its unknowns in preallocated float64
    blocks, 136 bytes per point on the default PFD (8 for the time, 8 for
    each of 16 unknowns): under tracemalloc a 3-period run at +100 ps peaks
    at about 193 bytes per accepted point; the bound leaves 15 bytes (8%)
    of margin. A list of per-point 17-float arrays copied into one array at
    the end peaked at about 500; the axis as a list of floats and a list
    of bools for the source rows added another 32."""
    import tracemalloc

    net = build_pfd(DesignPoint(offset=100e-12))
    transient(net, SimOptions(), 0.5e-9)  # one-time allocations of a first run
    tracemalloc.start()
    try:
        res = transient(net, SimOptions(), 3.35e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stats.step_halvings == 0
    assert peak <= 208 * res.stats.points


def test_kcl_replay_peak_memory_per_point():
    """The KCL replay refills one state vector from the result at each
    point and reads the step sizes from `result.time`: under tracemalloc,
    its peak above the stored result of a 3-period run at +100 ps is about
    79 bytes per point, 24 of them the source values. Copying the result
    into one array with a ground column, and the times into a list, peaked
    at about 255."""
    import tracemalloc

    net, opt = build_pfd(DesignPoint(offset=100e-12)), SimOptions()
    res = transient(net, opt, 3.35e-9)
    tracemalloc.start()
    try:
        kcl_residual_ratio(net, res, opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * res.stats.points


def test_kcl_replay_keeps_a_nan_ratio():
    """One node voltage of the middle stored point set to NaN: its ratios,
    and those of every later point (the NaN enters the replayed capacitor
    history), are NaN, so the replay reports NaN. Folding each point's
    maximum with Python's max() dropped them and reported 0.257; the clean
    run's ratio is 0.981."""
    net, opt = build_pfd(DesignPoint(offset=25e-12)), SimOptions()
    res = transient(net, opt, 0.4e-9)
    clean = kcl_residual_ratio(net, res, opt)
    assert 0.9 < clean <= 1.0
    res.voltages[len(res.time) // 2, res.node_names.index("X")] = math.nan
    assert math.isnan(kcl_residual_ratio(net, res, opt))


def test_floor_acceptance_skips_most_tolerances(monkeypatch):
    """On the +25 ps 1-period run most states reached by a Newton update
    are accepted on the floor |f| <= abs_tol, without their per-row
    tolerance: `_Kernel.tolerance` runs at the check that starts each
    `newton` call and at fewer than half of the checks that follow an LU
    solve (about 19%), so the fast path cannot vanish unnoticed."""
    calls = {"newton": 0, "tolerance": 0}
    newton, tolerance = _Kernel.newton, _Kernel.tolerance

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_Kernel, "newton", counted("newton", newton))
    monkeypatch.setattr(_Kernel, "tolerance", counted("tolerance", tolerance))
    net, opt, t_stop, initial = one_period_run(25e-12, {}, monkeypatch)
    res = transient(net, opt, t_stop, initial_voltages=initial)
    after_update = calls["tolerance"] - calls["newton"]
    assert 0 <= after_update < res.stats.lu_solves / 2


def test_halvings_grow_the_blocks_and_the_result_keeps_exact_rows(monkeypatch):
    """The halving run of ONE_PERIOD_RUNS outgrows the len(axis) rows first
    allocated; the result still keeps exactly stats.points rows alive: the
    time vector and one state block of the n unknowns, whose column views
    are voltages and branch_currents."""
    import pfdsim.engine as engine

    grown = []
    grow = engine._grown

    def counted(block, count, size):
        grown.append(size)
        return grow(block, count, size)

    monkeypatch.setattr(engine, "_grown", counted)
    net, opt, t_stop, initial = one_period_run(50e-12, {"dt": 5e-12, "_MAX_NEWTON_ITERS": 1},
                                               monkeypatch)
    res = transient(net, opt, t_stop, initial_voltages=initial)
    points = res.stats.points
    assert res.stats.step_halvings > 0 and grown
    assert max(grown) > points  # spare rows existed before the final copy
    block = res.voltages.base
    assert block is res.branch_currents.base and block.base is None
    assert block.shape == (points, len(res.node_names) + len(res.source_names))
    assert res.time.base is None and res.time.shape == (points,)


def newton_source_rows(monkeypatch, name):
    """Patch `_Kernel.newton` to record the value of source `name` in each
    call's right-hand side, in call order; returns that list."""
    rows = []
    newton = _Kernel.newton

    def recorded(k, p, x0, ev0=None, iters=None):
        rows.append(float(p[3][k.n_nodes + [s.name for s in k.sources].index(name)]))
        return newton(k, p, x0, ev0, iters)

    monkeypatch.setattr(_Kernel, "newton", recorded)
    return rows


@pytest.mark.parametrize("offset", [25e-12, -25e-12])
def test_hold_skips_quiescent_steps(offset, monkeypatch):
    """On the 1-period default PFD the 500 steps up to the first input edge
    (0.25 ns) repeat the DC state: all but a few, one per distinct step
    size, are held without a `_Kernel.newton` call, and each still counts
    as a step without a solve."""
    net, opt, t_stop, initial = one_period_run(offset, {}, monkeypatch)
    lead = "VA" if offset > 0 else "VB"
    values = newton_source_rows(monkeypatch, lead)
    res = transient(net, opt, t_stop, initial_voltages=initial)
    before_edge = values.index(next(v for v in values if v != values[0]))
    assert before_edge <= 20  # DC solve included; 502 without the hold
    assert res.stats.steps_without_solve == 500
    assert res.stats.step_halvings == 0


def pulsed_rc(lowpass: bool) -> tuple[Netlist, PulseSpec]:
    """A pulse source VIN (edges at 100 and 510 ps of a 1 ns period) driving
    R1 into `out`. lowpass: C1 from out to ground, an RC low-pass with a
    10 ps time constant. Otherwise R2 ties out to a DC-held node `vdd`
    decoupled by C2, whose voltage, and so C2's current, never moves."""
    spec = PulseSpec(v_low=0.0, v_high=1.0, delay=100e-12, rise=10e-12, fall=10e-12,
                     width=400e-12, period=1e-9)
    net = Netlist()
    for node in ("0", "in", "out"):
        net.add_node(node)
    net.add(PulseSource("VIN", plus="in", minus="0", spec=spec))
    net.add(Resistor("R1", a="in", b="out", ohms=1e3))
    if lowpass:
        net.add(Capacitor("C1", a="out", b="0", farads=10e-15))
    else:
        net.add_node("vdd")
        net.add(DcSource("VDD", plus="vdd", minus="0", volts=1.2))
        net.add(Resistor("R2", a="out", b="vdd", ohms=1e3))
        net.add(Capacitor("C2", a="vdd", b="0", farads=1e-12))
    return net, spec


@pytest.mark.parametrize("integrator,lowpass,reenters", [
    ("backward_euler", True, True),
    ("backward_euler", False, True),
    ("trapezoidal", False, True),
    # a trapezoidal companion current that has flowed rings: each step
    # without a solve flips its sign, so no later step repeats the state
    ("trapezoidal", True, False),
])
def test_hold_enters_leaves_and_reenters(integrator, lowpass, reenters, monkeypatch):
    """A pulse-driven RC circuit: the hold skips steps before the first
    edge, every step of a ramp calls Newton, and after the edges steps are
    held again where the state repeats exactly. Times, voltages, branch
    currents and SimStats equal the reference loop, which holds nothing."""
    net, spec = pulsed_rc(lowpass)
    opt = SimOptions(integrator=integrator)
    values = newton_source_rows(monkeypatch, "VIN")
    res = transient(net, opt, 1e-9)
    ref = RefKernel(net, opt)
    times, volts, currents = ref.transient(net, 1e-9)
    assert res.time.tobytes() == times.tobytes()
    assert res.voltages.tobytes() == volts.tobytes()
    assert res.branch_currents.tobytes() == currents.tobytes()
    assert res.stats == ref.stats and res.stats.step_halvings == 0

    t, v = res.time[1:], spec.values(res.time[1:])
    ramp = (v != spec.v_low) & (v != spec.v_high)
    after = t > spec.delay + spec.rise + spec.width + spec.fall
    first_edge = next(i for i, x in enumerate(values) if x != spec.v_low)
    last_high = len(values) - values[::-1].index(spec.v_high)
    held_before = np.sum(t <= spec.delay) - (first_edge - 2)  # 2 DC-solve calls
    held_after = np.sum(after) - values[last_high:].count(spec.v_low)
    assert held_before > 150  # enters
    assert sum(spec.v_low < x < spec.v_high for x in values) == np.sum(ramp)  # leaves
    assert (held_after > 0) == reenters


@functools.cache
def _pfd_newton_systems():
    """Every (Jacobian, residual) pair the engine solves in the first
    nanosecond of the default PFD, from its DC solve on."""
    import pfdsim.engine as engine

    systems = []
    solve = engine._lu_solve

    def recorded(a, b):
        systems.append((a.copy(), b.copy()))
        return solve(a, b)

    engine._lu_solve = recorded
    try:
        transient(build_pfd(), SimOptions(), 1e-9)
    finally:
        engine._lu_solve = solve
    return systems


class TestLuSolve:
    """`engine._lu_solve` calls numpy's private LAPACK gufunc directly; it
    must stay bit-equal to `np.linalg.solve` and fail the same way."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-15.0, 3.0))
    def test_equals_numpy_solve_on_well_conditioned_systems(self, seed, log_scale):
        from pfdsim.engine import _lu_solve

        rng = np.random.default_rng(seed)
        a = 10.0 ** log_scale * (rng.uniform(-1.0, 1.0, (16, 16)) + 16.0 * np.eye(16))
        b = rng.uniform(-1.0, 1.0, 16) * 10.0 ** rng.uniform(-12.0, 0.0)
        assert _lu_solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(0, 10**6))
    def test_equals_numpy_solve_on_pfd_jacobians(self, index):
        from pfdsim.engine import _lu_solve

        systems = _pfd_newton_systems()
        a, b = systems[index % len(systems)]
        assert a.shape == (16, 16)
        assert _lu_solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()

    @pytest.mark.parametrize("a", [np.zeros((16, 16)), np.ones((16, 16)),
                                   np.diag(np.arange(16.0))])
    def test_singular_gives_nan_without_warning(self, a):
        """In a run's error state (np.errstate(all="ignore")) a singular
        system gives an all-NaN solution, which the Newton iteration reads
        as a failed solve, and no warning; np.linalg.solve raises."""
        from pfdsim.engine import _lu_solve

        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                x = _lu_solve(a, np.ones(16))
        assert np.isnan(x).all()

    def test_run_error_state_is_restored(self):
        """transient and dc_operating_point enter their error state once per
        run and hand the caller's back, also when the run raises."""
        import pfdsim.engine as engine

        net = build_pfd()
        with np.errstate(divide="raise", over="warn", invalid="print", under="ignore"):
            caller = np.geterr()
            dc_operating_point(net)
            assert np.geterr() == caller
            transient(net, SimOptions(), 0.3e-9)
            assert np.geterr() == caller
            initial = dc_operating_point(net)
            with pytest.MonkeyPatch.context() as mp, pytest.raises(SolverError):
                solve = engine._lu_solve  # every solve singular
                mp.setattr(engine, "_lu_solve", lambda a, b: solve(np.zeros_like(a), b))
                transient(net, SimOptions(), 0.3e-9, initial_voltages=initial)
            assert np.geterr() == caller

    def test_singular_jacobian_ends_in_solver_error(self, monkeypatch):
        """Every Newton solve singular: each step fails, is halved down to
        the limit, and the run stops with a SolverError at a time and node."""
        import pfdsim.engine as engine

        net = build_pfd()
        initial = dc_operating_point(net)
        solve = engine._lu_solve
        monkeypatch.setattr(engine, "_lu_solve", lambda a, b: solve(np.zeros_like(a), b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="transient Newton failed") as err:
                transient(net, SimOptions(), 1e-9, initial_voltages=initial)
        # the first step that needs a solve (none does before the input edge
        # at 0.25 ns), halved 8 times, and the node of the worst |f| / tol
        # of its final state
        assert err.value.time == 0.25e-9 + 0.5e-12 / 2**8 == 2.50001953125e-10
        assert err.value.node == "DN"


class TestNanInputs:
    """A NaN residual is never within tolerance, so it fails as a solver
    error instead of being accepted as converged; a non-finite initial
    voltage is refused before the run starts."""

    def test_nan_initial_voltage_raises(self):
        """A non-finite initial voltage is refused before anything is
        solved, naming the node (ground's entry included)."""
        net = build_pfd()
        for node, value in (("UP", math.nan), ("X.n", math.inf), ("0", -math.inf)):
            initial = {**dc_operating_point(net), node: value}
            with pytest.raises(ValueError,
                               match=f"initial_voltages: node '{node}' must be finite"):
                transient(net, SimOptions(), 0.3e-9, initial_voltages=initial)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nan_device_current_raises(self, value, monkeypatch):
        """A NaN or infinite current of NM2 (drain X.n, source ground) in
        every device evaluation of the run: the first step is halved 8
        times, and the run fails at X.n, the one node whose tolerance is
        not finite (the KCL product carries NaN into every residual row)."""
        import pfdsim.engine as engine

        net = build_pfd()
        initial = dc_operating_point(net)
        evaluate = engine.mosfet_eval

        def spoiled(*args):
            dev = evaluate(*args)
            dev[0, 3] = value
            return dev

        monkeypatch.setattr(engine, "mosfet_eval", spoiled)
        with pytest.raises(SolverError, match="transient Newton failed") as err:
            transient(net, SimOptions(), 0.3e-9, initial_voltages=initial)
        assert err.value.time == 0.5e-12 / 2**8
        assert err.value.node == "X.n"

    def test_worst_node_ranks_non_finite_first(self):
        """Finite ratios go by size; a non-finite tolerance outranks them,
        then a non-finite residual; among those the first row is named."""
        kern = _Kernel(build_pfd(), SimOptions())
        names = kern.node_names
        f, tol = np.full(kern.n, 1e-9), np.full(kern.n, 1e-6)
        f[names.index("DN")] = 5e-6
        assert kern.worst_node(f, tol) == "DN"
        f[names.index("Y")], f[names.index("B")] = math.nan, math.inf
        assert kern.worst_node(f, tol) == "B"
        tol[names.index("X.n")] = math.inf
        tol[names.index("NORD.m")] = math.nan
        assert kern.worst_node(f, tol) == "X.n"
        f[:], tol[:] = math.nan, math.nan
        assert kern.worst_node(f, tol) == "VDD"

    def test_nan_is_not_accepted(self):
        """At the PFD's DC point the iteration accepts the state as is; the
        same state with one NaN residual row (finite tolerances) is not."""
        from pfdsim.engine import _dc_solve, _source_values

        kern = _Kernel(build_pfd(), SimOptions())
        x, _ = _dc_solve(kern)
        p = kern.point(None, _source_values(kern, [0.0])[0])
        _, accepted, _, tol, _, _ = kern.newton(p, x, iters=0)
        assert accepted and np.isfinite(tol).all()
        rhs = p.rhs.copy()
        rhs[kern.n_nodes - 1] = math.nan
        _, accepted, f, tol, _, _ = kern.newton(p._replace(rhs=rhs), x, iters=0)
        assert not accepted and np.isnan(f).any() and np.isfinite(tol).all()


# former SimOptions fields, now engine constants that no run sets
_ENGINE_CONSTANTS = ("abstol_v", "abstol_i", "gmin")


class TestOptionsAndErrors:
    @pytest.mark.parametrize("field", ["reltol", "abstol_v", "abstol_i", "dt", "gmin", "t_stop"])
    def test_nan_option_rejected(self, field):
        """A NaN run setting is refused: an option by SimOptions, t_stop
        (the transient's argument) by transient, and a tolerance floor or
        gmin, engine constants, as a keyword SimOptions does not take."""
        opt = SimOptions(dt=1e-12)
        error = TypeError if field in _ENGINE_CONSTANTS else ValueError
        with pytest.raises(error, match=field):
            if field == "t_stop":
                transient(rc_lowpass(), opt, math.nan)
            else:
                replace(opt, **{field: math.nan})

    @pytest.mark.parametrize("field", ["reltol", "abstol_v", "abstol_i", "dt", "gmin"])
    def test_infinite_option_rejected(self, field):
        """An infinite tolerance accepted every state unsolved (abstol_v
        = inf ran a PFD transient with no LU solve); an infinite gmin or
        dt failed later, as a solve or a run-length error. The tolerance
        floors and gmin are engine constants, which SimOptions does not
        take."""
        if field in _ENGINE_CONSTANTS:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
                SimOptions(**{field: math.inf})
        else:
            with pytest.raises(ValueError, match=f"^{field} must be finite and "):
                replace(SimOptions(), **{field: math.inf})

    def test_option_validation(self):
        with pytest.raises(ValueError, match="reltol"):
            SimOptions(reltol=0.0)
        with pytest.raises(ValueError, match="dt"):
            SimOptions(dt=-1e-12)
        with pytest.raises(ValueError, match="integrator 'gear2'"):
            SimOptions(integrator="gear2")

    def test_options_are_frozen(self):
        """Options are checked once, when made, so no field can change
        after that check."""
        opt = SimOptions()
        with pytest.raises(FrozenInstanceError):
            opt.dt = -1e-12
        with pytest.raises(FrozenInstanceError):
            opt.integrator = "gear2"
        assert opt == SimOptions()

    def test_replace_checks_each_field(self):
        with pytest.raises(ValueError, match=r"^dt must be finite and > 0, got -1e-12$"):
            replace(SimOptions(), dt=-1e-12)

    def test_t_stop_below_dt_refused_by_transient(self):
        """t_stop > dt is one rule, checked against the dt the run
        resolves; it refuses NaN, zero and negative stop times too. The
        options hold no copy of it."""
        for t_stop in (0.5e-12, 1e-12, 0.0, -1e-9, math.nan):
            with pytest.raises(ValueError, match="^t_stop must exceed dt$"):
                transient(rc_lowpass(), SimOptions(dt=1e-12), t_stop)

    @pytest.mark.parametrize("change", [{"reltol": -1.0}, {"integrator": "gear2"},
                                        {"reltol": math.nan}])
    def test_kcl_replay_validates_options(self, lead_a_run, change):
        """The options a run refuses cannot be built, so they never reach
        the KCL replay: `replace` of the run's options refuses a negative
        or NaN reltol and an unknown integrator, naming the field. The
        replay holds no check of its own."""
        _, opt, _ = lead_a_run
        with pytest.raises(ValueError, match=next(iter(change))):
            replace(opt, **change)

    def test_unknown_initial_voltage_node_is_named(self):
        with pytest.raises(ValueError, match=r"^initial_voltages: unknown node 'nope'$"):
            transient(build_pfd(), SimOptions(), 0.3e-9, initial_voltages={"nope": 1.0})

    def test_transient_requires_t_stop(self):
        """The stop time is transient's argument, not a solver option."""
        with pytest.raises(TypeError, match="'t_stop'"):
            transient(rc_lowpass(), SimOptions(dt=1e-12))
        with pytest.raises(TypeError, match="'t_stop'"):
            SimOptions(t_stop=1e-9)

    @pytest.mark.parametrize("t_stop", [math.inf, 1e300])
    def test_step_count_must_be_finite(self, t_stop, monkeypatch):
        """A run whose step count t_stop / dt overflows to inf is refused
        with a ValueError naming t_stop and dt, before a pulse corner is
        built or anything is solved (it ended in an OverflowError from
        `_time_axis`)."""
        import pfdsim.engine as engine

        def fail(*args):
            raise AssertionError("ran")

        monkeypatch.setattr(PulseSpec, "breakpoints", fail)
        monkeypatch.setattr(engine, "_dc_solve", fail)
        with pytest.raises(ValueError, match=r"^t_stop / dt must be a finite step count, "
                                             rf"got t_stop = {re.escape(repr(t_stop))} s and dt = 5e-13 s$"):
            transient(build_pfd(), SimOptions(), t_stop)

    @pytest.mark.parametrize("dt, steps", [(1e-25, "3.35e+16"), (1e-30, "3.35e+21")])
    def test_step_count_too_large_to_allocate(self, dt, steps, monkeypatch):
        """A step count whose time axis numpy refuses at once (with a
        MemoryError, or with 'Maximum allowed size exceeded' beyond its
        index range) is refused with a ValueError naming t_stop, dt and the
        count, before anything is solved. Only counts of 1e16 and more,
        which no host allocates."""
        import pfdsim.engine as engine

        def no_solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(engine, "_dc_solve", no_solve)
        with pytest.raises(ValueError, match=rf"^t_stop = 3.35e-09 s at dt = {dt!r} s is "
                                             rf"{re.escape(steps)} steps, a time axis too "
                                             "large to allocate$"):
            transient(build_pfd(), SimOptions(dt=dt), 3.35e-9)

    @pytest.mark.parametrize("t_stop, corners", [(1e6, "4e+15"), (1e300, "inf")])
    def test_corner_count_too_large_to_allocate(self, t_stop, corners, monkeypatch):
        """A step grid numpy allocates with more pulse corners than it can:
        at dt = 1 s, 1e6 s is 1e6 steps but 1e15 periods of the 1 GHz
        input A. The refusal names the pulse source, its corner count and
        t_stop, before anything is solved (the corners were built one
        period at a time until memory ran out). At 1e300 s the period
        count overflows a float."""
        import pfdsim.engine as engine

        def no_solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(engine, "_dc_solve", no_solve)
        message = (f"pulse source 'VA' has {corners} corners up to t_stop = {t_stop!r} s, "
                   "a time axis too large to allocate")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            transient(build_pfd(), SimOptions(dt=t_stop / 1e6), t_stop)

    def test_invalid_netlist_rejected(self):
        """An invalid netlist is an input error, not a failed solve."""
        net = Netlist()
        net.add_node("a")  # no ground
        with pytest.raises(NetlistError, match="^invalid netlist: "):
            dc_operating_point(net)
        with pytest.raises(NetlistError, match="^invalid netlist: "):
            transient(net, SimOptions(dt=1e-12), 1e-9)


class TestCsvExport:
    def test_round_trip_header_and_values(self, tmp_path):
        res = transient(rc_lowpass(), SimOptions(dt=1e-11), 2e-10)
        res.to_csv(tmp_path / "waves.csv")
        text = (tmp_path / "waves.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,out"
        t0, v0 = (float(x) for x in lines[1].split(","))
        assert t0 == 0.0 and v0 == 0.0
        assert len(lines) == len(res.time) + 1

    def test_text_matches_per_row_writer(self, tmp_path):
        """The column-stacked writer emits the same bytes as formatting
        each value with repr(float(...)) row by row, across its 1024-row
        blocks."""
        res = transient(rc_lowpass(), SimOptions(dt=1e-13), 2.5e-10)
        res.supply_source = "VIN"  # also exercise the i_vdd column
        cols = [res.time, res.voltage("out").v, res.supply_current().v]
        expected = "t,out,i_vdd\n" + "".join(
            ",".join(repr(float(col[k])) for col in cols) + "\n"
            for k in range(len(res.time)))
        assert len(res.time) > 2048
        res.to_csv(tmp_path / "waves.csv")
        assert (tmp_path / "waves.csv").read_bytes() == expected.encode()
