"""Solver validation against independent oracles.

DC points are checked against hand-solved or bisected equations, the
transient integrator against the analytic RC step response, and the
companion models against charge-conservation and convergence-order
properties.
"""

import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdsim.devices import DEFAULT_CONFIG, MosfetParams
from pfdsim.engine import (
    SimOptions,
    SolverError,
    _compile,
    dc_operating_point,
    kcl_residual_ratio,
    supply_current,
    transient,
)
from pfdsim.netlist import (
    Capacitor,
    DcSource,
    Mosfet,
    Netlist,
    PulseSource,
    PulseSpec,
    Resistor,
    build_pfd,
)


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
    net.add_probe("out", "out")
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
            net.add_subcircuit(build_nor2("N1", out="o", in1="i1", in2="i2",
                                          p_params=pm, n_params=nm))
            v = dc_operating_point(net)
            if expect_high:
                assert v["o"] > 0.9 * vdd, (a, b, v["o"])
            else:
                assert v["o"] < 0.1 * vdd, (a, b, v["o"])

    def test_gmin_stepping_recovers_floating_stack(self):
        """Series cutoff devices leave an internal node on gmin only."""
        nm = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9)
        net = Netlist()
        net.add_node("0")
        for n in ("VDD", "mid"):
            net.add_node(n)
        net.add(DcSource("VS", plus="VDD", minus="0", volts=1.2))
        net.add(Mosfet("M1", drain="mid", gate="0", source="VDD", params=nm))
        net.add(Mosfet("M2", drain="mid", gate="0", source="0", params=nm))
        v = dc_operating_point(net)
        assert math.isfinite(v["mid"])


class TestTransientRc:
    def test_step_response_matches_analytic(self):
        opt = SimOptions(dt=10e-12, t_stop=1e-9)
        res = transient(rc_lowpass(), opt)
        out = res.voltage("out")
        assert out.at(1e-9) == pytest.approx(1 - math.exp(-1), rel=0.01)
        analytic = 1.0 - np.exp(-np.clip(out.t - 1e-15, 0, None) / 1e-9)
        assert np.max(np.abs(out.v - analytic)) < 0.01

    def test_backward_euler_also_tracks(self):
        opt = SimOptions(dt=5e-12, t_stop=1e-9, integrator="backward_euler")
        res = transient(rc_lowpass(), opt)
        assert res.voltage("out").at(1e-9) == pytest.approx(1 - math.exp(-1), rel=0.02)

    @pytest.mark.parametrize("integrator,min_ratio", [
        ("backward_euler", 1.8),
        ("trapezoidal", 3.5),
    ])
    def test_halving_dt_shrinks_error_by_integrator_order(self, integrator, min_ratio):
        def max_err(dt):
            res = transient(rc_lowpass(), SimOptions(dt=dt, t_stop=2e-9,
                                                     integrator=integrator))
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
        res = transient(net, SimOptions(dt=1e-11, t_stop=1e-9))
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
        res = transient(net, SimOptions(dt=5e-12, t_stop=5e-9),
                        initial_voltages={"a": 1.0, "b": 0.0})
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
        res = transient(net, SimOptions(dt=1e-12, t_stop=1e-10))
        i = supply_current(res)
        assert np.allclose(i.v, 1e-3, rtol=1e-6)

    def test_error_without_supply(self):
        res = transient(rc_lowpass(), SimOptions(dt=1e-11, t_stop=1e-10))
        with pytest.raises(SolverError, match="no supply source"):
            res.supply_current()


@pytest.fixture(scope="module")
def lead_a_run():
    net = build_pfd(offset=100e-12)
    opt = SimOptions(t_stop=3.25e-9)
    return net, opt, transient(net, opt)


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
        res2 = transient(net, opt)
        assert np.array_equal(res.time, res2.time)
        assert np.array_equal(res.voltages, res2.voltages)
        assert np.array_equal(res.branch_currents, res2.branch_currents)

    def test_time_shift_equivariance(self, lead_a_run):
        """Delaying both inputs by k*dt shifts the response exactly."""
        net, opt, res = lead_a_run
        delta = 40e-12  # 80 grid steps at the default 0.5 ps
        shifted = Netlist(ground=net.ground, nodes=list(net.nodes),
                          probes=dict(net.probes))
        for d in net.devices:
            if isinstance(d, PulseSource):
                d = replace(d, spec=replace(d.spec, delay=d.spec.delay + delta))
            shifted.devices.append(d)
        opt2 = SimOptions(t_stop=opt.t_stop + delta)
        res2 = transient(shifted, opt2)
        up1 = res.voltage("UP")
        up2 = res2.voltage("UP")
        for t in np.arange(0.2e-9, 3.0e-9, 0.05e-9):
            assert up2.at(t + delta) == pytest.approx(up1.at(t), abs=2e-3)

    def test_breakpoints_land_exactly(self, lead_a_run):
        net, _, res = lead_a_run
        for d in net.devices:
            if isinstance(d, PulseSource):
                for bp in d.spec.breakpoints(float(res.time[-1])):
                    assert np.min(np.abs(res.time - bp)) < 1e-18

    def test_supply_spikes_align_with_input_edges(self, lead_a_run):
        """Switching current is drawn around stimulus activity, while the
        precharged idle state before the first edge draws leakage only."""
        _, _, res = lead_a_run
        i = res.supply_current()
        idle = np.abs(i.v[(i.t > 0.05e-9) & (i.t < 0.2e-9)]).max()  # pre-edge
        active = np.abs(i.v[(i.t > 0.25e-9) & (i.t < 1.25e-9)]).max()
        assert idle < 1e-10
        assert active > 1e3 * max(idle, 1e-12)


def test_vectorized_eval_agrees_with_device_model():
    """The engine's fused evaluation and the scalar reference model are
    independent codings of the same equations; they must agree closely."""
    import random

    from pfdsim.devices import mosfet_conductances, mosfet_current
    from pfdsim.engine import _compile

    rng = random.Random(42)
    nm = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9)
    pm = DEFAULT_CONFIG.mosfet("pmos", 310e-9, 100e-9)
    net = Netlist()
    net.add_node("0")
    for n in ("d1", "g1", "s1", "d2", "g2", "s2"):
        net.add_node(n)
    net.add(DcSource("VD", plus="d1", minus="0", volts=0.0))
    net.add(Resistor("R1", a="g1", b="0", ohms=1.0))
    net.add(Resistor("R2", a="g2", b="0", ohms=1.0))
    net.add(Resistor("R3", a="s1", b="0", ohms=1.0))
    net.add(Resistor("R4", a="s2", b="0", ohms=1.0))
    net.add(Resistor("R5", a="d2", b="0", ohms=1.0))
    net.add(Mosfet("M1", drain="d1", gate="g1", source="s1", params=nm))
    net.add(Mosfet("M2", drain="d2", gate="g2", source="s2", params=pm))
    c = _compile(net, gmin=0.0)
    from pfdsim.engine import _mosfet_eval

    for _ in range(500):
        x = np.zeros(c.naug)
        for name in ("d1", "g1", "s1", "d2", "g2", "s2"):
            x[c.node_names.index(name)] = rng.uniform(-1.5, 1.5)
        ids, gm, gds = _mosfet_eval(c, x)
        for j, (m, p) in enumerate([("M1", nm), ("M2", pm)]):
            vd = x[c.m_d[j]]
            vg = x[c.m_g[j]]
            vs = x[c.m_s[j]]
            i_ref = mosfet_current(p, vg - vs, vd - vs)
            gm_ref, gds_ref = mosfet_conductances(p, vg - vs, vd - vs)
            assert ids[j] == pytest.approx(i_ref, rel=1e-12, abs=1e-18)
            assert gm[j] == pytest.approx(gm_ref, rel=1e-12, abs=1e-18)
            assert gds[j] == pytest.approx(gds_ref, rel=1e-12, abs=1e-18)


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


def ref_converged(r, opt, f, scale):
    tol = np.concatenate([opt.abstol_i + opt.reltol * scale[: r.n_nodes],
                          np.full(len(f) - r.n_nodes, opt.abstol_v)])
    return not np.any(np.abs(f) > tol), float(np.max(np.abs(f) / tol))


def ref_transient(net, opt, initial=None):
    """The engine's time loop over the reference assembly, started from the
    DC point or from initial node voltages."""
    from pfdsim.engine import _MAX_STEP_HALVINGS, _NEWTON_DAMP_V, _resolve_dt, _time_axis

    c = _compile(net, opt.gmin)
    r = ref_index(net, c, opt.gmin)
    keep, _ = ref_rows(r)
    axis = _time_axis(net, _resolve_dt(net, opt), opt.t_stop)

    def vsrc(t):
        return [s.volts if isinstance(s, DcSource) else s.spec.value(t) for s in r.sources]

    def solve(pt, x0):
        x = x0.copy()
        f, scale, jac, _, _ = ref_residual(r, pt, x)
        for _ in range(opt.max_newton_iters):
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
    from pfdsim.engine import _dc_solve, _Kernel

    opt = SimOptions()
    net = build_pfd()
    c = _compile(net, opt.gmin)
    return c, ref_index(net, c, opt.gmin), _dc_solve(_Kernel(c, opt))


@settings(max_examples=150, deadline=None)
@given(
    step=st.sampled_from([None, ("trapezoidal", 0.5e-12), ("backward_euler", 0.5e-12),
                          ("trapezoidal", 7e-15)]),
    log_dx=st.floats(-12.0, 0.5),
    t=st.floats(0.0, 2e-9),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_scatter_reference(step, log_dx, t, seed):
    """f, scale, Jacobian and converged verdict of the step kernel against
    the scatter-based reference, at states drawn around the PFD's DC point
    (log_dx sets the distance, so both verdicts occur)."""
    from pfdsim.engine import _Kernel, _source_values

    c, r, x_dc = _compiled_pfd()
    rng = np.random.default_rng(seed)
    opt = SimOptions() if step is None else SimOptions(integrator=step[0])
    h = None if step is None else step[1]
    kern = _Kernel(c, opt)

    def near_dc(exponent):
        x = x_dc + 10.0 ** exponent * rng.uniform(-1.0, 1.0, c.naug)
        x[c.n_nodes: c.n] = x_dc[c.n_nodes: c.n] + 1e-4 * 10.0 ** exponent * rng.uniform(
            -1.0, 1.0, c.n - c.n_nodes)
        x[c.n] = 0.0
        return x

    x = near_dc(log_dx)
    vsrc = _source_values(c, [t])[0]
    if h is None:
        pt, ref = kern.point(None, vsrc), ref_point(r, opt, None, vsrc)
    else:
        x_prev = near_dc(rng.uniform(-6.0, 0.0))
        i_prev = 1e-5 * rng.uniform(-1.0, 1.0, len(r.c_a))
        pt = kern.point(h, vsrc, x_prev, i_prev)
        ref = ref_point(r, opt, h, vsrc, x_prev, i_prev)

    f, scale, _, g = kern.residual(pt, x)
    jac = kern.jacobian(pt, g)
    f_ref, scale_ref, jac_ref, f_mag, jac_mag = ref_residual(r, ref, x)

    assert np.array_equal(scale, scale_ref)
    assert np.all(np.abs(f - f_ref) <= 1e-12 * f_mag)
    assert np.all(np.abs(jac - jac_ref) <= 1e-12 * jac_mag)
    verdict, worst = ref_converged(r, opt, f_ref, scale_ref)
    if abs(worst - 1.0) > 1e-9:
        assert kern.converged(f, scale) == verdict


@pytest.mark.parametrize("offset,options", [
    (25e-12, {}),
    (-25e-12, {}),
    (50e-12, {"dt": 5e-12, "max_newton_iters": 1}),  # most steps are halved
])
def test_transient_matches_scatter_reference(offset, options):
    """One period of the default PFD: identical time axis, voltages within
    1 nV of the reference time loop."""
    net = build_pfd(offset=offset)
    opt = SimOptions(t_stop=0.25e-9 + abs(offset) + 1e-9, **options)
    initial = dc_operating_point(net) if options else None
    res = transient(net, opt, initial_voltages=initial)
    times, volts = ref_transient(net, opt, initial)
    assert np.array_equal(res.time, times)
    assert np.max(np.abs(res.voltages - volts)) <= 1e-9
    if options:  # the halving path ran
        from pfdsim.engine import _time_axis

        assert len(res.time) > len(_time_axis(net, opt.dt, opt.t_stop))


class TestOptionsAndErrors:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            SimOptions(reltol=0.0).validate()
        with pytest.raises(ValueError):
            SimOptions(dt=-1e-12).validate()
        with pytest.raises(ValueError):
            SimOptions(integrator="gear2").validate()
        with pytest.raises(ValueError):
            SimOptions(max_newton_iters=0).validate()

    def test_transient_requires_t_stop(self):
        with pytest.raises(ValueError, match="t_stop"):
            transient(rc_lowpass(), SimOptions(dt=1e-12))

    def test_invalid_netlist_rejected(self):
        net = Netlist()
        net.add_node("a")  # no ground
        with pytest.raises(SolverError, match="invalid netlist"):
            dc_operating_point(net)


class TestCsvExport:
    def test_round_trip_header_and_values(self):
        res = transient(rc_lowpass(), SimOptions(dt=1e-11, t_stop=2e-10))
        text = res.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,out"
        t0, v0 = (float(x) for x in lines[1].split(","))
        assert t0 == 0.0 and v0 == 0.0
        assert len(lines) == len(res.time) + 1

    def test_text_matches_per_row_writer(self):
        """The column-stacked writer emits the same bytes as formatting
        each value with repr(float(...)) row by row."""
        res = transient(rc_lowpass(), SimOptions(dt=1e-11, t_stop=2e-10))
        res.supply_source = "VIN"  # also exercise the i_vdd column
        cols = [res.time, res.voltage("out").v, res.supply_current().v]
        expected = "t,out,i_vdd\n" + "".join(
            ",".join(repr(float(col[k])) for col in cols) + "\n"
            for k in range(len(res.time)))
        assert res.to_csv_text() == expected
