"""Modified nodal analysis engine: DC operating point and fixed-step
transient integration.

Unknowns are the non-ground node voltages plus one branch current per
voltage source; state vectors carry one more slot, for ground, held at 0.
Capacitors (including the lumped MOSFET gate capacitances) enter through
backward-Euler or trapezoidal companion models; MOSFETs are linearized
each Newton iteration. Solves use dense LU (numpy.linalg.solve) -- the
targeted circuits have tens of unknowns.

One step kernel (`_Kernel`) assembles every time point of the DC solve
(its a0 = 0 case), the transient and the KCL replay from matrices that
`_compile` builds once, so a Newton iteration makes no scatter:
- incidence products give every MOSFET's (vgs, vds) and every linear
  branch voltage and source current, and carry the MOSFET and capacitor
  companion currents into the KCL rows;
- the per-node tolerance scale is a `np.maximum.reduceat` over a
  node-sorted gather of branch-current magnitudes, so it is exact;
- the Jacobian is built in the reduced, ground-free system: the linear
  block, cached per step size, plus one `np.bincount` of MOSFET stamps.

A step is accepted when every node's Kirchhoff current residual is
within abstol_i + reltol * (largest branch current at that node) and
every source branch satisfies its voltage constraint to abstol_v; one
comparison covers both. The residual test runs before the first Newton
update, so quiescent stretches where the previous solution still
satisfies the tolerance advance without refactoring.
`kcl_residual_ratio` replays the accepted points through the same kernel
and arithmetic, so its ratio is at most 1 exactly when acceptance held.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from pfdsim.netlist import (
    Capacitor,
    DcSource,
    Mosfet,
    Netlist,
    PulseSource,
    Resistor,
)

BACKWARD_EULER = "backward_euler"
TRAPEZOIDAL = "trapezoidal"

_GMIN_LADDER_START = 1e-3
_MAX_STEP_HALVINGS = 8
_NEWTON_DAMP_V = 0.3  # max node-voltage move per iteration, volts


class SolverError(Exception):
    """Newton failed to converge; carries the failure location."""

    def __init__(self, message: str, time: float | None = None, node: str | None = None):
        super().__init__(message)
        self.time = time
        self.node = node


@dataclass
class SimOptions:
    reltol: float = 1e-3
    abstol_v: float = 1e-6
    abstol_i: float = 1e-9
    dt: float | None = None  # None -> min(0.5 ps, fastest period / 2000)
    t_stop: float | None = None
    integrator: str = TRAPEZOIDAL
    max_newton_iters: int = 50
    gmin: float = 1e-12

    def validate(self) -> None:
        if self.reltol <= 0:
            raise ValueError("reltol must be > 0")
        if self.abstol_v <= 0 or self.abstol_i <= 0:
            raise ValueError("absolute tolerances must be > 0")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.t_stop is not None and self.dt is not None and self.t_stop <= self.dt:
            raise ValueError("t_stop must exceed dt")
        if self.integrator not in (BACKWARD_EULER, TRAPEZOIDAL):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")
        if self.gmin < 0:
            raise ValueError("gmin must be >= 0")


@dataclass
class Waveform:
    """One scalar signal sampled on a shared, strictly increasing time axis."""

    t: np.ndarray
    v: np.ndarray

    def at(self, time: float) -> float:
        return float(np.interp(time, self.t, self.v))


@dataclass
class TransientResult:
    time: np.ndarray
    node_names: list[str]
    voltages: np.ndarray  # (n_points, n_nodes)
    source_names: list[str]
    branch_currents: np.ndarray  # (n_points, n_sources), current p->m through source
    probes: dict[str, str]
    supply_source: str | None

    def voltage(self, name: str) -> Waveform:
        node = self.probes.get(name, name)
        try:
            col = self.node_names.index(node)
        except ValueError:
            raise KeyError(f"unknown node or probe {name!r}") from None
        return Waveform(self.time, self.voltages[:, col])

    def supply_current(self) -> Waveform:
        if self.supply_source is None:
            raise SolverError("no supply source present")
        col = self.source_names.index(self.supply_source)
        # positive = current delivered into the circuit
        return Waveform(self.time, -self.branch_currents[:, col])

    def to_csv(self, target) -> None:
        """Write `t,<probes...>,i_vdd` rows at full double precision."""
        if isinstance(target, (str, Path)):
            with open(target, "w") as fh:
                self.to_csv(fh)
            return
        names = list(self.probes)
        cols = [self.time] + [self.voltage(n).v for n in names]
        if self.supply_source:
            names.append("i_vdd")
            cols.append(self.supply_current().v)
        target.write(",".join(["t"] + names) + "\n")
        for k in range(0, len(self.time), 1024):  # blocks bound the Python floats alive
            block = np.column_stack([col[k : k + 1024] for col in cols]).tolist()
            target.writelines(",".join(map(repr, row)) + "\n" for row in block)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def supply_current(result: TransientResult) -> Waveform:
    """Current delivered by the supply source (positive into the circuit)."""
    return result.supply_current()


# --------------------------------------------------------------------------
# Compilation: netlist -> index arrays and kernel matrices
# --------------------------------------------------------------------------

@dataclass
class _Compiled:
    """The step kernel's constant matrices.

    State vectors have naug = n + 1 entries: node voltages, source branch
    currents, then ground (index n, always 0). The n equations are the node
    KCL rows, then one voltage constraint per source. The kernel's branch
    currents are the MOSFETs', then the linear branches': resistors,
    capacitors, sources, and one zero entry.
    """

    n_nodes: int
    n: int
    naug: int
    node_names: list[str]
    sources: list[DcSource | PulseSource]
    supply: str | None
    r_g: np.ndarray
    c_val: np.ndarray
    m_d: np.ndarray
    m_g: np.ndarray
    m_s: np.ndarray
    m_beta: np.ndarray
    m_vth: np.ndarray
    m_lam: np.ndarray
    m_blam: np.ndarray  # beta * lambda
    m_sign: np.ndarray
    g_static: np.ndarray  # (n, n) resistor + gmin + source-pattern stamps
    cap_pattern: np.ndarray  # (n, n) capacitance stamps, scaled by a0 per step
    m_gather: np.ndarray  # (2 n_mos, naug): sign*(vg - vs), then sign*(vd - vs)
    lin_gather: np.ndarray  # (n_lin, naug): branch voltages, source currents, 0
    cap_gather: np.ndarray  # (n_cap, naug): capacitor voltages
    m_kcl: np.ndarray  # (n, n_mos): drain +1, source -1
    cap_kcl: np.ndarray  # (n, n_cap): plate a +1, plate b -1
    cap: slice  # capacitors within the branch currents
    ends: np.ndarray  # branch-current index of each branch end, sorted by row
    starts: np.ndarray  # first entry of each row in ends
    j_index: np.ndarray  # flat (n, n) index of each MOSFET Jacobian stamp
    j_coef: np.ndarray  # the stamps as a matrix on (gm, gds)


def _pairs(plus, minus, size: int, weight=None) -> np.ndarray:
    """One row per pair: +weight in column plus, -weight in column minus."""
    w = np.ones(len(plus)) if weight is None else weight
    mat = np.zeros((len(plus), size))
    rows = np.arange(len(plus))
    np.add.at(mat, (rows, plus), w)
    np.add.at(mat, (rows, minus), -w)
    return mat


def _compile(net: Netlist, gmin: float) -> _Compiled:
    violations = net.validate()
    if violations:
        raise SolverError("invalid netlist: " + "; ".join(violations))

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
            # lumped gate capacitances become ordinary capacitors
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
    m_beta = np.array([m.params.beta for m in m_list])
    m_lam = np.array([m.params.lam for m in m_list])
    r_g, c_val = np.array(r_g), np.array(c_val)

    res_gather = _pairs(r_a, r_b, naug)
    cap_gather = _pairs(c_a, c_b, naug)
    src_pattern = _pairs(s_p, s_m, naug)[:, :n]
    res_n, cap_n = res_gather[:, :n], cap_gather[:, :n]
    g_static = res_n.T @ (r_g[:, None] * res_n)
    g_static[n_nodes:] += src_pattern
    g_static[:, n_nodes:] += src_pattern.T
    g_static[:n_nodes, :n_nodes] += gmin * np.eye(n_nodes)
    lin_gather = np.vstack([
        res_gather,
        cap_gather,
        np.eye(naug)[n_nodes:n],  # source branch currents
        np.zeros((1, naug)),  # pads every row's scale segment with a 0
    ])

    # Branch ends per equation row; each row also holds the zero entry, so
    # source rows (and bare nodes) get a scale of 0.
    plus = np.concatenate([m_d, r_a, c_a, s_p]).tolist()
    minus = np.concatenate([m_s, r_b, c_b, s_m]).tolist()
    row_ends: list[list[int]] = [[len(plus)] for _ in range(naug)]
    for k, (a, b) in enumerate(zip(plus, minus)):
        row_ends[a].append(k)
        row_ends[b].append(k)
    ends, starts = [], []
    for seg in row_ends[:n]:  # ground row dropped
        starts.append(len(ends))
        ends.extend(seg)

    # MOSFET Jacobian stamps (row, col, d/dgm, d/dgds), ground-free ones only
    n_mos = len(m_list)
    j_index, j_coef = [], []
    for k, (d, g, s) in enumerate(zip(m_d.tolist(), m_g.tolist(), m_s.tolist())):
        for row, col, cg, cd in ((d, g, 1, 0), (d, d, 0, 1), (d, s, -1, -1),
                                 (s, g, -1, 0), (s, d, 0, -1), (s, s, 1, 1)):
            if row < n and col < n:
                coef = [0.0] * (2 * n_mos)
                coef[k], coef[n_mos + k] = cg, cd
                j_index.append(row * n + col)
                j_coef.append(coef)

    return _Compiled(
        n_nodes=n_nodes,
        n=n,
        naug=naug,
        node_names=node_names,
        sources=sources,
        supply=supply,
        r_g=r_g,
        c_val=c_val,
        m_d=m_d,
        m_g=m_g,
        m_s=m_s,
        m_beta=m_beta,
        m_vth=np.array([abs(m.params.vth0) for m in m_list]),
        m_lam=m_lam,
        m_blam=m_beta * m_lam,
        m_sign=m_sign,
        g_static=g_static,
        cap_pattern=cap_n.T @ (c_val[:, None] * cap_n),
        m_gather=np.vstack([_pairs(m_g, m_s, naug, m_sign),
                            _pairs(m_d, m_s, naug, m_sign)]),
        lin_gather=lin_gather,
        cap_gather=cap_gather,
        m_kcl=_pairs(m_d, m_s, naug)[:, :n].T.copy(),
        cap_kcl=cap_n.T.copy(),
        cap=slice(n_mos + len(r_a), n_mos + len(r_a) + len(c_a)),
        ends=ints(ends),
        starts=ints(starts),
        j_index=ints(j_index),
        j_coef=np.array(j_coef).reshape(len(j_index), 2 * n_mos),
    )


def _mosfet_eval(c: _Compiled, x: np.ndarray):
    """Vectorized level-1 evaluation: currents and conductances at x.

    With vov clamped at zero and vmin = min(vds, vov), one polynomial
    covers cutoff, triode and saturation:
        i   = beta * vmin * (vov - vmin/2) * clm
        gm  = beta * vmin * clm
        gds = beta * (max(vov - vds, 0) * clm + poly * lambda)
    which reduces to the familiar per-region forms. A reversed channel
    (vds < 0) is evaluated with drain and source exchanged.
    """
    vgs, vds = (c.m_gather @ x).reshape(2, -1)
    swap = vds < 0.0
    vds_c = np.abs(vds)
    vov = np.where(swap, vgs - vds, vgs) - c.m_vth
    np.maximum(vov, 0.0, out=vov)
    vmin = np.minimum(vds_c, vov)
    poly = vmin * (vov - 0.5 * vmin)
    bclm = c.m_beta * (1.0 + c.m_lam * vds_c)
    gm_core = bclm * vmin
    ids = c.m_sign * np.copysign(bclm * poly, vds)
    gm = np.copysign(gm_core, vds)
    gds = bclm * (vov - vmin) + c.m_blam * poly  # vov - vmin = max(vov - vds, 0)
    np.add(gds, gm_core, out=gds, where=swap)
    return ids, gm, gds


def _source_values(c: _Compiled, times: list[float]) -> np.ndarray:
    """Source voltages, shape (len(times), n_sources)."""
    out = np.empty((len(times), len(c.sources)))
    for j, src in enumerate(c.sources):
        out[:, j] = (src.volts if isinstance(src, DcSource)
                     else np.fromiter(map(src.spec.value, times), float, len(times)))
    return out


class _Point(NamedTuple):
    """One linearized time point of the companion-model system."""

    a_lin: np.ndarray  # (n, n) linear block
    weights: np.ndarray  # linear-branch conductances (1 for source currents)
    ieq: np.ndarray  # companion history currents, on the branch currents
    rhs: np.ndarray  # (n,) history currents into nodes, source voltages


class _Kernel:
    """Step assembly shared by the DC solve, the transient and the KCL
    replay: one residual, one tolerance test, one Newton iteration."""

    def __init__(self, c: _Compiled, opt: SimOptions):
        self.c = c
        self.opt = opt
        self.a0_num = 1.0 if opt.integrator == BACKWARD_EULER else 2.0
        self.trap = opt.integrator == TRAPEZOIDAL
        self.abs_tol = np.concatenate([np.full(c.n_nodes, opt.abstol_i),
                                       np.full(c.n - c.n_nodes, opt.abstol_v)])
        self._linear: dict[float | None, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def point(self, h: float | None, vsrc: np.ndarray, x_prev: np.ndarray | None = None,
              i_prev: np.ndarray | None = None) -> _Point:
        """Time point of step size h after x_prev (h None: DC)."""
        c = self.c
        cached = self._linear.get(h)
        if cached is None:
            a0 = 0.0 if h is None else self.a0_num / h
            geq = a0 * c.c_val
            cached = (c.g_static + a0 * c.cap_pattern,
                      np.concatenate([c.r_g, geq, np.ones(c.n - c.n_nodes + 1)]), geq)
            self._linear[h] = cached
        a_lin, weights, geq = cached
        ieq = np.zeros(len(c.m_d) + len(weights))
        if x_prev is None:
            rhs = np.zeros(c.n)
        else:
            history = geq * (c.cap_gather @ x_prev)
            if self.trap:
                history += i_prev
            ieq[c.cap] = history
            rhs = c.cap_kcl @ history
        rhs[c.n_nodes:] = vsrc
        return _Point(a_lin, weights, ieq, rhs)

    def residual(self, p: _Point, x: np.ndarray):
        """KCL/constraint residual f, per-row scale, branch currents and
        the MOSFET conductances at x."""
        c = self.c
        ids, gm, gds = _mosfet_eval(c, x)
        cur = np.concatenate([ids, p.weights * (c.lin_gather @ x)]) - p.ieq
        scale = np.maximum.reduceat(np.abs(cur)[c.ends], c.starts)
        f = p.a_lin @ x[: c.n] + c.m_kcl @ ids - p.rhs
        return f, scale, cur, (gm, gds)

    def tolerance(self, scale: np.ndarray) -> np.ndarray:
        return self.abs_tol + self.opt.reltol * scale

    def converged(self, f: np.ndarray, scale: np.ndarray) -> bool:
        return not (np.abs(f) > self.tolerance(scale)).any()

    def node_ratios(self, f: np.ndarray, scale: np.ndarray) -> np.ndarray:
        k = self.c.n_nodes
        return np.abs(f[:k]) / self.tolerance(scale)[:k]

    def worst_node(self, f: np.ndarray, scale: np.ndarray) -> str:
        return self.c.node_names[int(np.argmax(self.node_ratios(f, scale)))]

    def jacobian(self, p: _Point, g: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        c = self.c
        stamps = np.bincount(c.j_index, c.j_coef @ np.concatenate(g), c.n * c.n)
        return p.a_lin + stamps.reshape(c.n, c.n)

    def newton(self, p: _Point, x0: np.ndarray):
        """Newton iteration with per-node voltage damping.

        Returns (x, converged, f, scale, cur); f/scale/cur evaluated at x.
        """
        c = self.c
        x = x0.copy()
        f, scale, cur, g = self.residual(p, x)
        for _ in range(self.opt.max_newton_iters):
            if self.converged(f, scale):
                return x, True, f, scale, cur
            try:
                dx = np.linalg.solve(self.jacobian(p, g), -f)
            except np.linalg.LinAlgError:
                return x, False, f, scale, cur
            vmax = np.abs(dx[: c.n_nodes]).max() if c.n_nodes else 0.0
            if vmax > _NEWTON_DAMP_V:
                dx *= _NEWTON_DAMP_V / vmax
            x[: c.n] += dx
            f, scale, cur, g = self.residual(p, x)
        return x, self.converged(f, scale), f, scale, cur


def _dc_solve(k: _Kernel, t: float = 0.0) -> np.ndarray:
    c = k.c
    p = k.point(None, _source_values(c, [t])[0])
    x, ok, f, scale, _ = k.newton(p, np.zeros(c.naug))
    if ok:
        return x
    # gmin stepping: heavy extra shunt first, relaxed by a decade per pass,
    # finishing with a pass at the bare target gmin (already in g_static)
    ladder = []
    g = _GMIN_LADDER_START
    while g > max(k.opt.gmin, 1e-15):
        ladder.append(g)
        g /= 10.0
    ladder.append(0.0)
    shunt = np.diag((np.arange(c.n) < c.n_nodes).astype(float))
    x = np.zeros(c.naug)
    for g in ladder:
        x, ok, f, scale, _ = k.newton(p._replace(a_lin=p.a_lin + g * shunt), x)
        if not ok:
            worst = k.worst_node(f, scale)
            raise SolverError(
                "DC operating point did not converge "
                f"(gmin step {g:g} S, worst node {worst!r})",
                time=t,
                node=worst,
            )
    return x


def dc_operating_point(netlist: Netlist, options: SimOptions | None = None) -> dict[str, float]:
    """Newton DC solve; returns node-name -> voltage (ground included)."""
    opt = options or SimOptions()
    opt.validate()
    c = _compile(netlist, opt.gmin)
    x = _dc_solve(_Kernel(c, opt))
    out = {name: float(x[i]) for i, name in enumerate(c.node_names)}
    out[netlist.ground] = 0.0
    return out


def _resolve_dt(net: Netlist, opt: SimOptions) -> float:
    if opt.dt is not None:
        return opt.dt
    periods = [d.spec.period for d in net.devices if isinstance(d, PulseSource)]
    if periods:
        return min(0.5e-12, min(periods) / 2000.0)
    if opt.t_stop is None:
        raise ValueError("t_stop is required")
    return opt.t_stop / 1000.0


def _time_axis(net: Netlist, dt: float, t_stop: float) -> np.ndarray:
    n = int(np.floor(t_stop / dt + 1e-9))
    points = [np.arange(n + 1) * dt, np.array([t_stop])]
    for d in net.devices:
        if isinstance(d, PulseSource):
            points.append(np.array(d.spec.breakpoints(t_stop)))
    t = np.unique(np.concatenate(points))
    t = t[(t >= 0.0) & (t <= t_stop)]
    # merge points closer than dt * 1e-6 (keeps companion steps well scaled)
    eps = dt * 1e-6
    mask = np.concatenate([[True], np.diff(t) > eps])
    t = t[mask]
    if t[-1] < t_stop - eps:
        t = np.append(t, t_stop)
    return t


def transient(
    netlist: Netlist,
    options: SimOptions,
    initial_voltages: dict[str, float] | None = None,
) -> TransientResult:
    """Integrate from the DC operating point (or explicit initial node
    voltages) to t_stop. Pulse-source corner times are exact time points;
    a non-convergent step is bisected up to 8 times before raising."""
    opt = options
    opt.validate()
    if opt.t_stop is None:
        raise ValueError("t_stop is required")
    c = _compile(netlist, opt.gmin)
    dt = _resolve_dt(netlist, opt)
    if opt.t_stop <= dt:
        raise ValueError("t_stop must exceed dt")
    axis = _time_axis(netlist, dt, opt.t_stop).tolist()
    vsrc = _source_values(c, axis)
    k = _Kernel(c, opt)

    if initial_voltages is None:
        x = _dc_solve(k, t=axis[0])
    else:
        x = np.zeros(c.naug)
        for name, v in initial_voltages.items():
            if name == netlist.ground:
                continue
            x[c.node_names.index(name)] = v

    times, rows, i_prev = [axis[0]], [x], np.zeros(len(c.c_val))
    for j in range(1, len(axis)):
        # targets still to reach from the last accepted point; a failed
        # step is halved and both halves are tried one level deeper
        pending = [(axis[j], vsrc[j], 0)]
        while pending:
            t0, (t1, v1, depth) = times[-1], pending[-1]
            p = k.point(t1 - t0, v1, rows[-1], i_prev)
            x_new, ok, f, scale, cur = k.newton(p, rows[-1])
            if ok:
                times.append(t1)
                rows.append(x_new)
                i_prev = cur[c.cap]
                pending.pop()
            elif depth < _MAX_STEP_HALVINGS:
                tm = 0.5 * (t0 + t1)
                pending[-1] = (t1, v1, depth + 1)
                pending.append((tm, _source_values(c, [tm])[0], depth + 1))
            else:
                worst = k.worst_node(f, scale)
                raise SolverError(
                    f"transient Newton failed at t = {t1:.6e} s (worst node {worst!r})",
                    time=t1,
                    node=worst,
                )

    data = np.array(rows)
    return TransientResult(
        time=np.array(times),
        node_names=c.node_names,
        voltages=data[:, : c.n_nodes],
        source_names=[s.name for s in c.sources],
        branch_currents=data[:, c.n_nodes : c.n],
        probes=dict(netlist.probes),
        supply_source=c.supply,
    )


def kcl_residual_ratio(netlist: Netlist, result: TransientResult,
                       options: SimOptions) -> float:
    """Re-evaluate KCL at every accepted point of a DC-started run.

    Returns the worst ratio |residual| / tolerance over all nodes and
    points (<= 1 means the whole run is within tolerance). Capacitor
    companion state is replayed from the stored solution through the
    transient's own step kernel.
    """
    opt = options
    c = _compile(netlist, opt.gmin)
    k = _Kernel(c, opt)
    n_pts = len(result.time)
    x_all = np.hstack([result.voltages, result.branch_currents, np.zeros((n_pts, 1))])
    times = result.time.tolist()
    vsrc = _source_values(c, times)
    f, scale, _, _ = k.residual(k.point(None, vsrc[0]), x_all[0])
    worst = float(np.max(k.node_ratios(f, scale)))
    i_prev = np.zeros(len(c.c_val))
    for j in range(1, n_pts):
        p = k.point(times[j] - times[j - 1], vsrc[j], x_all[j - 1], i_prev)
        f, scale, cur, _ = k.residual(p, x_all[j])
        worst = max(worst, float(np.max(k.node_ratios(f, scale))))
        i_prev = cur[c.cap]
    return worst
