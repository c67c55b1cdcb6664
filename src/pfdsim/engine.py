"""Modified nodal analysis engine: DC operating point and fixed-step
transient integration.

Unknowns are the non-ground node voltages plus one branch current per
voltage source; state vectors carry one more slot, for ground, held at 0.
Capacitors (including the lumped MOSFET gate capacitances) enter through
backward-Euler or trapezoidal companion models; MOSFETs are linearized
each Newton iteration. Solves use dense LU -- the targeted circuits have
tens of unknowns: `_lu_solve` calls LAPACK gesv through the gufunc that
`numpy.linalg.solve` wraps (`numpy.linalg._umath_linalg.solve1`), skipping
the wrapper's per-call checks, conversions and error state. That module is
private to numpy, so the tests pin the helper bit for bit to
`numpy.linalg.solve`, and CI runs the oldest and the newest supported
numpy. The MOSFET equations are `devices.mosfet_eval`'s; the engine
gathers every device's bias and calls it once per state.

Each `transient` and `dc_operating_point` call enters one floating-point
error state for its whole run, `np.errstate(all="ignore")`, and restores
the caller's on exit. A singular Jacobian then gives an all-NaN update (the
gufunc sets only the invalid flag), which ends that Newton iteration
unconverged, uncounted, as `LinAlgError` did when the state was entered per
solve; so the step is halved and, at the halving limit, the run ends in
`SolverError`, without a warning. The same state silences the overflow,
division and invalid warnings that the rest of a run could raise on a
diverging state; no value changes, and a NaN residual is still never
accepted (below).

One step kernel (`_Kernel`) assembles every time point of the DC solve
(its a0 = 0 case), the transient and the KCL replay (a zero-iteration
Newton call per point) from matrices that `_compile` builds once.
`_Kernel.newton` is the one Newton iteration: residual, acceptance test,
Jacobian, damping and device gather are written out in it, with the
compiled arrays bound to locals once per call, so the only calls it makes
per iteration are `mosfet_eval` and the LU solve, and it makes no scatter:
- one incidence product gives every MOSFET's (vgs, vds) and every linear
  branch voltage and source current; others carry the MOSFET and
  capacitor companion currents into the KCL rows, and the companion
  history is subtracted from the capacitor currents alone;
- the per-node tolerance is abs_tol + reltol * a `np.maximum.reduceat`
  over a node-sorted gather of branch-current magnitudes, so it is exact;
- the Jacobian is built in the reduced, ground-free system: the linear
  block, cached per step size, plus one product of a precomputed
  (n * n, 2 n_mos) stamp matrix with the conductances (gm, gds).
Each state's device evaluation is computed once: the accepted point's
evaluation seeds the first residual of the next step, which starts from
that same state (SPICE2's device bypass, taken only where the state is
unchanged, so every value is the same), and its capacitor voltages give
that step's companion history (each is fl(v_a - v_b) whichever product
forms it). A time point of a PFD run at 1 GHz costs about 43 us of engine
time (45 us with the error state entered per solve and a helper call per
step; 2-CPU VM, Python 3.11, numpy 2.4).

A step is accepted when every node's Kirchhoff current residual is
within abstol_i + reltol * (largest branch current at that node) and
every source branch satisfies its voltage constraint to abstol_v; one
comparison, `(|f| <= tol).all()`, covers both and fails on NaN. The
residual test runs before the first Newton update, so quiescent
stretches where the previous solution still satisfies the tolerance
advance without refactoring. Each run counts its work in `SimStats`
(accepted points, LU solves, device evaluations, steps accepted without a
solve, step halvings), returned as `TransientResult.stats`.
`kcl_residual_ratio` replays the accepted points through the same kernel
and arithmetic, so its ratio is at most 1 exactly when acceptance held.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from pfdsim.devices import mosfet_eval
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


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b, for one float64 system: `np.linalg.solve(a, b)`
    without its argument checks, conversions and error state. It calls the
    LAPACK gesv gufunc that `np.linalg.solve` wraps, so the result is
    bit-equal; a singular `a` gives all NaN, with the invalid flag set.
    `_umath_linalg` is private to numpy; the tests pin this helper to
    `np.linalg.solve`."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


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
        # written as `not (x > 0)` so that NaN fails too
        if not self.reltol > 0:
            raise ValueError("reltol must be > 0")
        if not (self.abstol_v > 0 and self.abstol_i > 0):
            raise ValueError("absolute tolerances must be > 0")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.t_stop is not None and self.dt is not None and not self.t_stop > self.dt:
            raise ValueError("t_stop must exceed dt")
        if self.integrator not in (BACKWARD_EULER, TRAPEZOIDAL):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not self.max_newton_iters >= 1:
            raise ValueError("max_newton_iters must be >= 1")
        if not self.gmin >= 0:
            raise ValueError("gmin must be >= 0")


@dataclass
class Waveform:
    """One scalar signal sampled on a shared, strictly increasing time axis."""

    t: np.ndarray
    v: np.ndarray

    def at(self, time: float) -> float:
        return float(np.interp(time, self.t, self.v))


@dataclass
class SimStats:
    """Work counters of one run (the DC solve included), in the manner of
    SPICE2's run statistics. Every device evaluation but the first follows
    an LU solve, so device_evals == lu_solves + 1."""

    points: int = 0  # accepted time points, the starting point included
    lu_solves: int = 0  # Newton iterations: one LU factorisation and solve each
    device_evals: int = 0  # MOSFET model evaluations, one per Newton state
    steps_without_solve: int = 0  # steps whose starting state was accepted as is
    step_halvings: int = 0  # failed steps split in two


@dataclass
class TransientResult:
    time: np.ndarray
    node_names: list[str]
    voltages: np.ndarray  # (n_points, n_nodes)
    source_names: list[str]
    branch_currents: np.ndarray  # (n_points, n_sources), current p->m through source
    probes: dict[str, str]
    supply_source: str | None
    stats: SimStats

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
    capacitors, sources, and one zero entry. `gather @ x` gives every
    MOSFET's sign*(vg - vs), then its sign*(vd - vs), then the linear
    branches' voltages and source currents (and the zero entry).
    """

    n_nodes: int
    n: int
    naug: int
    node_names: list[str]
    sources: list[DcSource | PulseSource]
    supply: str | None
    r_g: np.ndarray
    c_val: np.ndarray
    m_beta: np.ndarray
    m_vth: np.ndarray
    m_lam: np.ndarray
    m_sign: np.ndarray
    m_blam: np.ndarray  # beta * lambda
    g_static: np.ndarray  # (n, n) resistor + gmin + source-pattern stamps
    cap_pattern: np.ndarray  # (n, n) capacitance stamps, scaled by a0 per step
    gather: np.ndarray  # (2 n_mos + n_lin, naug): MOSFET biases, then linear branches
    m_kcl: np.ndarray  # (n, n_mos): drain +1, source -1
    cap_kcl: np.ndarray  # (n, n_cap): plate a +1, plate b -1
    cap: slice  # capacitors within the branch currents
    ends: np.ndarray  # branch-current index of each branch end, sorted by row
    starts: np.ndarray  # first entry of each row in ends
    j_stamps: np.ndarray  # (n * n, 2 n_mos): the MOSFET Jacobian stamps on (gm, gds)


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
    j_stamps = np.zeros((n, n, 2 * n_mos))
    for k, (d, g, s) in enumerate(zip(m_d.tolist(), m_g.tolist(), m_s.tolist())):
        for row, col, cg, cd in ((d, g, 1, 0), (d, d, 0, 1), (d, s, -1, -1),
                                 (s, g, -1, 0), (s, d, 0, -1), (s, s, 1, 1)):
            if row < n and col < n:
                j_stamps[row, col, k] += cg
                j_stamps[row, col, n_mos + k] += cd
    m_beta = np.array([m.params.beta for m in m_list])
    m_lam = np.array([m.params.lam for m in m_list])

    return _Compiled(
        n_nodes=n_nodes,
        n=n,
        naug=naug,
        node_names=node_names,
        sources=sources,
        supply=supply,
        r_g=r_g,
        c_val=c_val,
        m_beta=m_beta,
        m_vth=np.array([abs(m.params.vth0) for m in m_list]),
        m_lam=m_lam,
        m_sign=m_sign,
        m_blam=m_beta * m_lam,
        g_static=g_static,
        cap_pattern=cap_n.T @ (c_val[:, None] * cap_n),
        gather=np.vstack([_pairs(m_g, m_s, naug, m_sign),
                          _pairs(m_d, m_s, naug, m_sign),
                          lin_gather]),
        m_kcl=_pairs(m_d, m_s, naug)[:, :n].T.copy(),
        cap_kcl=cap_n.T.copy(),
        cap=slice(n_mos + len(r_a), n_mos + len(r_a) + len(c_a)),
        ends=ints(ends),
        starts=ints(starts),
        j_stamps=j_stamps.reshape(n * n, 2 * n_mos),
    )


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
    weights: np.ndarray  # per branch current: 1, or its (companion) conductance
    ieq: np.ndarray | None  # capacitor companion history currents (None: DC)
    rhs: np.ndarray  # (n,) history currents into nodes, source voltages


class _Kernel:
    """Step assembly shared by the DC solve, the transient and the KCL
    replay: one companion time point and one Newton iteration. It counts
    its device evaluations and LU solves in `stats`."""

    def __init__(self, c: _Compiled, opt: SimOptions):
        self.c = c
        self.opt = opt
        self.stats = SimStats()
        self.a0_num = 1.0 if opt.integrator == BACKWARD_EULER else 2.0
        self.trap = opt.integrator == TRAPEZOIDAL
        self.abs_tol = np.concatenate([np.full(c.n_nodes, opt.abstol_i),
                                       np.full(c.n - c.n_nodes, opt.abstol_v)])
        self._linear: dict[float | None, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def point(self, h: float | None, vsrc: np.ndarray, cap_v: np.ndarray | None = None,
              i_prev: np.ndarray | None = None) -> _Point:
        """Time point of step size h after a state whose capacitor voltages
        are cap_v and capacitor currents i_prev (h None: DC)."""
        c = self.c
        cached = self._linear.get(h)
        if cached is None:
            a0 = 0.0 if h is None else self.a0_num / h
            geq = a0 * c.c_val
            cached = (c.g_static + a0 * c.cap_pattern,
                      np.concatenate([np.ones(len(c.m_sign)), c.r_g, geq,
                                      np.ones(c.n - c.n_nodes + 1)]), geq)
            self._linear[h] = cached
        a_lin, weights, geq = cached
        if cap_v is None:
            history, rhs = None, np.zeros(c.n)
        else:
            history = geq * cap_v
            if self.trap:
                history += i_prev
            rhs = c.cap_kcl.dot(history)
        rhs[c.n_nodes:] = vsrc
        return _Point(a_lin, weights, history, rhs)

    def node_ratios(self, f: np.ndarray, tol: np.ndarray) -> np.ndarray:
        k = self.c.n_nodes
        return np.abs(f[:k]) / tol[:k]

    def worst_node(self, f: np.ndarray, tol: np.ndarray) -> str:
        return self.c.node_names[int(np.argmax(self.node_ratios(f, tol)))]

    def newton(self, p: _Point, x0: np.ndarray, ev0: tuple | None = None,
               iters: int | None = None):
        """Newton iteration with per-node voltage damping from x0, whose
        device evaluation is ev0 (None: evaluate x0 first). It makes at most
        `iters` LU solves (default `max_newton_iters`); 0 only evaluates
        the residual at x0.

        Returns (x, converged, f, tol, cur, ev), f/tol/cur/ev at x:
        - f, the KCL/constraint residual, and tol, its per-row tolerance
          abs_tol + reltol * (largest branch current at the row);
        - cur, the branch currents: MOSFETs', then the linear branches';
        - ev = (dev, branch, kcl), x's device evaluation: the (ids, gm, gds)
          rows, the MOSFET currents followed by the linear branch voltages
          (capacitors at `c.cap`) and source currents, and the MOSFET
          currents into the KCL rows.
        Each LU solve that succeeds is counted and followed by one
        evaluation. A singular Jacobian gives a NaN update (the run's error
        state ignores the invalid flag) and ends the iteration unconverged.
        """
        c, stats, opt = self.c, self.stats, self.opt
        solve, device = _lu_solve, mosfet_eval
        n, n_nodes, m = c.n, c.n_nodes, len(c.m_sign)
        gather, m_kcl, j_stamps, ends, starts = c.gather, c.m_kcl, c.j_stamps, c.ends, c.starts
        caps = c.cap
        beta, vth, lam, sign, blam = c.m_beta, c.m_vth, c.m_lam, c.m_sign, c.m_blam
        reltol, abs_tol = opt.reltol, self.abs_tol
        a_lin, weights, ieq, rhs = p
        if iters is None:
            iters = opt.max_newton_iters
        x, ev = x0.copy(), ev0
        unknowns = x[:n]  # a view: ground stays 0
        for it in range(iters + 1):
            if ev is None:
                stats.device_evals += 1
                y = gather.dot(x)  # vgs, vds, then the linear branches
                dev = device(y[:m], y[m: 2 * m], beta, vth, lam, sign, blam)
                ids = dev[0]
                y[m: 2 * m] = ids
                ev = (dev, y[m:], m_kcl.dot(ids))
            dev, branch, kcl = ev
            cur = weights * branch
            if ieq is not None:
                cap = cur[caps]  # a view
                cap -= ieq
            tol = np.maximum.reduceat(np.abs(cur).take(ends), starts)
            tol *= reltol
            tol += abs_tol
            f = a_lin.dot(unknowns)
            f += kcl
            f -= rhs
            if np.logical_and.reduce(np.abs(f) <= tol):  # False on NaN
                return x, True, f, tol, cur, ev
            if it == iters:
                break
            jac = j_stamps.dot(dev[1:].reshape(-1)).reshape(n, n)  # on (gm, gds)
            jac += a_lin
            dx = solve(jac, f)
            vmax = np.maximum.reduce(np.abs(dx[:n_nodes]), initial=0.0)
            if vmax != vmax:  # NaN: the Jacobian was singular
                break
            stats.lu_solves += 1
            if vmax > _NEWTON_DAMP_V:
                dx *= _NEWTON_DAMP_V / vmax
            unknowns -= dx
            ev = None
        return x, False, f, tol, cur, ev


def _dc_solve(k: _Kernel, t: float = 0.0) -> tuple[np.ndarray, tuple]:
    """DC solution and its device evaluation."""
    c = k.c
    p = k.point(None, _source_values(c, [t])[0])
    zero = np.zeros(c.naug)
    # the zero state's evaluation, which the gmin ladder starts from too
    ev_zero = k.newton(p, zero, iters=0)[-1]
    x, ok, f, tol, _, ev = k.newton(p, zero, ev_zero)
    if ok:
        return x, ev
    # gmin stepping: heavy extra shunt first, relaxed by a decade per pass,
    # finishing with a pass at the bare target gmin (already in g_static)
    ladder = []
    g = _GMIN_LADDER_START
    while g > max(k.opt.gmin, 1e-15):
        ladder.append(g)
        g /= 10.0
    ladder.append(0.0)
    shunt = np.diag((np.arange(c.n) < c.n_nodes).astype(float))
    x, ev = zero, ev_zero
    for g in ladder:
        x, ok, f, tol, _, ev = k.newton(p._replace(a_lin=p.a_lin + g * shunt), x, ev)
        if not ok:
            worst = k.worst_node(f, tol)
            raise SolverError(
                "DC operating point did not converge "
                f"(gmin step {g:g} S, worst node {worst!r})",
                time=t,
                node=worst,
            )
    return x, ev


def dc_operating_point(netlist: Netlist, options: SimOptions | None = None) -> dict[str, float]:
    """Newton DC solve; returns node-name -> voltage (ground included)."""
    opt = options or SimOptions()
    opt.validate()
    c = _compile(netlist, opt.gmin)
    with np.errstate(all="ignore"):
        x, _ = _dc_solve(_Kernel(c, opt))
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
    if not opt.t_stop > dt:
        raise ValueError("t_stop must exceed dt")
    axis = _time_axis(netlist, dt, opt.t_stop).tolist()
    vsrc = _source_values(c, axis)
    k = _Kernel(c, opt)
    stats = k.stats
    with np.errstate(all="ignore"):  # the run's error state, see the module docstring
        if initial_voltages is None:
            x, ev = _dc_solve(k, t=axis[0])
        else:
            x = np.zeros(c.naug)
            for name, v in initial_voltages.items():
                if name == netlist.ground:
                    continue
                x[c.node_names.index(name)] = v
            ev = k.newton(k.point(None, vsrc[0]), x, iters=0)[-1]

        times, rows, i_prev = [axis[0]], [x], np.zeros(len(c.c_val))
        for j in range(1, len(axis)):
            # targets still to reach from the last accepted point; a failed
            # step is halved and both halves are tried one level deeper. Every
            # attempt starts from rows[-1], whose evaluation ev is kept and
            # gives the step's capacitor history
            pending = [(axis[j], vsrc[j], 0)]
            while pending:
                t0, (t1, v1, depth) = times[-1], pending[-1]
                p = k.point(t1 - t0, v1, ev[1][c.cap], i_prev)
                solves = stats.lu_solves
                x_new, ok, f, tol, cur, ev_new = k.newton(p, rows[-1], ev)
                if ok:
                    stats.steps_without_solve += stats.lu_solves == solves
                    times.append(t1)
                    rows.append(x_new)
                    i_prev, ev = cur[c.cap], ev_new
                    pending.pop()
                elif depth < _MAX_STEP_HALVINGS:
                    stats.step_halvings += 1
                    tm = 0.5 * (t0 + t1)
                    pending[-1] = (t1, v1, depth + 1)
                    pending.append((tm, _source_values(c, [tm])[0], depth + 1))
                else:
                    worst = k.worst_node(f, tol)
                    raise SolverError(
                        f"transient Newton failed at t = {t1:.6e} s (worst node {worst!r})",
                        time=t1,
                        node=worst,
                    )

    stats.points = len(times)
    data = np.array(rows)
    return TransientResult(
        time=np.array(times),
        node_names=c.node_names,
        voltages=data[:, : c.n_nodes],
        source_names=[s.name for s in c.sources],
        branch_currents=data[:, c.n_nodes : c.n],
        probes=dict(netlist.probes),
        supply_source=c.supply,
        stats=stats,
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
    _, _, f, tol, _, ev = k.newton(k.point(None, vsrc[0]), x_all[0], iters=0)
    worst = float(np.max(k.node_ratios(f, tol)))
    i_prev = np.zeros(len(c.c_val))
    for j in range(1, n_pts):
        p = k.point(times[j] - times[j - 1], vsrc[j], ev[1][c.cap], i_prev)
        _, _, f, tol, cur, ev = k.newton(p, x_all[j], iters=0)
        worst = max(worst, float(np.max(k.node_ratios(f, tol))))
        i_prev = cur[c.cap]
    return worst
