"""Modified nodal analysis engine: DC operating point and fixed-step
transient integration. README's "Engine" section describes it; this
docstring keeps the invariants the code relies on.

- A state vector is exactly the n unknowns: the non-ground node voltages,
  then one branch current per voltage source. Ground is the reference and
  has no entry.
- `SimOptions` is frozen, holds solver settings only and checks each field
  when it is made. The run length is `transient(netlist, options, t_stop)`'s
  own argument, as SPICE2 keeps `.OPTIONS` apart from `.TRAN`'s stop
  time. `_time_axis` is the one owner of a run's time axis: it resolves
  dt, checks t_stop against it and builds the step grid and every pulse
  corner, refusing what numpy cannot allocate. Every time axis starts at
  t = 0, where the DC operating point is solved. Each run
  (`transient`, `dc_operating_point`, `kcl_residual_ratio`) builds one
  step kernel, `_Kernel(netlist, options)`, which refuses an invalid
  netlist with `NetlistError`; a `SolverError` from a run is a failed
  solve, named by its time and node. The kernel's constant matrices all
  come from signed branch incidence rows (+1 at a branch's plus node, -1
  at its minus node; the modified nodal approach of Ho, Ruehli and
  Brennan, IEEE TCAS 22(6), 1975).
- `_Kernel.newton` is the one Newton iteration. Per iteration it calls only
  `devices.mosfet_eval`, `_Kernel.tolerance` and `_lu_solve`, which calls
  the LAPACK gesv gufunc that `numpy.linalg.solve` wraps. That gufunc is
  private to numpy, so the tests pin `_lu_solve` bit for bit to
  `numpy.linalg.solve`.
- A step is accepted when `(|f| <= tol).all()`, with tol = abstol +
  reltol * (largest branch current at the row), `_Kernel.tolerance`. The
  comparison fails on NaN, so a NaN residual is never accepted. The test
  runs before the first Newton update, so a state that still satisfies it
  costs no LU solve. Each such `.all()` is written as a byte compare of
  `(|f| <= tol).tobytes()` with the all-True bytes the kernel builds once:
  a numpy comparison writes only the bytes 0 and 1, so it decides as
  `np.logical_and.reduce`.
- The per-iteration path makes no ufunc reduction for a yes/no test and
  gives no ufunc a Python-float operand; its constants are 0-d float64
  arrays. On arrays of 16 entries numpy's fixed cost per call outweighs
  the arithmetic: a reduction costs about 2 us against 0.2 us for a byte
  compare, and a Python float adds about 0.5 us per call (numpy 2.4). The
  damping check is a byte compare too. When every |dx| over the node rows
  is within `_NEWTON_DAMP_V`, the update has no NaN and is not damped;
  otherwise the exact rule runs: vmax = max(0, max |dx|), a NaN vmax ends
  the iteration uncounted, and dx is scaled by the bound / vmax when vmax
  exceeds it.
- After an update, a state is first tested on the floor
  `(|f| <= abstol).all()`, and tol is built only when that fails. This
  decides as the full test does. For a finite or infinite scale s >= 0,
  tol = fl(fl(s * reltol) + abstol) >= abstol, as rounding is monotone.
  A NaN scale needs a NaN branch current, which comes from a NaN or
  infinite entry of the state, the MOSFET currents or the capacitor
  history; each enters f through a dot product (0 * NaN and 0 * inf are
  NaN), so f is not finite and the floor rejects the state. The test at a
  call's start, which mostly rejects, and every `iters=0` call (the KCL
  replay) build tol, as does every unconverged return.
- Each state's device evaluation is computed once. The accepted point's
  evaluation seeds the next step's first residual and gives its capacitor
  history, so every value is the one a fresh evaluation would give.
- `transient` appends a step without a Newton call only when it provably
  repeats a held state: an axis step of size h was accepted without an LU
  solve and left the capacitor currents bytewise unchanged, and the source
  rows have stayed bitwise equal since. A source change, a step that needs
  a solve and a halved step clear the record. Every float and counter is
  the same as without the hold.
- `transient` and `dc_operating_point` run in one floating-point error
  state, `np.errstate(all="ignore")`, and restore the caller's on exit. A
  singular Jacobian gives an all-NaN update, which ends that Newton
  iteration unconverged; the step is halved and, at the halving limit, the
  run ends in `SolverError`, without a warning.
- `transient` writes each accepted state into two preallocated float64
  blocks, the time vector and the n unknowns. Every axis point is accepted
  once and each halving adds one point, so len(axis) rows are exact;
  halvings grow the blocks by half, and the result holds exact-length
  copies. `voltages` and `branch_currents` are column views of the one
  state block.
- `SimStats` counts each run's work; `kcl_residual_ratio` replays the
  accepted points through the same kernel and arithmetic, so its ratio is
  at most 1 exactly when acceptance held.
"""

from __future__ import annotations

import math
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
    NetlistError,
    PulseSource,
    Resistor,
)

# the companion models, the default first
INTEGRATORS = ("trapezoidal", "backward_euler")

_GMIN_LADDER_START = 1e-3
_MAX_STEP_HALVINGS = 8
_NEWTON_DAMP_V = np.array(0.3)  # max node-voltage move per iteration, volts


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


@dataclass(frozen=True)
class SimOptions:
    """Solver settings, each field checked at construction (`replace`
    included). The run length is not one of them: it is `transient`'s
    t_stop, which `_time_axis` checks against the dt it resolves."""

    reltol: float = 1e-3
    abstol_v: float = 1e-6
    abstol_i: float = 1e-9
    dt: float | None = None  # None -> min(0.5 ps, fastest period / 2000)
    integrator: str = INTEGRATORS[0]
    max_newton_iters: int = 50
    gmin: float = 1e-12

    def __post_init__(self):
        # written as `not (0 < x < inf)` so that NaN fails too; an
        # infinite tolerance would accept every state unsolved
        for name in ("reltol", "abstol_v", "abstol_i"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not (isinstance(self.max_newton_iters, int) and self.max_newton_iters >= 1):
            raise ValueError(f"max_newton_iters must be an int >= 1, "
                             f"got {self.max_newton_iters!r}")
        if not 0 <= self.gmin < math.inf:
            raise ValueError(f"gmin must be finite and >= 0, got {self.gmin!r}")


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
    probes: list[str]  # the nodes written to waves.csv
    supply_source: str | None
    stats: SimStats

    def voltage(self, name: str) -> Waveform:
        try:
            col = self.node_names.index(name)
        except ValueError:
            raise KeyError(f"unknown node {name!r}") from None
        return Waveform(self.time, self.voltages[:, col])

    def supply_current(self) -> Waveform:
        if self.supply_source is None:
            raise KeyError("no supply source present")
        col = self.source_names.index(self.supply_source)
        # positive = current delivered into the circuit
        return Waveform(self.time, -self.branch_currents[:, col])

    def to_csv(self, path: str | Path) -> None:
        """Write `t,<probes...>,i_vdd` rows at full double precision to the
        file at `path`."""
        names = list(self.probes)
        cols = [self.time] + [self.voltage(n).v for n in names]
        if self.supply_source:
            names.append("i_vdd")
            cols.append(self.supply_current().v)
        with open(path, "w") as fh:
            fh.write(",".join(["t"] + names) + "\n")
            for k in range(0, len(self.time), 1024):  # blocks bound the Python floats alive
                block = np.column_stack([col[k : k + 1024] for col in cols]).tolist()
                fh.writelines(",".join(map(repr, row)) + "\n" for row in block)


def _source_values(k: _Kernel, times) -> np.ndarray:
    """Source voltages at a sequence of times, shape (len(times), n_sources)."""
    t = np.asarray(times, dtype=float)
    out = np.empty((len(t), len(k.sources)))
    for j, src in enumerate(k.sources):
        out[:, j] = src.volts if isinstance(src, DcSource) else src.spec.values(t)
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
    its device evaluations and LU solves in `stats`.

    State vectors hold the n unknowns: node voltages, then source branch
    currents. The n equations are the node KCL rows, then one voltage
    constraint per source. The branch currents are the MOSFETs', then the
    linear branches': resistors, capacitors (the lumped gate capacitances
    interleaved in device order), sources, and one zero entry. Every
    constant matrix comes from signed incidence rows over the n unknowns
    (+1 at a branch's plus node, -1 at its minus node): `gather @ x` gives
    every MOSFET's sign*(vg - vs), then its sign*(vd - vs), then the linear
    branches' voltages and source currents (and the zero entry).
    """

    def __init__(self, net: Netlist, opt: SimOptions):
        violations = net.validate()
        if violations:
            raise NetlistError("invalid netlist: " + "; ".join(violations))
        self.opt = opt
        self.stats = SimStats()
        self.node_names = [name for name in net.nodes if name != net.ground]
        self.sources = net.sources()
        self.supply = next((s.name for s in self.sources if isinstance(s, DcSource)), None)
        self.n_nodes = n_nodes = len(self.node_names)
        self.n = n = n_nodes + len(self.sources)
        index = {name: i for i, name in enumerate(self.node_names)}
        index[net.ground] = n

        def incidence(branches, weight=None) -> np.ndarray:
            """One row per (plus, minus) branch over the n unknowns: +weight
            in column plus, -weight in column minus (weight 1 by default; a
            sign set here, not multiplied in later, leaves no -0.0 entry). A
            ground end lands in column n, which is dropped: the reduced
            incidence of the ground-referenced system."""
            ab = np.array([(index[a], index[b]) for a, b in branches],
                          dtype=np.intp).reshape(-1, 2)
            w = np.ones(len(ab)) if weight is None else weight
            rows = np.zeros((len(ab), n + 1))
            k = np.arange(len(ab))
            np.add.at(rows, (k, ab[:, 0]), w)
            np.add.at(rows, (k, ab[:, 1]), -w)
            return rows[:, :n]

        res, r_g, caps, c_val, mos = [], [], [], [], []
        for d in net.devices:
            if isinstance(d, Resistor):
                res.append((d.a, d.b))
                r_g.append(1.0 / d.ohms)
            elif isinstance(d, Capacitor):
                caps.append((d.a, d.b))
                c_val.append(d.farads)
            elif isinstance(d, Mosfet):
                mos.append(d)
                # lumped gate capacitances become ordinary capacitors
                for cval, other in ((d.params.cgs, d.source), (d.params.cgd, d.drain)):
                    if cval > 0:
                        caps.append((d.gate, other))
                        c_val.append(cval)
        m = len(mos)
        self.r_g, self.c_val = np.array(r_g), np.array(c_val)
        self.m_sign = np.array([1.0 if d.params.polarity == "nmos" else -1.0 for d in mos])
        self.m_beta = np.array([d.params.beta for d in mos])
        self.m_vth = np.array([abs(d.params.vth0) for d in mos])
        self.m_lam = np.array([d.params.lam for d in mos])
        self.m_blam = self.m_beta * self.m_lam

        # MOSFET gate rows (g - s), then channel rows (d - s)
        bias = [(d.gate, d.source) for d in mos] + [(d.drain, d.source) for d in mos]
        mos_rows = incidence(bias)
        chan = mos_rows[m:]
        res_rows, cap_rows = incidence(res), incidence(caps)
        src_rows = incidence([(s.plus, s.minus) for s in self.sources])

        self.g_static = res_rows.T @ (self.r_g[:, None] * res_rows)  # resistors, sources, gmin
        self.g_static[n_nodes:] += src_rows
        self.g_static[:, n_nodes:] += src_rows.T
        self.g_static[:n_nodes, :n_nodes] += opt.gmin * np.eye(n_nodes)
        self.cap_pattern = cap_rows.T @ (self.c_val[:, None] * cap_rows)  # scaled by a0 per step
        self.gather = np.vstack([
            incidence(bias, np.concatenate([self.m_sign, self.m_sign])),
            res_rows,
            cap_rows,
            np.eye(n)[n_nodes:],  # source branch currents
            np.zeros((1, n)),  # pads every row's tolerance segment with a 0
        ])
        self.m_kcl = chan.T.copy()  # (n, m): drain +1, source -1
        self.cap_kcl = cap_rows.T.copy()
        self.cap = slice(m + len(res), m + len(res) + len(caps))
        # Branch ends per equation row, sorted by row; each row also holds
        # the zero entry, so source rows (and bare nodes) get a scale of 0.
        pattern = np.vstack([chan, res_rows, cap_rows, src_rows, np.ones((1, n))])
        row, self.ends = np.nonzero(pattern.T)
        self.starts = np.searchsorted(row, np.arange(n))
        # MOSFET Jacobian stamps on (gm, gds): chan (x) gate and chan (x) chan,
        # in C order (a matrix-vector product sums in an order set by the layout)
        self.j_stamps = np.einsum("ki,lkj->ijlk", chan, mos_rows.reshape(2, m, n),
                                  order="C").reshape(n * n, 2 * m)

        self.trap = opt.integrator == "trapezoidal"
        self.a0_num = 2.0 if self.trap else 1.0
        self.abs_tol = np.concatenate([np.full(n_nodes, opt.abstol_i),
                                       np.full(n - n_nodes, opt.abstol_v)])
        self.reltol = np.array(opt.reltol)
        # what `.tobytes()` of an all-True comparison over n rows or over
        # the n_nodes node rows gives: a numpy comparison writes bytes 0, 1
        self.all_rows, self.all_nodes = b"\x01" * n, b"\x01" * n_nodes
        self._linear: dict[float | None, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def point(self, h: float | None, vsrc: np.ndarray, cap_v: np.ndarray | None = None,
              i_prev: np.ndarray | None = None) -> _Point:
        """Time point of step size h after a state whose capacitor voltages
        are cap_v and capacitor currents i_prev (h None: DC)."""
        cached = self._linear.get(h)
        if cached is None:
            a0 = 0.0 if h is None else self.a0_num / h
            geq = a0 * self.c_val
            cached = (self.g_static + a0 * self.cap_pattern,
                      np.concatenate([np.ones(len(self.m_sign)), self.r_g, geq,
                                      np.ones(self.n - self.n_nodes + 1)]), geq)
            self._linear[h] = cached
        a_lin, weights, geq = cached
        if cap_v is None:
            history, rhs = None, np.zeros(self.n)
        else:
            history = geq * cap_v
            if self.trap:
                history += i_prev
            rhs = self.cap_kcl.dot(history)
        rhs[self.n_nodes:] = vsrc
        return _Point(a_lin, weights, history, rhs)

    def tolerance(self, cur: np.ndarray) -> np.ndarray:
        """Per-row tolerance of branch currents cur: abs_tol + reltol *
        (largest branch current at the row)."""
        tol = np.maximum.reduceat(np.abs(cur).take(self.ends), self.starts)
        tol *= self.reltol
        tol += self.abs_tol
        return tol

    def node_ratios(self, f: np.ndarray, tol: np.ndarray) -> np.ndarray:
        k = self.n_nodes
        return np.abs(f[:k]) / tol[:k]

    def worst_node(self, f: np.ndarray, tol: np.ndarray) -> str:
        """The node of the largest |f| / tol, non-finite ratios first: the
        first node whose tolerance is not finite, else the first whose
        residual is not. A tolerance is a maximum over the row's own
        branches, so it points at a NaN or infinite current; the residual
        comes from dense products (0 * NaN is NaN), which carry one such
        entry into every row."""
        k = self.n_nodes
        for part in (tol[:k], f[:k]):
            bad = np.flatnonzero(~np.isfinite(part))
            if bad.size:
                return self.node_names[int(bad[0])]
        return self.node_names[int(np.argmax(self.node_ratios(f, tol)))]

    def newton(self, p: _Point, x0: np.ndarray, ev0: tuple | None = None,
               iters: int | None = None):
        """Newton iteration with per-node voltage damping from x0, whose
        device evaluation is ev0 (None: evaluate x0 first). It makes at most
        `iters` LU solves (default `max_newton_iters`); 0 only evaluates
        the residual at x0.

        Returns (x, converged, f, tol, cur, ev), f/tol/cur/ev at x:
        - f, the KCL/constraint residual, and tol, its per-row tolerance
          (`tolerance(cur)`), or None when a state reached by an update
          is accepted on the floor |f| <= abs_tol, which never needs it;
          every unconverged return and every `iters=0` call carries tol;
        - cur, the branch currents: MOSFETs', then the linear branches';
        - ev = (dev, branch, kcl), x's device evaluation: the (ids, gm, gds)
          rows, the MOSFET currents followed by the linear branch voltages
          (capacitors at `cap`) and source currents, and the MOSFET
          currents into the KCL rows.
        Each LU solve that succeeds is counted and followed by one
        evaluation. A singular Jacobian gives a NaN update (the run's error
        state ignores the invalid flag) and ends the iteration unconverged.
        """
        stats, opt = self.stats, self.opt
        solve, device = _lu_solve, mosfet_eval
        n, n_nodes, m = self.n, self.n_nodes, len(self.m_sign)
        gather, m_kcl, j_stamps = self.gather, self.m_kcl, self.j_stamps
        tolerance, caps = self.tolerance, self.cap
        beta, vth, lam, sign, blam = self.m_beta, self.m_vth, self.m_lam, self.m_sign, self.m_blam
        abs_tol, all_rows, all_nodes = self.abs_tol, self.all_rows, self.all_nodes
        a_lin, weights, ieq, rhs = p
        if iters is None:
            iters = opt.max_newton_iters
        x, ev = x0.copy(), ev0
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
            f = a_lin.dot(x)
            f += kcl
            f -= rhs
            f_abs = np.abs(f)
            # after an update, the absolute floor first: tol >= abs_tol;
            # each test is `.all()` as a byte compare (False on NaN)
            if it and (f_abs <= abs_tol).tobytes() == all_rows:
                return x, True, f, None, cur, ev
            tol = tolerance(cur)
            if (f_abs <= tol).tobytes() == all_rows:
                return x, True, f, tol, cur, ev
            if it == iters:
                break
            jac = j_stamps.dot(dev[1:].reshape(-1)).reshape(n, n)  # on (gm, gds)
            jac += a_lin
            dx = solve(jac, f)
            dv = np.abs(dx[:n_nodes])
            # every move within the bound: no NaN and no damping
            if (dv <= _NEWTON_DAMP_V).tobytes() != all_nodes:
                vmax = np.maximum.reduce(dv, initial=0.0)
                if vmax != vmax:  # NaN: the Jacobian was singular
                    break
                if vmax > _NEWTON_DAMP_V:
                    dx *= _NEWTON_DAMP_V / vmax
            stats.lu_solves += 1
            x -= dx
            ev = None
        return x, False, f, tol, cur, ev


def _dc_solve(k: _Kernel) -> tuple[np.ndarray, tuple]:
    """DC solution at t = 0, where every time axis starts, and its device
    evaluation."""
    p = k.point(None, _source_values(k, [0.0])[0])
    zero = np.zeros(k.n)
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
    shunt = np.diag((np.arange(k.n) < k.n_nodes).astype(float))
    x, ev = zero, ev_zero
    for g in ladder:
        x, ok, f, tol, _, ev = k.newton(p._replace(a_lin=p.a_lin + g * shunt), x, ev)
        if not ok:
            worst = k.worst_node(f, tol)
            raise SolverError(
                "DC operating point did not converge "
                f"(gmin step {g:g} S, worst node {worst!r})",
                time=0.0,
                node=worst,
            )
    return x, ev


def dc_operating_point(netlist: Netlist, options: SimOptions | None = None) -> dict[str, float]:
    """Newton DC solve; returns node-name -> voltage (ground included)."""
    k = _Kernel(netlist, options or SimOptions())
    with np.errstate(all="ignore"):
        x, _ = _dc_solve(k)
    out = {name: float(x[i]) for i, name in enumerate(k.node_names)}
    out[netlist.ground] = 0.0
    return out


def _time_axis(net: Netlist, opt: SimOptions, t_stop: float) -> np.ndarray:
    """The run's time axis: the step grid of the resolved dt, every pulse
    corner and t_stop. Refuses with ValueError, before anything is solved,
    a t_stop that does not exceed dt, a step count t_stop / dt that is not
    finite, and a grid or corner set numpy cannot allocate."""
    dt = opt.dt
    if dt is None:
        periods = [d.spec.period for d in net.devices if isinstance(d, PulseSource)]
        dt = min(0.5e-12, min(periods) / 2000.0) if periods else t_stop / 1000.0
    if not t_stop > dt:
        raise ValueError("t_stop must exceed dt")
    if not math.isfinite(t_stop / dt):
        raise ValueError(f"t_stop / dt must be a finite step count, got t_stop = "
                         f"{t_stop!r} s and dt = {dt!r} s")
    n = int(np.floor(t_stop / dt + 1e-9))
    # numpy refuses an array too large at once (MemoryError, or ValueError
    # beyond its index range; a period count past float range overflows):
    # the refusal names the grid, or the pulse source last sized
    refused = f"t_stop = {t_stop!r} s at dt = {dt!r} s is {n:.3g} steps"
    try:
        points = [np.arange(n + 1) * dt]
        for d in net.devices:
            if isinstance(d, PulseSource):
                corners = 4 * (t_stop - d.spec.delay) / d.spec.period
                refused = (f"pulse source {d.name!r} has {corners:.3g} corners "
                           f"up to t_stop = {t_stop!r} s")
                points.append(d.spec.breakpoints(t_stop))  # in [0, t_stop]
        t = np.unique(np.concatenate(points))
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"{refused}, a time axis too large to allocate") from None
    # merge points closer than dt * 1e-6 (keeps companion steps well scaled)
    eps = dt * 1e-6
    mask = np.concatenate([[True], np.diff(t) > eps])
    t = t[mask]
    # end at t_stop itself: n * dt can round to either side of it
    return np.append(t[t < t_stop - eps], t_stop)


def _grown(block: np.ndarray, count: int, size: int) -> np.ndarray:
    """A block of `size` rows whose first `count` are those of `block`."""
    out = np.empty((size,) + block.shape[1:])
    out[:count] = block[:count]
    return out


def transient(
    netlist: Netlist,
    options: SimOptions,
    t_stop: float,
    initial_voltages: dict[str, float] | None = None,
) -> TransientResult:
    """Integrate from 0 to t_stop seconds, starting at the DC operating
    point (or at explicit initial node voltages), on the axis of
    `_time_axis`: the fixed steps plus every pulse-source corner time. A
    t_stop that `_time_axis` refuses (NaN, 0, negative, infinite, or a
    step grid or corner set numpy cannot allocate) raises ValueError
    before anything is solved; a non-convergent step is bisected up to 8
    times before raising."""
    k = _Kernel(netlist, options)
    axis = _time_axis(netlist, options, t_stop)
    vsrc = _source_values(k, axis)
    # same[j]: the source row of axis[j] is bitwise that of axis[j - 1]
    bits = vsrc.view(np.uint64)
    same = np.zeros(len(axis), dtype=bool)
    same[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    t_last = axis.item(0)
    stats, point, newton, cap = k.stats, k.point, k.newton, k.cap
    with np.errstate(all="ignore"):  # the run's error state, see the module docstring
        if initial_voltages is None:
            x, ev = _dc_solve(k)
        else:
            x = np.zeros(k.n)
            index = {name: i for i, name in enumerate(k.node_names)}
            for name, v in initial_voltages.items():
                if not math.isfinite(v):
                    raise ValueError(f"initial_voltages: node {name!r} must be finite, "
                                     f"got {v!r}")
                if name == netlist.ground:
                    continue
                if name not in index:
                    raise ValueError(f"initial_voltages: unknown node {name!r}")
                x[index[name]] = v
            ev = k.newton(k.point(None, vsrc[0]), x, iters=0)[-1]

        # accepted points go straight into the blocks (module docstring)
        time = np.empty(len(axis))
        states = np.empty((len(axis), k.n))
        time[0], states[0], count = t_last, x, 1
        i_prev = np.zeros(len(k.c_val))
        # step sizes h whose step from x (with ev and i_prev) under the
        # current source row is known to return that same state
        held = set()
        for j in range(1, len(axis)):
            t_j = axis.item(j)
            if not same[j]:
                held.clear()
            elif t_j - t_last in held:
                # the step that put h in `held` again: same h, source row,
                # x, ev and i_prev, so the same accepted state, with no solve
                stats.steps_without_solve += 1
                t_last = time[count] = t_j
                states[count] = states[count - 1]
                count += 1
                continue
            # targets still to reach from the last accepted point x; a failed
            # step is halved and both halves are tried one level deeper. Every
            # attempt starts from x, whose evaluation ev is kept and gives
            # the step's capacitor history
            pending = [(t_j, vsrc[j], 0)]
            while pending:
                t1, v1, depth = pending[-1]
                h = t1 - t_last
                solves = stats.lu_solves
                x_new, ok, f, tol, cur, ev_new = newton(point(h, v1, ev[1][cap], i_prev),
                                                        x, ev)
                if ok:
                    i_new = cur[cap]
                    no_solve = stats.lu_solves == solves
                    stats.steps_without_solve += no_solve
                    # a fixed point of h: an axis step, accepted before any
                    # solve, whose capacitor currents repeat (a later step
                    # uses h only under this same source row)
                    if no_solve and depth == 0 and i_new.tobytes() == i_prev.tobytes():
                        held.add(h)
                    else:
                        held.clear()
                    t_last = time[count] = t1
                    states[count] = x_new
                    count += 1
                    x, i_prev, ev = x_new, i_new, ev_new
                    pending.pop()
                elif depth < _MAX_STEP_HALVINGS:
                    held.clear()
                    stats.step_halvings += 1
                    if len(axis) + stats.step_halvings > len(time):  # grow by half
                        size = len(time) + len(time) // 2
                        time, states = _grown(time, count, size), _grown(states, count, size)
                    tm = 0.5 * (t_last + t1)
                    pending[-1] = (t1, v1, depth + 1)
                    pending.append((tm, _source_values(k, [tm])[0], depth + 1))
                else:
                    worst = k.worst_node(f, tol)
                    raise SolverError(
                        f"transient Newton failed at t = {t1:.6e} s (worst node {worst!r})",
                        time=t1,
                        node=worst,
                    )

    stats.points = count
    if count < len(time):  # exact-length copies, so no spare row stays alive
        time, states = time[:count].copy(), states[:count].copy()
    return TransientResult(
        time=time,
        node_names=k.node_names,
        voltages=states[:, : k.n_nodes],
        source_names=[s.name for s in k.sources],
        branch_currents=states[:, k.n_nodes :],
        probes=list(netlist.probes),
        supply_source=k.supply,
        stats=stats,
    )


def kcl_residual_ratio(netlist: Netlist, result: TransientResult,
                       options: SimOptions) -> float:
    """Re-evaluate KCL at every accepted point of a DC-started run.

    Returns the worst ratio |residual| / tolerance over all nodes and
    points (<= 1 means the whole run is within tolerance), NaN when any
    ratio is NaN. Capacitor
    companion state is replayed from the stored solution through the
    transient's own step kernel.
    """
    k = _Kernel(netlist, options)
    time, volts, amps = result.time, result.voltages, result.branch_currents
    vsrc = _source_values(k, time)
    # one state, refilled from the result at each point (newton copies it)
    x = np.zeros(k.n)
    nodes, branches = x[: k.n_nodes], x[k.n_nodes :]
    nodes[:], branches[:] = volts[0], amps[0]
    _, _, f, tol, _, ev = k.newton(k.point(None, vsrc[0]), x, iters=0)
    # the running maximum per node; np.maximum, unlike max(), keeps a NaN
    worst = k.node_ratios(f, tol)
    i_prev = np.zeros(len(k.c_val))
    for j in range(1, len(time)):
        nodes[:], branches[:] = volts[j], amps[j]
        p = k.point(time.item(j) - time.item(j - 1), vsrc[j], ev[1][k.cap], i_prev)
        _, _, f, tol, cur, ev = k.newton(p, x, iters=0)
        np.maximum(worst, k.node_ratios(f, tol), out=worst)
        i_prev = cur[k.cap]
    return float(np.max(worst))
