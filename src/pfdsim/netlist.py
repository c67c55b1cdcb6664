"""Circuit graph, stimulus definitions, and the canonical PFD builder.

A netlist is a named node set with an ordered device list. Builders
mutate while assembling; once handed to the engine a netlist is treated
as immutable, so one template can back any number of concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pfdsim.devices import DEFAULT_CONFIG, STANDARD_CORNERS, ModelConfig, MosfetParams, NMOS, PMOS

GROUND = "0"
# storage capacitance on each dynamic sense node of the PFD, X and Y
_INTERNAL_CAP = 0.5e-15


class NetlistError(Exception):
    """Raised on malformed netlist construction (duplicate id, unknown node)."""


@dataclass(frozen=True)
class PulseSpec:
    """Trapezoidal periodic stimulus, SPICE PULSE conventions."""

    v_low: float
    v_high: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self):
        # finite first: NaN would pass every comparison below
        for name, v in vars(self).items():
            if not math.isfinite(v):
                raise ValueError(f"pulse {name} must be finite, got {v!r}")
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if self.rise <= 0 or self.fall <= 0:
            raise ValueError("rise and fall must be > 0")
        if self.period <= self.rise + self.width + self.fall:
            raise ValueError("period must exceed rise + width + fall")

    def value(self, t: float) -> float:
        """Source voltage at time t, one point at a time: the scalar
        reference that `values` is pinned to, bit for bit, in the tests."""
        if t < self.delay:
            return self.v_low
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v_low + (self.v_high - self.v_low) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v_high
        tau -= self.width
        if tau < self.fall:
            return self.v_high + (self.v_low - self.v_high) * tau / self.fall
        return self.v_low

    def values(self, t: np.ndarray) -> np.ndarray:
        """`value` at every time of the float array t, with the same
        arithmetic elementwise (`np.remainder` computes Python's float `%`),
        so each entry is bit-equal to `value` of that time."""
        t = np.asarray(t, dtype=float)
        tau = np.remainder(t - self.delay, self.period)
        tau_fall = tau - self.rise - self.width
        out = np.where(tau_fall < self.fall,
                       self.v_high + (self.v_low - self.v_high) * tau_fall / self.fall,
                       self.v_low)
        out = np.where(tau - self.rise < self.width, self.v_high, out)
        out = np.where(tau < self.rise,
                       self.v_low + (self.v_high - self.v_low) * tau / self.rise, out)
        return np.where(t < self.delay, self.v_low, out)

    def breakpoints(self, t_stop: float) -> np.ndarray:
        """Waveform corner times in [0, t_stop], in time order: the four
        corners of every period that starts by t_stop, counted from the
        delay, in closed form over one period more than that count."""
        k = np.arange(math.floor((t_stop - self.delay) / self.period) + 2)
        base = self.delay + k * self.period
        base = base[base <= t_stop]
        t = base[:, None] + np.array([0.0, self.rise, self.rise + self.width,
                                      self.rise + self.width + self.fall])
        return t[(0.0 <= t) & (t <= t_stop)]


@dataclass(frozen=True)
class Mosfet:
    name: str
    drain: str
    gate: str
    source: str
    params: MosfetParams

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.drain, self.gate, self.source)


@dataclass(frozen=True)
class Resistor:
    name: str
    a: str
    b: str
    ohms: float

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Capacitor:
    name: str
    a: str
    b: str
    farads: float

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class DcSource:
    name: str
    plus: str
    minus: str
    volts: float

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.plus, self.minus)


@dataclass(frozen=True)
class PulseSource:
    name: str
    plus: str
    minus: str
    spec: PulseSpec

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.plus, self.minus)


Device = Mosfet | Resistor | Capacitor | DcSource | PulseSource

_BRANCH_KINDS = {Resistor: "resistor", Capacitor: "capacitor",
                 DcSource: "source", PulseSource: "pulse source"}


@dataclass
class Netlist:
    ground: str = GROUND
    nodes: list[str] = field(default_factory=list)
    devices: list[Device] = field(default_factory=list)
    probes: list[str] = field(default_factory=list)  # nodes written to waves.csv

    def add_node(self, name: str) -> str:
        if name in self.nodes:
            raise NetlistError(f"duplicate identifier: node {name!r}")
        self.nodes.append(name)
        return name

    def add(self, device: Device) -> Device:
        if any(d.name == device.name for d in self.devices):
            raise NetlistError(f"duplicate identifier: device {device.name!r}")
        for n in device.nodes:
            if n not in self.nodes:
                raise NetlistError(f"unknown node {n!r} referenced by {device.name!r}")
        self.devices.append(device)
        return device

    def add_probe(self, node: str) -> None:
        problem = self._probe_problem(node, self.probes)
        if problem:
            raise NetlistError(problem)
        self.probes.append(node)

    def _probe_problem(self, node: str, earlier: list[str]) -> str | None:
        """Why `node` cannot follow the probes `earlier` in waves.csv, if it
        cannot: a column holds one non-ground node's voltage, once."""
        if node == self.ground:
            return f"probe on the ground node {node!r}"
        if node not in self.nodes:
            return f"unknown node {node!r} for a probe"
        if node in earlier:
            return f"duplicate probe {node!r}"
        return None

    def sources(self) -> list[DcSource | PulseSource]:
        return [d for d in self.devices if isinstance(d, (DcSource, PulseSource))]

    def validate(self) -> list[str]:
        """Return every invariant violation (empty list means valid)."""
        violations = []
        if self.ground not in self.nodes:
            violations.append("no ground node")
        seen: set[str] = set()
        for n in self.nodes:
            if n in seen:
                violations.append(f"duplicate node {n!r}")
            seen.add(n)
        for d in self.devices:
            for n in d.nodes:
                if n not in seen:
                    violations.append(f"device {d.name!r} references unknown node {n!r}")
        for d in self.devices:
            # NaN fails these tests too
            if isinstance(d, Resistor) and not 0 < d.ohms < math.inf:
                violations.append(f"resistor {d.name!r} must have finite ohms > 0")
            if isinstance(d, Capacitor) and not 0 < d.farads < math.inf:
                violations.append(f"capacitor {d.name!r} must have finite farads > 0")
            if isinstance(d, DcSource) and not math.isfinite(d.volts):
                violations.append(f"source {d.name!r} must have finite volts")
            # a branch from a node to itself carries no current, and a
            # source's constraint row would be all zero
            kind = _BRANCH_KINDS.get(type(d))
            if kind and d.nodes[0] == d.nodes[1]:
                violations.append(f"{kind} {d.name!r} connects node {d.nodes[0]!r} to itself")
        for i, node in enumerate(self.probes):
            problem = self._probe_problem(node, self.probes[:i])
            if problem:
                violations.append(problem)

        # connectivity: every non-ground node reachable from ground through
        # device terminals (each device links all of its terminals)
        if self.ground in seen:
            reach = {self.ground}
            frontier = [self.ground]
            adjacency: dict[str, set[str]] = {n: set() for n in self.nodes}
            for d in self.devices:
                ns = [n for n in d.nodes if n in adjacency]
                for n in ns:
                    adjacency[n].update(ns)
            while frontier:
                cur = frontier.pop()
                for nxt in adjacency[cur]:
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            for n in self.nodes:
                if n not in reach:
                    violations.append(f"node {n!r} not reachable from ground")

        # every gate must be tied to something that can set its voltage:
        # a source terminal, a resistor terminal, a FET drain/source, or ground
        driven: set[str] = {self.ground}
        for d in self.devices:
            if isinstance(d, (DcSource, PulseSource, Resistor)):
                driven.update(d.nodes)
            elif isinstance(d, Mosfet):
                driven.update((d.drain, d.source))
        for d in self.devices:
            if isinstance(d, Mosfet) and d.gate not in driven:
                violations.append(f"floating gate node {d.gate!r} on device {d.name!r}")
        return violations


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------

def build_nor2(
    net: Netlist,
    name: str,
    out: str,
    in1: str,
    in2: str,
    p_params: MosfetParams,
    n_params: MosfetParams,
) -> None:
    """Add a static CMOS 2-input NOR to net: its internal node `<name>.m`,
    then series PMOS from VDD and parallel NMOS to ground.

    The in1 PMOS sits at the supply side of the stack.
    """
    mid = net.add_node(f"{name}.m")
    net.add(Mosfet(f"{name}.p1", drain=mid, gate=in1, source="VDD", params=p_params))
    net.add(Mosfet(f"{name}.p2", drain=out, gate=in2, source=mid, params=p_params))
    net.add(Mosfet(f"{name}.n1", drain=out, gate=in1, source=GROUND, params=n_params))
    net.add(Mosfet(f"{name}.n2", drain=out, gate=in2, source=GROUND, params=n_params))


def default_pulse(frequency: float, vdd: float, delay: float) -> PulseSpec:
    """Stimulus used for PFD inputs: 50% duty, edges 1% of the period."""
    period = 1.0 / frequency
    edge = 0.01 * period
    return PulseSpec(
        v_low=0.0, v_high=vdd, delay=delay,
        rise=edge, fall=edge, width=0.5 * period - edge, period=period,
    )


def input_delays(period: float, offset: float) -> tuple[float, float]:
    """First rising edges of the PFD inputs A and B: a quarter period in, the
    lagging one delayed by |offset| (a positive offset delays B: A leads)."""
    base = 0.25 * period
    return base + max(0.0, -offset), base + max(0.0, offset)


@dataclass(frozen=True)
class DesignPoint:
    """One design point of the PFD, checked when it is made: gate width and
    length in m, a STANDARD_CORNERS name, input frequency in Hz, phase
    offset in s (positive delays B, so A leads; below one period in
    magnitude) and output load capacitance in F."""

    width: float = 260e-9
    length: float = 100e-9
    corner: str = "TT"
    frequency: float = 1e9
    offset: float = 0.0
    load_cap: float = 1e-15

    def __post_init__(self):
        for name in ("width", "length", "frequency", "offset", "load_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        # written as `not (x > 0)` so that NaN fails too
        if not (self.width > 0 and self.length > 0):
            raise ValueError("width and length must be > 0")
        if not self.frequency > 0:
            raise ValueError("frequency must be > 0")
        if not abs(self.offset) < self.period:
            raise ValueError("offset magnitude must be below one period")
        if not self.load_cap > 0:
            raise ValueError("load_cap must be > 0")
        if self.corner not in STANDARD_CORNERS:
            raise ValueError(f"unknown corner {self.corner!r}")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency


def build_pfd(
    point: DesignPoint = DesignPoint(),
    *,
    frequency_b: float | None = None,
    models: ModelConfig = DEFAULT_CONFIG,
) -> Netlist:
    """Canonical 16-FET precharge PFD at the design point, stimulus attached.

    Inputs A and B are pulse sources; a positive offset delays B, so A
    leads. Internal sense nodes X and Y are active-low; the output stage
    is a pair of cross-coupled NOR gates (UP = NOR(X, DN), DN = NOR(Y, UP)).
    frequency_b drives B at a different rate for mismatch experiments.
    """
    pp = models.mosfet(PMOS, point.width, point.length, point.corner)
    np_ = models.mosfet(NMOS, point.width, point.length, point.corner)

    net = Netlist()
    net.add_node(GROUND)
    for n in ("VDD", "A", "B", "X", "Y", "UP", "DN", "X.m", "X.n", "Y.m", "Y.n"):
        net.add_node(n)

    delay_a, delay_b = input_delays(point.period, point.offset)
    spec_a = default_pulse(point.frequency, models.vdd, delay_a)
    spec_b = default_pulse(frequency_b if frequency_b is not None else point.frequency,
                           models.vdd, delay_b)

    net.add(DcSource("VSUP", plus="VDD", minus=GROUND, volts=models.vdd))
    net.add(PulseSource("VA", plus="A", minus=GROUND, spec=spec_a))
    net.add(PulseSource("VB", plus="B", minus=GROUND, spec=spec_b))

    # detection core: X discharges when A rises while Y is still high,
    # Y discharges when B rises while X is still high; both precharge
    # through the series PMOS pairs whenever A and B are low together.
    # Y's side mirrors X's: swapping A<->B, X<->Y and UP<->DN maps the
    # circuit onto itself, so the UP and DN paths are matched
    net.add(Mosfet("PM1", drain="X.m", gate="A", source="VDD", params=pp))
    net.add(Mosfet("PM2", drain="X", gate="B", source="X.m", params=pp))
    net.add(Mosfet("NM1", drain="X", gate="A", source="X.n", params=np_))
    net.add(Mosfet("NM2", drain="X.n", gate="Y", source=GROUND, params=np_))
    net.add(Mosfet("PM3", drain="Y.m", gate="B", source="VDD", params=pp))
    net.add(Mosfet("PM4", drain="Y", gate="A", source="Y.m", params=pp))
    net.add(Mosfet("NM3", drain="Y", gate="B", source="Y.n", params=np_))
    net.add(Mosfet("NM4", drain="Y.n", gate="X", source=GROUND, params=np_))

    # output restore stage, mutually exclusive by cross-coupling
    build_nor2(net, "NORU", out="UP", in1="X", in2="DN", p_params=pp, n_params=np_)
    build_nor2(net, "NORD", out="DN", in1="Y", in2="UP", p_params=pp, n_params=np_)

    # dynamic-node storage and output loading
    net.add(Capacitor("CX", a="X", b=GROUND, farads=_INTERNAL_CAP))
    net.add(Capacitor("CY", a="Y", b=GROUND, farads=_INTERNAL_CAP))
    net.add(Capacitor("CUP", a="UP", b=GROUND, farads=point.load_cap))
    net.add(Capacitor("CDN", a="DN", b=GROUND, farads=point.load_cap))

    for node in ("A", "B", "X", "Y", "UP", "DN"):
        net.add_probe(node)
    return net
