"""Outside-in trace of pfdsim's layers, recorded from the benchmark's files.

Each patch point is a name that one pfdsim module looks up in another at call
time: `pfdsim.experiments.transient` is `engine.transient` as `experiments`
sees it. While a `Tracer` is installed those names point at wrappers that
record a span (layer, start, end, time covered by child spans); nothing in
`src/` is edited. Device evaluation runs inside `engine.transient`, so it is
part of the engine's busy time; a finer split needs counters in the program.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute path, layer)
PATCH_POINTS = (
    ("pfdsim.cli", "simulate_point", "experiments"),
    ("pfdsim.cli", "report_from_result", "experiments"),
    ("pfdsim.cli", "measure_dead_zone", "experiments"),
    ("pfdsim.cli", "corner_sweep", "experiments"),
    ("pfdsim.cli", "render_rows", "cli.render"),
    ("pfdsim.cli", "line_chart", "cli.render"),
    ("pfdsim.experiments", "build_pfd", "netlist"),
    ("pfdsim.experiments", "transient", "engine"),
    ("pfdsim.experiments", "classify_decision", "measure"),
    ("pfdsim.experiments", "average_power", "measure"),
    ("pfdsim.experiments", "rise_time", "measure"),
    ("pfdsim.experiments", "mutual_exclusion_overlap", "measure"),
    ("pfdsim.engine", "TransientResult.to_csv", "engine.csv"),
)


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    points: int = 0  # accepted time points, engine spans only

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans at the patch points while installed; one command at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def call(self, layer: str, fn, *args, **kwargs):
        if self._stack and self._stack[-1].layer == layer:
            # re-entry, e.g. to_csv(path) opening the file and calling to_csv(fh)
            return fn(*args, **kwargs)
        span = Span(layer, time.perf_counter())
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += span.duration
            self.spans.append(span)
        if layer == "engine":
            span.points = len(result.time)
        return result

    def _wrapper(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, layer in PATCH_POINTS:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(layer, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def command_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced command (its spans)."""
    by_layer: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)

    def busy(layer):
        return sum((s.duration for s in by_layer[layer]), 0.0)

    def own(layer):
        return sum((s.self_s for s in by_layer[layer]), 0.0)

    engine = by_layer["engine"]
    points = sum(s.points for s in engine)
    return {
        "engine.transient_calls": len(engine),
        "engine.accepted_points": points,
        "engine.busy_s": busy("engine"),
        "engine.host_us_per_point": 1e6 * busy("engine") / points,
        "engine.csv_s": busy("engine.csv"),
        "experiments.self_s": own("experiments"),
        "netlist.build_calls": len(by_layer["netlist"]),
        "netlist.build_s": busy("netlist"),
        "measure.calls": len(by_layer["measure"]),
        "measure.busy_s": busy("measure"),
        "cli.render_s": busy("cli.render"),
        "cli.self_s": own("cli"),
    }


def transient_quantiles(spans: list[Span]) -> tuple[float, float]:
    """Median and 90th percentile of single-transient host times."""
    durations = [s.duration for s in spans if s.layer == "engine"]
    if len(durations) < 2:
        return durations[0], durations[0]
    return (statistics.median(durations),
            statistics.quantiles(durations, n=10, method="inclusive")[8])
