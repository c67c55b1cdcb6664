"""Characterization experiments: lead/lag runs, dead-zone and maximum
operating frequency searches, width and corner sweeps, the half-period
stabilization test, unequal-frequency operation, and report rendering.

Sweep points are independent; sweeps optionally farm points out to a
process pool and assemble results in input order either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from pfdsim.devices import DEFAULT_CONFIG, STANDARD_CORNERS, ModelConfig
from pfdsim.engine import SimOptions, SimStats, SolverError, TransientResult, transient
from pfdsim.measure import (
    Decision,
    MeasurementError,
    PulseTable,
    average_power,
    classify_decision,
    high_time,
    mutual_exclusion_overlap,
    per_period_decisions,
    pulse_table,
    rise_time,
)
from pfdsim.netlist import build_pfd, input_delays

SETTLE_PERIODS = 2  # start-up stretch excluded from the power window


class ExperimentError(Exception):
    """An experiment precondition or behavioral assertion failed."""


@dataclass(frozen=True)
class DesignPoint:
    width: float = 260e-9
    length: float = 100e-9
    corner: str = "TT"  # one of STANDARD_CORNERS
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


@dataclass
class ExperimentReport:
    point: DesignPoint
    decision: Decision
    avg_power: float
    up_rise_time: float | None
    mutual_exclusion_overlap: float

    def to_dict(self) -> dict:
        return report_row(self.point, decision=self.decision.value, avg_power=self.avg_power,
                          up_rise_time=self.up_rise_time,
                          mutual_exclusion_overlap=self.mutual_exclusion_overlap)


def stimulus_time(point: DesignPoint, periods: int = SETTLE_PERIODS,
                  frequency_b: float | None = None) -> float:
    """End of the lead-in (the later input's first rising edge) plus
    `periods` periods of the slower input; by default the settle start,
    where measurement windows begin."""
    period = point.period
    slow = max(period, 1.0 / frequency_b) if frequency_b else period
    return max(input_delays(period, point.offset)) + periods * slow


def simulate_point(
    point: DesignPoint,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
    frequency_b: float | None = None,
    t_stop: float | None = None,
) -> TransientResult:
    """Build the PFD at the design point and run n_periods of stimulus
    (or up to t_stop, when given)."""
    if t_stop is None:
        t_stop = stimulus_time(point, n_periods, frequency_b)
    net = build_pfd(
        width=point.width,
        length=point.length,
        corner=point.corner,
        load_cap=point.load_cap,
        frequency=point.frequency,
        offset=point.offset,
        frequency_b=frequency_b,
        models=models,
    )
    return transient(net, replace(options or SimOptions(), t_stop=t_stop))


def pulse_table_for(point: DesignPoint, result: TransientResult,
                    models: ModelConfig = DEFAULT_CONFIG) -> PulseTable:
    """The run's pulse table, periods counted from the leading input's first
    rising edge (A's when the offset is >= 0, B's when it is negative), so
    the leading output's pulses start at the same phase of their period
    whichever input leads."""
    return pulse_table(result.voltage("UP"), result.voltage("DN"), vdd=models.vdd,
                       anchor=min(input_delays(point.period, point.offset)),
                       period=point.period)


def report_from_result(point: DesignPoint, result: TransientResult,
                       models: ModelConfig = DEFAULT_CONFIG) -> ExperimentReport:
    return _report(point, result, pulse_table_for(point, result, models), models)


def _report(point, result, table, models, frequency_b=None) -> ExperimentReport:
    window = (stimulus_time(point, frequency_b=frequency_b), float(result.time[-1]))
    power = average_power(result.supply_current(), models.vdd, window)
    try:
        up_rise = rise_time(result.voltage("UP"), 0.0, models.vdd)
    except MeasurementError:
        up_rise = None
    return ExperimentReport(point=point, decision=classify_decision(table), avg_power=power,
                            up_rise_time=up_rise,
                            mutual_exclusion_overlap=mutual_exclusion_overlap(table))


def run_offset_experiment(
    point: DesignPoint,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> ExperimentReport:
    """Fixed phase-offset transient plus the standard measurement set."""
    result = simulate_point(point, n_periods, models, options)
    return report_from_result(point, result, models)


def _decision_at(point: DesignPoint, n_periods, models, options) -> Decision:
    """The whole-run decision of one search probe; a SolverError raised in
    its transient is raised again with the probe's signed offset and its
    frequency before its message."""
    try:
        result = simulate_point(point, n_periods, models, options)
    except SolverError as exc:
        raise SolverError(f"probe at offset {point.offset:+} s, {point.frequency} Hz: {exc}",
                          time=exc.time, node=exc.node) from exc
    return classify_decision(pulse_table_for(point, result, models))


def _bisect(passes, good: float, bad: float, unresolved) -> float:
    """Last passing point of a bisection between a passing end `good` and a
    failing end `bad`, run while `unresolved(good, bad)`. It also stops when
    the midpoint rounds to an end: the ends are then adjacent floats and
    the bracket cannot shrink."""
    while unresolved(good, bad):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if passes(mid):
            good = mid
        else:
            bad = mid
    return good


def measure_dead_zone(
    point: DesignPoint,
    search_lo: float = 0.0,
    search_hi: float = 200e-12,
    tol: float = 0.5e-12,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> float:
    """Smallest offset classified correctly in both lead directions, by
    bisection of [search_lo, search_hi] down to tol or to float resolution.
    The two polarities share one search, so the result is the larger of
    the two thresholds. search_hi must pass and search_lo must fail (at 0
    it is one circuit, so it is not run); no failing offset may lie above a
    passing one."""
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError("tol must be finite and > 0")
    if not 0 <= search_lo < search_hi:
        raise ValueError("need 0 <= search_lo < search_hi")
    if n_periods < 1:  # a run of 0 periods ends at the lagging input's first edge
        raise ValueError(f"n_periods {n_periods} must be >= 1")

    def passes(off: float) -> bool:
        if _decision_at(replace(point, offset=+off), n_periods, models,
                        options) is not Decision.LEAD_A:
            return False
        return _decision_at(replace(point, offset=-off), n_periods, models,
                            options) is Decision.LEAD_B

    if not passes(search_hi):
        raise ExperimentError(
            f"no lock window found: wrong decision at search_hi = {search_hi:g} s"
        )
    if search_lo > 0 and passes(search_lo):
        raise ExperimentError(f"dead zone below the bracket: search_lo = {search_lo:g} s "
                              "already passes")
    return _bisect(passes, search_hi, search_lo, lambda hi, lo: hi - lo > tol)


def measure_fmax(
    point: DesignPoint,
    offset_fraction: float = 0.1,
    f_lo: float = 0.5e9,
    f_hi: float = 20e9,
    tol_rel: float = 0.01,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> float:
    """Largest frequency at which an n_periods run with A leading by
    offset_fraction of a period is classified LeadA (over the whole run,
    not period by period), by bisection of [f_lo, f_hi] down to a relative
    tol_rel or to float resolution; f_hi itself when it passes. f_lo must
    pass, and no passing frequency may lie above a failing one."""
    if not (0.0 < offset_fraction < 0.5):
        raise ValueError("offset_fraction must be in (0, 0.5)")
    if not (0 < f_lo < f_hi and 0 < tol_rel < math.inf):  # NaN fails too
        raise ValueError("need 0 < f_lo < f_hi and a finite tol_rel > 0")
    if n_periods < 1:
        raise ValueError(f"n_periods {n_periods} must be >= 1")

    def passes(f: float) -> bool:
        p = replace(point, frequency=f, offset=offset_fraction / f)
        return _decision_at(p, n_periods, models, options) is Decision.LEAD_A

    if not passes(f_lo):
        raise ExperimentError(f"wrong decision already at f_lo = {f_lo:g} Hz")
    if passes(f_hi):
        return f_hi
    return _bisect(passes, f_lo, f_hi, lambda lo, hi: (hi - lo) / lo > tol_rel)


def _run_points(points, n_periods, models, options, jobs) -> list[ExperimentReport]:
    """Reports in input order, from min(jobs, points) worker processes."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    workers = min(jobs, len(points))
    if workers <= 1:
        return [run_offset_experiment(p, n_periods, models, options) for p in points]
    # imported here: the pool's modules are about a tenth of the CLI's import time
    from concurrent.futures import ProcessPoolExecutor

    k = len(points)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_offset_experiment, points, [n_periods] * k,
                             [models] * k, [options] * k))


def width_sweep(
    w_lo: float = 120e-9,
    w_hi: float = 310e-9,
    steps: int = 5,
    point: DesignPoint = DesignPoint(offset=100e-12),
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
    jobs: int = 1,
) -> list[ExperimentReport]:
    """Full report at each of `steps` linearly spaced widths."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if w_lo <= 0 or w_hi <= w_lo:
        raise ValueError("need 0 < w_lo < w_hi")
    widths = np.linspace(w_lo, w_hi, steps)
    points = [replace(point, width=float(w)) for w in widths]
    return _run_points(points, n_periods, models, options, jobs)


def corner_sweep(
    corners: list[str] | None = None,
    point: DesignPoint = DesignPoint(offset=100e-12),
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
    jobs: int = 1,
) -> list[ExperimentReport]:
    """One report per corner; every corner must classify the fixed offset
    correctly or ExperimentError is raised."""
    names = list(STANDARD_CORNERS) if corners is None else list(corners)
    if not names:
        raise ValueError("corners must be non-empty")
    points = [replace(point, corner=n.upper()) for n in names]
    reports = _run_points(points, n_periods, models, options, jobs)
    expected = Decision.LEAD_A if point.offset > 0 else Decision.LEAD_B
    for name, rep in zip(names, reports):
        if rep.decision is not expected:
            raise ExperimentError(
                f"corner {name}: decision {rep.decision.value}, expected {expected.value}"
            )
    return reports


def half_period_test(
    point: DesignPoint,
    n_periods: int = 20,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> tuple[ExperimentReport, TransientResult]:
    """Offset forced to T/2; the classification must settle to the leading
    input and stay there for the final stretch of the run."""
    if n_periods <= SETTLE_PERIODS:
        raise ExperimentError(f"window too short: need n_periods > {SETTLE_PERIODS}, "
                              "the settle periods before the power window")
    sign = 1.0 if point.offset >= 0 else -1.0
    p = replace(point, offset=sign * 0.5 * point.period)
    result = simulate_point(p, n_periods, models, options)
    table = pulse_table_for(p, result, models)
    tail = per_period_decisions(table)[-min(10, max(1, n_periods // 2)):]
    expected = Decision.LEAD_A if sign > 0 else Decision.LEAD_B
    if any(d is not expected for d in tail):
        raise ExperimentError(
            "half-period classification unstable: tail decisions "
            f"{[d.value for d in tail]}, expected steady {expected.value}"
        )
    report = _report(p, result, table, models)
    report.decision = expected
    return report, result


def frequency_mismatch_test(
    f_ref: float,
    f_fb: float,
    n_periods: int = 10,
    point: DesignPoint = DesignPoint(),
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> tuple[ExperimentReport, TransientResult]:
    """Unequal input frequencies: the slower feedback must accumulate more
    UP high-time than DN high-time (and mirrored)."""
    if not 0 < f_fb < math.inf:  # NaN fails too
        raise ValueError(f"feedback frequency f_fb (--f-fb) must be finite and > 0, "
                         f"got {f_fb!r}")
    if f_ref == f_fb:
        raise ExperimentError("equal frequencies: use run_offset_experiment instead")
    p = replace(point, frequency=f_ref, offset=0.0)
    result = simulate_point(p, n_periods, models, options, frequency_b=f_fb)
    table = pulse_table_for(p, result, models)
    up_ht, dn_ht = high_time(table.up), high_time(table.dn)
    lead = "UP" if f_fb < f_ref else "DN"
    if not (up_ht > dn_ht if lead == "UP" else dn_ht > up_ht):
        raise ExperimentError(
            f"expected {lead} high-time to dominate (up {up_ht:g} s vs dn {dn_ht:g} s)")
    report = _report(p, result, table, models, frequency_b=f_fb)
    report.decision = Decision.LEAD_A if up_ht > dn_ht else Decision.LEAD_B
    return report, result


# --------------------------------------------------------------------------
# Report rendering
# --------------------------------------------------------------------------

_COLUMNS = (
    "width", "length", "corner", "frequency", "offset", "decision",
    "f_max", "dead_zone", "avg_power", "up_rise_time",
    "mutual_exclusion_overlap", "die_area",
)


def report_row(point: DesignPoint, **values) -> dict:
    """One row over _COLUMNS: the point's columns, then `values` (None blanks
    a point column); metrics not given are None, die area is not modelled."""
    row = dict.fromkeys(_COLUMNS)
    row.update(width=point.width, length=point.length, corner=point.corner,
               frequency=point.frequency, offset=point.offset, die_area="out of scope")
    row.update(values)
    return {k: v if v is None or isinstance(v, str) else float(v) for k, v in row.items()}


def render_rows(rows: list[dict], stats: SimStats | None = None) -> tuple[str, str]:
    """Render report rows as (json_text, table_text).

    The table prints full-precision reprs so both renderings carry
    identical numeric values; missing metrics show as "-". Die area is
    not modelled and its column says so. The run counters of a single
    transient, when given, go into the JSON as a top-level "stats" object
    beside "rows".
    """
    if not rows:
        raise ValueError("no reports to summarize")

    def cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    report = {"rows": rows} if stats is None else {"rows": rows, "stats": asdict(stats)}
    json_text = json.dumps(report, indent=2, sort_keys=True)
    table = [list(_COLUMNS)] + [[cell(row.get(c)) for c in _COLUMNS] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(_COLUMNS))]
    lines = []
    for i, r in enumerate(table):
        lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return json_text, "\n".join(lines) + "\n"
