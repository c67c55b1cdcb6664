"""Characterization experiments: lead/lag runs, dead-zone and maximum
operating frequency searches, width and corner sweeps, the half-period
stabilization test, unequal-frequency operation, and report rendering.

An experiment's report is one `report_row` dict, the form the CLI writes
to report.json; its "decision" holds a `Decision`'s value. Sweep points
are independent; sweeps optionally farm points out to a process pool and
assemble rows in input order either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace

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
from pfdsim.netlist import DesignPoint, build_pfd, input_delays

SETTLE_PERIODS = 2  # start-up stretch excluded from the power window


class ExperimentError(Exception):
    """An experiment precondition or behavioral assertion failed."""


def stimulus_time(point: DesignPoint, periods: int = SETTLE_PERIODS,
                  frequency_b: float | None = None) -> float:
    """End of the lead-in (the later input's first rising edge) plus
    `periods` periods of the slower input; by default the settle start,
    where measurement windows begin."""
    period = point.period
    slow = max(period, 1.0 / frequency_b) if frequency_b else period
    return max(input_delays(period, point.offset)) + periods * slow


def _check_periods(n_periods: int, least: int) -> None:
    """Refuse, before anything is simulated, a run of fewer than `least`
    periods or one whose period count no float can hold. A search needs
    one whole period; a power report must end past the settle start,
    where its power window begins."""
    try:
        float(n_periods)
    except OverflowError:
        raise ValueError("n_periods is too large to convert to a float") from None
    if n_periods >= least:
        return
    if least > SETTLE_PERIODS:
        raise ValueError(f"n_periods {n_periods} must exceed the {SETTLE_PERIODS} "
                         "settle periods before the power window")
    raise ValueError(f"n_periods {n_periods} must be >= {least}")


def simulate_point(
    point: DesignPoint,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> TransientResult:
    """Build the PFD at the design point and run n_periods of stimulus, a
    run long enough for a power report: ValueError before simulating if
    n_periods <= SETTLE_PERIODS."""
    _check_periods(n_periods, SETTLE_PERIODS + 1)
    return _simulate(point, n_periods, models, options)


def _simulate(point, n_periods, models, options, frequency_b=None) -> TransientResult:
    """simulate_point without the run-length check, input B optionally at
    frequency_b: a search probe needs only whole periods, which its search
    checks once, and the mismatch run checks its own length."""
    t_stop = stimulus_time(point, n_periods, frequency_b)
    net = build_pfd(point, frequency_b=frequency_b, models=models)
    return transient(net, options or SimOptions(), t_stop)


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
                       models: ModelConfig = DEFAULT_CONFIG) -> dict:
    """The report row of a run at the point: its whole-run decision, power
    over the settled window, UP's rise time and the outputs' overlap."""
    table = pulse_table_for(point, result, models)
    return _report(point, result, table, classify_decision(table), models)


def _report(point, result, table, decision, models, frequency_b=None) -> dict:
    window = (stimulus_time(point, frequency_b=frequency_b), float(result.time[-1]))
    power = average_power(result.supply_current(), models.vdd, window)
    try:
        up_rise = rise_time(result.voltage("UP"), 0.0, models.vdd)
    except MeasurementError:
        up_rise = None
    return report_row(point, decision=decision.value, avg_power=power, up_rise_time=up_rise,
                      mutual_exclusion_overlap=mutual_exclusion_overlap(table))


def run_offset_experiment(
    point: DesignPoint,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> dict:
    """Fixed phase-offset transient plus the standard measurement set, as
    one report row."""
    result = simulate_point(point, n_periods, models, options)
    return report_from_result(point, result, models)


def _decision_at(point: DesignPoint, n_periods, models, options) -> Decision:
    """The whole-run decision of one search probe; a SolverError raised in
    its transient is raised again with the probe's signed offset and its
    frequency before its message."""
    try:
        result = _simulate(point, n_periods, models, options)
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
    bisection of A's lead over [search_lo, search_hi] down to tol or to
    float resolution. search_hi must lie below one period and pass, and
    search_lo must fail (at 0 no input leads, so it is not run); no
    failing offset may lie above a passing one.

    Probes, one transient each: +search_hi (then +search_lo, when above
    0); one +offset probe per halving; then one -offset probe to confirm
    B's lead at the result. The detector is its own mirror, so B's lead
    is classified as A's is; if that probe fails, the circuit does not
    mirror and ExperimentError says so."""
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError("tol must be finite and > 0")
    if not 0 <= search_lo < search_hi < point.period:
        raise ValueError(f"need 0 <= search_lo < search_hi < the period {point.period!r} s, "
                         f"got search_lo = {search_lo!r} s, search_hi = {search_hi!r} s")
    _check_periods(n_periods, 1)  # 0 periods end at the lagging input's first edge

    def leads(off: float) -> bool:
        """Whether the signed offset is classified as the lead it is."""
        expected = Decision.LEAD_A if off > 0 else Decision.LEAD_B
        return _decision_at(replace(point, offset=off), n_periods, models,
                            options) is expected

    if not leads(search_hi):
        raise ExperimentError(
            f"no lock window found: wrong decision at search_hi = {search_hi:g} s"
        )
    if search_lo > 0 and leads(search_lo):
        raise ExperimentError(f"dead zone below the bracket: search_lo = {search_lo:g} s "
                              "already passes")
    dz = _bisect(leads, search_hi, search_lo, lambda hi, lo: hi - lo > tol)
    if not leads(-dz):
        raise ExperimentError(f"B's lead of {dz:g} s is not classified LeadB although A's "
                              "is: the detector does not mirror")
    return dz


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
    if not (0 < f_lo < f_hi < math.inf and 0 < tol_rel < math.inf):  # NaN fails too
        raise ValueError("need 0 < f_lo < f_hi < inf and a finite tol_rel > 0")
    _check_periods(n_periods, 1)

    def passes(f: float) -> bool:
        p = replace(point, frequency=f, offset=offset_fraction / f)
        return _decision_at(p, n_periods, models, options) is Decision.LEAD_A

    if not passes(f_lo):
        raise ExperimentError(f"wrong decision already at f_lo = {f_lo:g} Hz")
    if passes(f_hi):
        return f_hi
    return _bisect(passes, f_lo, f_hi, lambda lo, hi: (hi - lo) / lo > tol_rel)


def _run_points(points, n_periods, models, options, jobs) -> list[dict]:
    """Report rows in input order, from min(jobs, points) worker processes."""
    if not (isinstance(jobs, int) and jobs >= 1):
        raise ValueError(f"jobs must be >= 1 and an int, got {jobs!r}")
    _check_periods(n_periods, SETTLE_PERIODS + 1)  # before a pool starts
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
    point: DesignPoint,
    w_lo: float = 120e-9,
    w_hi: float = 310e-9,
    steps: int = 5,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
    jobs: int = 1,
) -> list[dict]:
    """A report row at each of `steps` linearly spaced widths, the rest of
    the design from the point."""
    if not (isinstance(steps, int) and steps >= 2):
        raise ValueError(f"steps must be >= 2 and an int, got {steps!r}")
    if not 0 < w_lo < w_hi < math.inf:  # NaN fails too
        raise ValueError(f"need 0 < w_lo < w_hi < inf, got w_lo = {w_lo!r}, w_hi = {w_hi!r}")
    widths = np.linspace(w_lo, w_hi, steps)
    points = [replace(point, width=float(w)) for w in widths]
    return _run_points(points, n_periods, models, options, jobs)


def corner_sweep(
    point: DesignPoint,
    corners: list[str] | None = None,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
    jobs: int = 1,
) -> list[dict]:
    """One report row per corner, the rest of the design from the point;
    every corner must classify the point's offset correctly or
    ExperimentError is raised. A zero offset leads neither way, so it
    raises ValueError before anything is simulated."""
    names = list(STANDARD_CORNERS) if corners is None else list(corners)
    if not names:
        raise ValueError("corners must be non-empty")
    if point.offset == 0:
        raise ValueError(f"corner sweep needs a nonzero offset (--offset) so that one input "
                         f"leads, got {point.offset!r} s")
    expected = Decision.LEAD_A if point.offset > 0 else Decision.LEAD_B
    points = [replace(point, corner=n.upper()) for n in names]
    rows = _run_points(points, n_periods, models, options, jobs)
    for row in rows:
        if row["decision"] != expected.value:
            raise ExperimentError(f"corner {row['corner']}: decision "
                                  f"{row['decision']}, expected {expected.value}")
    return rows


def half_period_test(
    point: DesignPoint,
    n_periods: int = 20,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> tuple[dict, TransientResult]:
    """Offset forced to T/2; the classification must settle to the leading
    input and stay there for the final stretch of the run. Returns the
    run's report row and the run."""
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
    return _report(p, result, table, expected, models), result


def frequency_mismatch_test(
    point: DesignPoint,
    f_fb: float = 0.8e9,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> tuple[dict, TransientResult]:
    """Unequal input frequencies, A at the point's frequency and B at f_fb,
    with the offset forced to 0: the slower feedback must accumulate more
    UP high-time than DN high-time (and mirrored). Returns the run's
    report row and the run."""
    if not 0 < f_fb < math.inf:  # NaN fails too
        raise ValueError(f"feedback frequency f_fb (--f-fb) must be finite and > 0, "
                         f"got {f_fb!r}")
    if point.frequency == f_fb:
        raise ExperimentError("equal frequencies: use run_offset_experiment instead")
    _check_periods(n_periods, SETTLE_PERIODS + 1)
    p = replace(point, offset=0.0)
    result = _simulate(p, n_periods, models, options, frequency_b=f_fb)
    table = pulse_table_for(p, result, models)
    up_ht, dn_ht = high_time(table.up), high_time(table.dn)
    lead = "UP" if f_fb < point.frequency else "DN"
    if not (up_ht > dn_ht if lead == "UP" else dn_ht > up_ht):
        raise ExperimentError(
            f"expected {lead} high-time to dominate (up {up_ht:g} s vs dn {dn_ht:g} s)")
    decision = Decision.LEAD_A if up_ht > dn_ht else Decision.LEAD_B
    return _report(p, result, table, decision, models, frequency_b=f_fb), result


# --------------------------------------------------------------------------
# Report rendering
# --------------------------------------------------------------------------

_COLUMNS = (
    "width", "length", "corner", "frequency", "offset", "decision",
    "f_max", "dead_zone", "avg_power", "up_rise_time",
    "mutual_exclusion_overlap",
)


def report_row(point: DesignPoint, **values) -> dict:
    """One row over _COLUMNS: the point's columns, then `values` (None blanks
    a point column); metrics not given are None."""
    row = dict.fromkeys(_COLUMNS)
    row.update(width=point.width, length=point.length, corner=point.corner,
               frequency=point.frequency, offset=point.offset)
    row.update(values)
    return {k: v if v is None or isinstance(v, str) else float(v) for k, v in row.items()}


def render_rows(rows: list[dict], stats: SimStats | None = None) -> tuple[str, str]:
    """Render report rows as (json_text, table_text).

    The table prints full-precision reprs so both renderings carry
    identical numeric values; missing metrics show as "-". The table
    shows the _COLUMNS of each row; the JSON keeps every key, so a row
    merged from an older report keeps a column no longer written. The run
    counters of a single transient, when given, go into the JSON as a
    top-level "stats" object beside "rows".
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
