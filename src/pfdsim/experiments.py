"""Characterization experiments: lead/lag runs, dead-zone and maximum
operating frequency searches, width and corner sweeps, the half-period
stabilization test, unequal-frequency operation, and report rendering.

Sweep points are independent; sweeps optionally farm points out to a
process pool and assemble results in input order either way.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from pfdsim.devices import DEFAULT_CONFIG, CornerSet, ModelConfig
from pfdsim.engine import SimOptions, TransientResult, Waveform, transient
from pfdsim.measure import (
    Decision,
    MeasurementError,
    average_power,
    classify_decision,
    high_time,
    mutual_exclusion_overlap,
    rise_time,
)
from pfdsim.netlist import build_pfd

STANDARD_CORNERS = ("TT", "FF", "FS", "SF", "SS")
_SETTLE_PERIODS = 2  # start-up stretch excluded from the power window


class ExperimentError(Exception):
    """An experiment precondition or behavioral assertion failed."""


@dataclass(frozen=True)
class DesignPoint:
    width: float = 260e-9
    length: float = 100e-9
    corner: CornerSet = CornerSet(name="TT")
    frequency: float = 1e9
    offset: float = 0.0
    load_cap: float = 1e-15

    def __post_init__(self):
        if self.width <= 0 or self.length <= 0:
            raise ValueError("width and length must be > 0")
        if self.frequency <= 0:
            raise ValueError("frequency must be > 0")
        if abs(self.offset) >= self.period:
            raise ValueError("offset magnitude must be below one period")
        if self.load_cap <= 0:
            raise ValueError("load_cap must be > 0")

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
    dead_zone: float | None = None
    f_max: float | None = None

    def to_dict(self) -> dict:
        def num(v):
            return None if v is None else float(v)

        return {
            "width": num(self.point.width),
            "length": num(self.point.length),
            "corner": self.point.corner.name,
            "frequency": num(self.point.frequency),
            "offset": num(self.point.offset),
            "decision": self.decision.value,
            "avg_power": num(self.avg_power),
            "up_rise_time": num(self.up_rise_time),
            "mutual_exclusion_overlap": num(self.mutual_exclusion_overlap),
            "dead_zone": num(self.dead_zone),
            "f_max": num(self.f_max),
            "die_area": "out of scope",
        }


def _base_options(options: SimOptions | None, t_stop: float) -> SimOptions:
    opt = replace(options) if options is not None else SimOptions()
    opt.t_stop = t_stop
    return opt


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
        period = point.period
        slow = max(period, 1.0 / frequency_b) if frequency_b else period
        t_stop = 0.25 * period + abs(point.offset) + n_periods * slow
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
    return transient(net, _base_options(options, t_stop))


def _measure_window(point: DesignPoint, result: TransientResult,
                    frequency_b: float | None = None) -> tuple[float, float]:
    period = point.period
    slow = max(period, 1.0 / frequency_b) if frequency_b else period
    start = 0.25 * period + abs(point.offset) + _SETTLE_PERIODS * slow
    return start, float(result.time[-1])


def report_from_result(
    point: DesignPoint,
    result: TransientResult,
    models: ModelConfig = DEFAULT_CONFIG,
    frequency_b: float | None = None,
) -> ExperimentReport:
    vdd = models.vdd
    up = result.voltage("UP")
    dn = result.voltage("DN")
    decision = classify_decision(up, dn, vdd=vdd)
    window = _measure_window(point, result, frequency_b)
    power = average_power(result.supply_current(), vdd, window)
    try:
        up_rise = rise_time(up, 0.0, vdd)
    except MeasurementError:
        up_rise = None
    overlap = mutual_exclusion_overlap(up, dn, 0.5 * vdd)
    return ExperimentReport(
        point=point,
        decision=decision,
        avg_power=power,
        up_rise_time=up_rise,
        mutual_exclusion_overlap=overlap,
    )


def run_offset_experiment(
    point: DesignPoint,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> ExperimentReport:
    """Fixed phase-offset transient plus the standard measurement set."""
    result = simulate_point(point, n_periods, models, options)
    return report_from_result(point, result, models)


def _decision_at(point: DesignPoint, offset: float, n_periods, models, options) -> Decision:
    result = simulate_point(replace(point, offset=offset), n_periods, models, options)
    return classify_decision(result.voltage("UP"), result.voltage("DN"), vdd=models.vdd)


def measure_dead_zone(
    point: DesignPoint,
    search_lo: float = 0.0,
    search_hi: float = 200e-12,
    tol: float = 0.5e-12,
    n_periods: int = 10,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> float:
    """Smallest offset (by bisection, to tol) classified correctly in both
    lead directions; the two polarities share one search, so the result is
    the max of the two thresholds.

    Falls back to a tol-resolution linear scan if the pass/fail boundary
    turns out not to be monotone on the bracket.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if search_lo < 0 or search_hi <= search_lo:
        raise ValueError("need 0 <= search_lo < search_hi")

    def correct(off: float) -> bool:
        if _decision_at(point, +off, n_periods, models, options) is not Decision.LEAD_A:
            return False
        return _decision_at(point, -off, n_periods, models, options) is Decision.LEAD_B

    history: list[tuple[float, bool]] = []

    def probe(off: float) -> bool:
        ok = correct(off)
        history.append((off, ok))
        return ok

    if not probe(search_hi):
        raise ExperimentError(
            f"no lock window found: wrong decision at search_hi = {search_hi:g} s"
        )
    lo, hi = search_lo, search_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
        oks = [o for o, ok in history if ok]
        bads = [o for o, ok in history if not ok]
        if oks and bads and min(oks) < max(bads):
            # non-monotone bracket: scan upward at tol resolution
            off = search_lo + tol
            while off <= search_hi:
                if correct(off):
                    return off
                off += tol
            raise ExperimentError("no lock window found in linear scan")
    return hi


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
    """Largest frequency (binary search, relative tol) at which the
    detector still classifies a leading reference correctly over
    n_periods consecutive periods at a fixed fractional offset."""
    if not (0.0 < offset_fraction < 0.5):
        raise ValueError("offset_fraction must be in (0, 0.5)")
    if f_lo <= 0 or f_hi <= f_lo or tol_rel <= 0:
        raise ValueError("need 0 < f_lo < f_hi and tol_rel > 0")

    def correct(f: float) -> bool:
        p = replace(point, frequency=f, offset=offset_fraction / f)
        result = simulate_point(p, n_periods, models, options)
        dec = classify_decision(result.voltage("UP"), result.voltage("DN"),
                                vdd=models.vdd)
        return dec is Decision.LEAD_A

    history: list[tuple[float, bool]] = []

    def probe(f: float) -> bool:
        ok = correct(f)
        history.append((f, ok))
        return ok

    if not probe(f_lo):
        raise ExperimentError(f"wrong decision already at f_lo = {f_lo:g} Hz")
    if probe(f_hi):
        return f_hi
    lo, hi = f_lo, f_hi
    while (hi - lo) / lo > tol_rel:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
        oks = [f for f, ok in history if ok]
        bads = [f for f, ok in history if not ok]
        if oks and bads and max(oks) > min(bads):
            # non-monotone bracket: geometric scan at tol_rel resolution
            f = f_lo
            last_ok = f_lo
            while f <= f_hi:
                if correct(f):
                    last_ok = f
                else:
                    return last_ok
                f *= 1.0 + tol_rel
            return last_ok
    return lo


def _sweep_worker(args) -> ExperimentReport:
    point, n_periods, models, options = args
    return run_offset_experiment(point, n_periods, models, options)


def _run_points(points, n_periods, models, options, jobs) -> list[ExperimentReport]:
    tasks = [(p, n_periods, models, options) for p in points]
    if jobs <= 1 or len(tasks) <= 1:
        return [_sweep_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_worker, tasks))


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
    points = [replace(point, corner=models.corner(n)) for n in names]
    reports = _run_points(points, n_periods, models, options, jobs)
    expected = Decision.LEAD_A if point.offset > 0 else Decision.LEAD_B
    for name, rep in zip(names, reports):
        if rep.decision is not expected:
            raise ExperimentError(
                f"corner {name}: decision {rep.decision.value}, expected {expected.value}"
            )
    return reports


def per_period_decisions(
    point: DesignPoint,
    result: TransientResult,
    models: ModelConfig = DEFAULT_CONFIG,
) -> list[Decision]:
    """Classification of each full stimulus period, anchored at the first
    rising edge of the leading input."""
    period = point.period
    t_first = 0.25 * period + max(0.0, -point.offset)
    up = result.voltage("UP")
    dn = result.voltage("DN")
    out = []
    k = 0
    while t_first + (k + 1) * period <= result.time[-1] + 1e-15 * period:
        m = (up.t >= t_first + k * period) & (up.t < t_first + (k + 1) * period)
        out.append(classify_decision(Waveform(up.t[m], up.v[m]),
                                     Waveform(dn.t[m], dn.v[m]),
                                     vdd=models.vdd))
        k += 1
    return out


def half_period_test(
    point: DesignPoint,
    n_periods: int = 20,
    models: ModelConfig = DEFAULT_CONFIG,
    options: SimOptions | None = None,
) -> tuple[ExperimentReport, TransientResult]:
    """Offset forced to T/2; the classification must settle to the leading
    input and stay there for the final stretch of the run."""
    if n_periods < 2:
        raise ExperimentError("window too short: need n_periods >= 2")
    sign = 1.0 if point.offset >= 0 else -1.0
    p = replace(point, offset=sign * 0.5 * point.period)
    result = simulate_point(p, n_periods, models, options)
    decisions = per_period_decisions(p, result, models)
    tail = decisions[-min(10, max(1, n_periods // 2)):]
    expected = Decision.LEAD_A if sign > 0 else Decision.LEAD_B
    if any(d is not expected for d in tail):
        raise ExperimentError(
            "half-period classification unstable: tail decisions "
            f"{[d.value for d in tail]}, expected steady {expected.value}"
        )
    report = report_from_result(p, result, models)
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
    if f_ref == f_fb:
        raise ExperimentError("equal frequencies: use run_offset_experiment instead")
    p = replace(point, frequency=f_ref, offset=0.0)
    result = simulate_point(p, n_periods, models, options, frequency_b=f_fb)
    vdd = models.vdd
    up_ht = high_time(result.voltage("UP"), 0.5 * vdd)
    dn_ht = high_time(result.voltage("DN"), 0.5 * vdd)
    if f_fb < f_ref and not up_ht > dn_ht:
        raise ExperimentError(
            f"expected UP high-time to dominate (up {up_ht:g} s vs dn {dn_ht:g} s)"
        )
    if f_fb > f_ref and not dn_ht > up_ht:
        raise ExperimentError(
            f"expected DN high-time to dominate (up {up_ht:g} s vs dn {dn_ht:g} s)"
        )
    report = report_from_result(p, result, models, frequency_b=f_fb)
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


def render_rows(rows: list[dict]) -> tuple[str, str]:
    """Render report rows as (json_text, table_text).

    The table prints full-precision reprs so both renderings carry
    identical numeric values; missing metrics show as "-". Die area is
    not modelled and its column says so.
    """
    if not rows:
        raise ValueError("no reports to summarize")

    def cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    json_text = json.dumps({"rows": rows}, indent=2, sort_keys=True)
    table = [list(_COLUMNS)] + [[cell(row.get(c)) for c in _COLUMNS] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(_COLUMNS))]
    lines = []
    for i, r in enumerate(table):
        lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return json_text, "\n".join(lines) + "\n"


def generate_report(reports: list[ExperimentReport]) -> tuple[str, str]:
    """Table-style summary over measured design points."""
    return render_rows([r.to_dict() for r in reports])
