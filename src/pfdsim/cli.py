"""Command-line frontend for the PFD characterization experiments.

Every subcommand writes fixed-name outputs under --out (report.json,
summary.txt, waves.csv for waveform runs, plot_*.svg with --plot) and
uses SI base units on all flags. Exit codes: 0 success, 1 usage error,
2 solver failure, 3 failed experiment assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from pfdsim.devices import DEFAULT_CONFIG, ModelConfig, load_config
from pfdsim.engine import INTEGRATORS, SimOptions, SolverError, TransientResult
from pfdsim.experiments import (
    STANDARD_CORNERS,
    DesignPoint,
    ExperimentError,
    corner_sweep,
    frequency_mismatch_test,
    half_period_test,
    measure_dead_zone,
    measure_fmax,
    render_rows,
    report_from_result,
    report_row,
    simulate_point,
    width_sweep,
)
from pfdsim.measure import MeasurementError
from pfdsim.netlist import NetlistError
from pfdsim.svgplot import line_chart

_EXIT_USAGE = 1
_EXIT_SOLVER = 2
_EXIT_EXPERIMENT = 3


class _Parser(argparse.ArgumentParser):
    # no flag prefixes: fmax --offset would resolve to --offset-fraction
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser, omit: tuple[str, ...] = ()) -> None:
    """The shared flags but `omit`: a subcommand takes only those it reads."""
    def add(flag, **kwargs):
        if flag not in omit:
            p.add_argument(flag, **kwargs)

    add("--width", type=float, default=DesignPoint.width, help="gate width, m")
    add("--length", type=float, default=DesignPoint.length, help="gate length, m")
    add("--corner", default=DesignPoint.corner, choices=list(STANDARD_CORNERS))
    add("--freq", dest="frequency", type=float, default=DesignPoint.frequency,
        help="input frequency, Hz")
    add("--offset", type=float, default=100e-12,
        help="phase offset, s (positive: A leads)")
    add("--load-cap", type=float, default=DesignPoint.load_cap, help="output load, F")
    add("--periods", type=int, default=10, help="simulated input periods")
    add("--dt", type=float, default=None, help="fixed step, s")
    add("--integrator", default=INTEGRATORS[0], choices=INTEGRATORS)
    add("--params", default=None, help="device calibration file")
    add("--out", default="out", help="output directory")
    add("--plot", action="store_true", help="write SVG plots")
    add("--jobs", type=int, default=1, help="parallel sweep workers")


def build_parser() -> _Parser:
    parser = _Parser(prog="pfdsim", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transient", help="fixed-offset lead/lag run")
    _add_common(p, omit=("--jobs",))

    p = sub.add_parser("deadzone", help="bisect the smallest resolvable offset")
    _add_common(p, omit=("--offset", "--plot", "--jobs"))
    p.add_argument("--search-lo", type=float, default=0.0)
    p.add_argument("--search-hi", type=float, default=200e-12)
    p.add_argument("--tol", type=float, default=0.5e-12)

    p = sub.add_parser("halfperiod", help="T/2 offset stabilization test")
    _add_common(p, omit=("--jobs",))
    p.set_defaults(periods=20)

    p = sub.add_parser("fmax", help="binary-search the maximum operating frequency")
    _add_common(p, omit=("--freq", "--offset", "--plot", "--jobs"))
    p.add_argument("--f-lo", type=float, default=0.5e9)
    p.add_argument("--f-hi", type=float, default=20e9)
    p.add_argument("--tol-rel", type=float, default=0.01)
    p.add_argument("--offset-fraction", type=float, default=0.1)

    p = sub.add_parser("mismatch", help="unequal reference/feedback frequencies")
    _add_common(p, omit=("--freq", "--offset", "--jobs"))
    p.add_argument("--f-ref", type=float, default=1e9)
    p.add_argument("--f-fb", type=float, default=0.8e9)

    p = sub.add_parser("sweep-width", help="width parametric sweep")
    _add_common(p, omit=("--width",))
    p.add_argument("--w-lo", type=float, default=120e-9)
    p.add_argument("--w-hi", type=float, default=310e-9)
    p.add_argument("--steps", type=int, default=5)

    p = sub.add_parser("corners", help="process-corner sweep")
    _add_common(p, omit=("--corner",))
    p.add_argument("--corners", default=",".join(STANDARD_CORNERS),
                   help="comma-separated corner names")

    p = sub.add_parser("report", help="merge prior report.json files into a summary")
    p.add_argument("inputs", nargs="+", help="report.json files from earlier runs")
    p.add_argument("--out", default="out", help="output directory")
    return parser


def _models(args) -> ModelConfig:
    if args.params is None:
        return DEFAULT_CONFIG
    return load_config(args.params)


def _point(args) -> DesignPoint:
    """A field whose flag the subcommand does not take keeps DesignPoint's
    default; the experiment sets it."""
    given = vars(args)
    return DesignPoint(**{f.name: given[f.name] for f in fields(DesignPoint) if f.name in given})


class _Output(NamedTuple):
    """What a subcommand writes: report rows, the waves of a single run
    (whose run counters report.json carries) and, with --plot, sweep
    charts as (file name, series, title, xlabel, ylabel)."""

    rows: list[dict]
    waves: TransientResult | None = None
    plots: tuple = ()


def _write(args, out: _Output) -> None:
    """Write the report files, any waves and, with --plot, the waves' and
    sweep charts under --out."""
    rows, waves, plots = out
    # before mkdir: a bad row writes nothing
    json_text, table = render_rows(rows, waves.stats if waves is not None else None)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json_text + "\n")
    (outdir / "summary.txt").write_text(table)
    if waves is not None:
        waves.to_csv(outdir / "waves.csv")
    if not getattr(args, "plot", False):
        return
    if waves is not None:
        series = []
        for name in ("A", "B", "UP", "DN"):
            w = waves.voltage(name)
            stride = max(1, len(w.t) // 2000)
            series.append((name, w.t[::stride], w.v[::stride]))
        line_chart(outdir / "plot_waves.svg", series, title="PFD transient",
                   xlabel="time (s)", ylabel="voltage (V)")
    for name, series, title, xlabel, ylabel in plots:
        # a point a sweep left undefined (None: UP never rose there) is left
        # out, and a chart with no point left is not written
        defined = []
        for label, x, y in series:
            y = np.array(y, dtype=float)  # None -> NaN
            keep = np.isfinite(y)
            if keep.any():
                defined.append((label, x[keep], y[keep]))
        if defined:
            line_chart(outdir / name, defined, title=title, xlabel=xlabel, ylabel=ylabel)


def _run(args, experiment) -> None:
    """The path of every experiment subcommand from its flags to its files:
    models, design point and options, the experiment, then its output. Each
    is checked where it is made: SimOptions checks --dt and --integrator,
    and the experiment checks --periods (its n_periods) before it
    simulates."""
    models = _models(args)
    point = _point(args)
    options = SimOptions(dt=args.dt, integrator=args.integrator)
    _write(args, experiment(args, point, models, options))


def cmd_transient(args, point, models, options) -> _Output:
    result = simulate_point(point, args.periods, models, options)
    return _Output([report_from_result(point, result, models)], result)


def cmd_deadzone(args, point, models, options) -> _Output:
    dz = measure_dead_zone(point, search_lo=args.search_lo, search_hi=args.search_hi,
                           tol=args.tol, n_periods=args.periods, models=models,
                           options=options)
    return _Output([report_row(point, offset=None, dead_zone=dz)])


def cmd_halfperiod(args, point, models, options) -> _Output:
    row, result = half_period_test(point, n_periods=args.periods, models=models,
                                   options=options)
    return _Output([row], result)


def cmd_fmax(args, point, models, options) -> _Output:
    fm = measure_fmax(point, offset_fraction=args.offset_fraction, f_lo=args.f_lo,
                      f_hi=args.f_hi, tol_rel=args.tol_rel, n_periods=args.periods,
                      models=models, options=options)
    return _Output([report_row(point, frequency=None, offset=None, f_max=fm)])


def cmd_mismatch(args, point, models, options) -> _Output:
    row, result = frequency_mismatch_test(args.f_ref, args.f_fb, n_periods=args.periods,
                                          point=point, models=models, options=options)
    return _Output([row], result)


def cmd_sweep_width(args, point, models, options) -> _Output:
    rows = width_sweep(w_lo=args.w_lo, w_hi=args.w_hi, steps=args.steps,
                       point=point, n_periods=args.periods, models=models,
                       options=options, jobs=args.jobs)
    widths = np.array([r["width"] for r in rows])
    plots = (
        ("plot_width_rise.svg",
         [("UP rise time", widths, [r["up_rise_time"] for r in rows])],
         "Rise time vs width", "width (m)", "s"),
        ("plot_width_power.svg",
         [("average power", widths, [r["avg_power"] for r in rows])],
         "Power vs width", "width (m)", "W"),
    )
    return _Output(rows, plots=plots)


def cmd_corners(args, point, models, options) -> _Output:
    names = [c.strip() for c in args.corners.split(",") if c.strip()]
    rows = corner_sweep(corners=names, point=point, n_periods=args.periods,
                        models=models, options=options, jobs=args.jobs)
    idx = np.arange(len(rows), dtype=float)
    plots = (
        ("plot_corner_rise.svg",
         [("UP rise time", idx, [r["up_rise_time"] for r in rows])],
         "Rise time vs corner (" + ",".join(r["corner"] for r in rows) + ")",
         "corner index", "s"),
    )
    return _Output(rows, plots=plots)


def cmd_report(args) -> None:
    rows = []
    for path in args.inputs:
        try:
            data = json.loads(Path(path).read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: not a JSON file: {exc}") from None
        file_rows = data.get("rows") if isinstance(data, dict) else None
        if not (isinstance(file_rows, list) and all(isinstance(r, dict) for r in file_rows)):
            raise ValueError(f'{path}: expected a JSON object whose "rows" is a list of objects')
        rows.extend(file_rows)
    if not rows:
        raise ValueError("the input reports hold no rows; report needs at least 1")
    _write(args, _Output(rows))


# the experiment subcommands, each run by _run
_EXPERIMENTS = {
    "transient": cmd_transient,
    "deadzone": cmd_deadzone,
    "halfperiod": cmd_halfperiod,
    "fmax": cmd_fmax,
    "mismatch": cmd_mismatch,
    "sweep-width": cmd_sweep_width,
    "corners": cmd_corners,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        if args.command == "report":
            cmd_report(args)
        else:
            _run(args, _EXPERIMENTS[args.command])
        return 0
    except (ValueError, NetlistError, OSError, KeyError) as exc:
        print(f"pfdsim: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SolverError as exc:
        print(f"pfdsim: solver failure: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except (ExperimentError, MeasurementError) as exc:
        print(f"pfdsim: experiment failed: {exc}", file=sys.stderr)
        return _EXIT_EXPERIMENT


if __name__ == "__main__":
    sys.exit(main())
