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
from pathlib import Path

import numpy as np

from pfdsim.devices import DEFAULT_CONFIG, ModelConfig, load_config
from pfdsim.engine import SimOptions, SolverError, TransientResult
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
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=float, default=260e-9, help="gate width, m")
    p.add_argument("--length", type=float, default=100e-9, help="gate length, m")
    p.add_argument("--corner", default="TT", choices=list(STANDARD_CORNERS))
    p.add_argument("--freq", type=float, default=1e9, help="input frequency, Hz")
    p.add_argument("--offset", type=float, default=100e-12,
                   help="phase offset, s (positive: A leads)")
    p.add_argument("--load-cap", type=float, default=1e-15, help="output load, F")
    p.add_argument("--periods", type=int, default=10, help="simulated input periods")
    p.add_argument("--dt", type=float, default=None, help="fixed step, s")
    p.add_argument("--t-stop", type=float, default=None,
                   help="override simulation end time, s (transient only)")
    p.add_argument("--integrator", default="trapezoidal",
                   choices=["trapezoidal", "backward_euler"])
    p.add_argument("--params", default=None, help="device calibration file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--plot", action="store_true", help="write SVG plots")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")


def build_parser() -> _Parser:
    parser = _Parser(prog="pfdsim", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transient", help="fixed-offset lead/lag run")
    _add_common(p)

    p = sub.add_parser("deadzone", help="bisect the smallest resolvable offset")
    _add_common(p)
    p.add_argument("--search-lo", type=float, default=0.0)
    p.add_argument("--search-hi", type=float, default=200e-12)
    p.add_argument("--tol", type=float, default=0.5e-12)

    p = sub.add_parser("halfperiod", help="T/2 offset stabilization test")
    _add_common(p)
    p.set_defaults(periods=20)

    p = sub.add_parser("fmax", help="binary-search the maximum operating frequency")
    _add_common(p)
    p.add_argument("--f-lo", type=float, default=0.5e9)
    p.add_argument("--f-hi", type=float, default=20e9)
    p.add_argument("--tol-rel", type=float, default=0.01)
    p.add_argument("--offset-fraction", type=float, default=0.1)

    p = sub.add_parser("mismatch", help="unequal reference/feedback frequencies")
    _add_common(p)
    p.add_argument("--f-ref", type=float, default=1e9)
    p.add_argument("--f-fb", type=float, default=0.8e9)

    p = sub.add_parser("sweep-width", help="width parametric sweep")
    _add_common(p)
    p.add_argument("--w-lo", type=float, default=120e-9)
    p.add_argument("--w-hi", type=float, default=310e-9)
    p.add_argument("--steps", type=int, default=5)

    p = sub.add_parser("corners", help="process-corner sweep")
    _add_common(p)
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


def _point(args, models: ModelConfig, offset: float | None = None) -> DesignPoint:
    return DesignPoint(
        width=args.width,
        length=args.length,
        corner=models.corner(args.corner),
        frequency=args.freq,
        offset=args.offset if offset is None else offset,
        load_cap=args.load_cap,
    )


def _options(args) -> SimOptions:
    opt = SimOptions(dt=args.dt, integrator=args.integrator)
    opt.validate()
    return opt


def _write(outdir: Path, rows: list[dict], waves: TransientResult | None = None) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    json_text, table = render_rows(rows)
    (outdir / "report.json").write_text(json_text + "\n")
    (outdir / "summary.txt").write_text(table)
    if waves is not None:
        waves.to_csv(outdir / "waves.csv")


def _plot_waves(outdir: Path, result: TransientResult) -> None:
    series = []
    for name in ("A", "B", "UP", "DN"):
        w = result.voltage(name)
        stride = max(1, len(w.t) // 2000)
        series.append((name, w.t[::stride], w.v[::stride]))
    line_chart(outdir / "plot_waves.svg", series,
               title="PFD transient", xlabel="time (s)", ylabel="voltage (V)")


def _settle_start(point: DesignPoint, periods_hint: int = 2) -> float:
    return 0.25 * point.period + abs(point.offset) + periods_hint * point.period


def cmd_transient(args) -> int:
    models = _models(args)
    point = _point(args, models)
    opt = _options(args)
    if args.t_stop is not None and args.t_stop <= _settle_start(point):
        raise ValueError(f"--t-stop {args.t_stop:g} s must exceed the settle start "
                         f"{_settle_start(point):g} s (period/4 + |offset| + 2 periods)")
    result = simulate_point(point, args.periods, models, opt, t_stop=args.t_stop)
    report = report_from_result(point, result, models)
    outdir = Path(args.out)
    _write(outdir, [report.to_dict()], waves=result)
    if args.plot:
        _plot_waves(outdir, result)
    return 0


def cmd_deadzone(args) -> int:
    models = _models(args)
    point = _point(args, models, offset=0.0)
    dz = measure_dead_zone(point, search_lo=args.search_lo, search_hi=args.search_hi,
                           tol=args.tol, n_periods=args.periods, models=models,
                           options=_options(args))
    row = {
        "width": point.width, "length": point.length, "corner": point.corner.name,
        "frequency": point.frequency, "offset": None, "decision": None,
        "avg_power": None, "up_rise_time": None, "mutual_exclusion_overlap": None,
        "dead_zone": dz, "f_max": None, "die_area": "out of scope",
    }
    _write(Path(args.out), [row])
    return 0


def cmd_halfperiod(args) -> int:
    models = _models(args)
    point = _point(args, models)
    report, result = half_period_test(point, n_periods=args.periods, models=models,
                                      options=_options(args))
    outdir = Path(args.out)
    _write(outdir, [report.to_dict()], waves=result)
    if args.plot:
        _plot_waves(outdir, result)
    return 0


def cmd_fmax(args) -> int:
    models = _models(args)
    point = _point(args, models, offset=0.0)
    fm = measure_fmax(point, offset_fraction=args.offset_fraction, f_lo=args.f_lo,
                      f_hi=args.f_hi, tol_rel=args.tol_rel, n_periods=args.periods,
                      models=models, options=_options(args))
    row = {
        "width": point.width, "length": point.length, "corner": point.corner.name,
        "frequency": None, "offset": None, "decision": None,
        "avg_power": None, "up_rise_time": None, "mutual_exclusion_overlap": None,
        "dead_zone": None, "f_max": fm, "die_area": "out of scope",
    }
    _write(Path(args.out), [row])
    return 0


def cmd_mismatch(args) -> int:
    models = _models(args)
    point = _point(args, models, offset=0.0)
    report, result = frequency_mismatch_test(args.f_ref, args.f_fb,
                                             n_periods=args.periods, point=point,
                                             models=models, options=_options(args))
    outdir = Path(args.out)
    _write(outdir, [report.to_dict()], waves=result)
    if args.plot:
        _plot_waves(outdir, result)
    return 0


def cmd_sweep_width(args) -> int:
    models = _models(args)
    point = _point(args, models)
    reports = width_sweep(w_lo=args.w_lo, w_hi=args.w_hi, steps=args.steps,
                          point=point, n_periods=args.periods, models=models,
                          options=_options(args), jobs=args.jobs)
    outdir = Path(args.out)
    _write(outdir, [r.to_dict() for r in reports])
    if args.plot:
        widths = np.array([r.point.width for r in reports])
        line_chart(outdir / "plot_width_rise.svg",
                   [("UP rise time", widths,
                     np.array([r.up_rise_time for r in reports]))],
                   title="Rise time vs width", xlabel="width (m)", ylabel="s")
        line_chart(outdir / "plot_width_power.svg",
                   [("average power", widths,
                     np.array([r.avg_power for r in reports]))],
                   title="Power vs width", xlabel="width (m)", ylabel="W")
    return 0


def cmd_corners(args) -> int:
    models = _models(args)
    point = _point(args, models)
    names = [c.strip().upper() for c in args.corners.split(",") if c.strip()]
    reports = corner_sweep(corners=names, point=point, n_periods=args.periods,
                           models=models, options=_options(args), jobs=args.jobs)
    outdir = Path(args.out)
    _write(outdir, [r.to_dict() for r in reports])
    if args.plot:
        idx = np.arange(len(reports), dtype=float)
        line_chart(outdir / "plot_corner_rise.svg",
                   [("UP rise time", idx,
                     np.array([r.up_rise_time for r in reports]))],
                   title="Rise time vs corner (" + ",".join(names) + ")",
                   xlabel="corner index", ylabel="s")
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        data = json.loads(Path(path).read_text())
        rows.extend(data["rows"])
    if not rows:
        raise ValueError("the input reports hold no rows; report needs at least 1")
    _write(Path(args.out), rows)
    return 0


_COMMANDS = {
    "transient": cmd_transient,
    "deadzone": cmd_deadzone,
    "halfperiod": cmd_halfperiod,
    "fmax": cmd_fmax,
    "mismatch": cmd_mismatch,
    "sweep-width": cmd_sweep_width,
    "corners": cmd_corners,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
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
