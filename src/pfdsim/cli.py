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

from pfdsim.devices import DEFAULT_CONFIG, load_config
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
    """The shared flags but `omit`: a subcommand takes only those it reads.
    Each dest is the name of the parameter the flag sets, as is that of a
    subcommand's own flag (mismatch's --f-ref sets DesignPoint.frequency).
    Only --offset (100 ps, so that A leads; DesignPoint's 0 leads neither
    way) and --out have a default in the CLI; every other flag's owner
    holds its default."""
    def add(flag, **kwargs):
        if flag not in omit:
            p.add_argument(flag, **kwargs)

    add("--width", type=float, help="gate width, m")
    add("--length", type=float, help="gate length, m")
    add("--corner", choices=list(STANDARD_CORNERS))
    add("--freq", dest="frequency", type=float, help="input frequency, Hz")
    add("--offset", type=float, default=100e-12,
        help="phase offset, s (positive: A leads)")
    add("--load-cap", type=float, help="output load, F")
    add("--periods", dest="n_periods", metavar="PERIODS", type=int,
        help="simulated input periods")
    add("--dt", type=float, help="fixed step, s")
    add("--integrator", choices=INTEGRATORS)
    add("--params", help="device calibration file")
    add("--out", default="out", help="output directory")
    add("--plot", action="store_true", help="write SVG plots")
    add("--jobs", type=int, help="parallel sweep workers")


def _names(text: str) -> list[str]:
    """The names of a comma-separated list, blanks dropped."""
    return [c.strip() for c in text.split(",") if c.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="pfdsim", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name, run, about, omit=()):
        # a flag left out is not in the namespace, so its owner's default applies
        p = sub.add_parser(name, help=about, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        _add_common(p, omit)
        return p

    experiment("transient", cmd_transient, "fixed-offset lead/lag run", omit=("--jobs",))

    p = experiment("deadzone", cmd_deadzone, "bisect the smallest resolvable offset",
                   omit=("--offset", "--plot", "--jobs"))
    p.add_argument("--search-lo", type=float)
    p.add_argument("--search-hi", type=float)
    p.add_argument("--tol", type=float)

    experiment("halfperiod", cmd_halfperiod, "T/2 offset stabilization test",
               omit=("--jobs",))

    p = experiment("fmax", cmd_fmax, "binary-search the maximum operating frequency",
                   omit=("--freq", "--offset", "--plot", "--jobs"))
    p.add_argument("--f-lo", type=float)
    p.add_argument("--f-hi", type=float)
    p.add_argument("--tol-rel", type=float)
    p.add_argument("--offset-fraction", type=float)

    p = experiment("mismatch", cmd_mismatch, "unequal reference/feedback frequencies",
                   omit=("--freq", "--offset", "--jobs"))
    p.add_argument("--f-ref", dest="frequency", metavar="F_REF", type=float)
    p.add_argument("--f-fb", type=float)

    p = experiment("sweep-width", cmd_sweep_width, "width parametric sweep",
                   omit=("--width",))
    p.add_argument("--w-lo", type=float)
    p.add_argument("--w-hi", type=float)
    p.add_argument("--steps", type=int)

    p = experiment("corners", cmd_corners, "process-corner sweep", omit=("--corner",))
    p.add_argument("--corners", type=_names, help="comma-separated corner names")

    p = sub.add_parser("report", help="merge prior report.json files into a summary")
    p.add_argument("inputs", nargs="+", help="report.json files from earlier runs")
    p.add_argument("--out", default="out", help="output directory")
    return parser


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


def _take(given: dict, owner) -> dict:
    """Remove from `given` and return the entries that are fields of the
    dataclass `owner`."""
    return {f.name: given.pop(f.name) for f in fields(owner) if f.name in given}


def _run(args) -> None:
    """The one path of every experiment subcommand from its flags to its
    files. Each flag given goes to its owner: --params to load_config, the
    design point's to DesignPoint, the solver's to SimOptions and the rest
    to the experiment as keywords; a flag left out is absent, so its
    owner's default applies. Each owner checks its values when it gets
    them, in that order, and the experiment checks --periods (its
    n_periods) before it simulates."""
    given = {k: v for k, v in vars(args).items()
             if k not in ("command", "run", "out", "plot")}
    params = given.pop("params", None)
    models = DEFAULT_CONFIG if params is None else load_config(params)
    point = DesignPoint(**_take(given, DesignPoint))
    options = SimOptions(**_take(given, SimOptions))
    _write(args, args.run(point, models, options, **given))


def cmd_transient(point, models, options, **kw) -> _Output:
    result = simulate_point(point, models=models, options=options, **kw)
    return _Output([report_from_result(point, result, models)], result)


def cmd_deadzone(point, models, options, **kw) -> _Output:
    dz = measure_dead_zone(point, models=models, options=options, **kw)
    return _Output([report_row(point, offset=None, dead_zone=dz)])


def cmd_halfperiod(point, models, options, **kw) -> _Output:
    row, result = half_period_test(point, models=models, options=options, **kw)
    return _Output([row], result)


def cmd_fmax(point, models, options, **kw) -> _Output:
    fm = measure_fmax(point, models=models, options=options, **kw)
    return _Output([report_row(point, frequency=None, offset=None, f_max=fm)])


def cmd_mismatch(point, models, options, **kw) -> _Output:
    row, result = frequency_mismatch_test(point, models=models, options=options, **kw)
    return _Output([row], result)


def cmd_sweep_width(point, models, options, **kw) -> _Output:
    rows = width_sweep(point, models=models, options=options, **kw)
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


def cmd_corners(point, models, options, **kw) -> _Output:
    rows = corner_sweep(point, models=models, options=options, **kw)
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
            _run(args)
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
