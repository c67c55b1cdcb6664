"""CLI surface: flags, exit codes, output files, reproducibility.

Runs use reduced periods and coarse search settings; determinism does
not depend on the argument values.
"""

import argparse
import ast
import concurrent.futures
import importlib
import inspect
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pfdsim.cli as cli
import pfdsim.engine as engine
import pfdsim.experiments as experiments
from pfdsim.cli import _Output, _write, build_parser, main
from pfdsim.devices import DEFAULT_CONFIG
from pfdsim.engine import INTEGRATORS, SimOptions, SolverError, kcl_residual_ratio
from pfdsim.experiments import ExperimentError
from pfdsim.measure import Decision
from pfdsim.netlist import DesignPoint, Netlist

FAST = ["--periods", "3"]
REPO = Path(__file__).resolve().parents[1]

# (argv, message): searches shorter than a period, power runs that end at or
# before the settle start; the sweeps are refused before a process pool starts
SHORT_RUNS = [
    (["deadzone", "--periods", "0"], "n_periods 0 must be >= 1"),
    (["fmax", "--periods", "-1"], "n_periods -1 must be >= 1"),
    (["transient", "--periods", "2"], "n_periods 2 must exceed the 2 settle periods"),
    (["halfperiod", "--periods", "2"], "n_periods 2 must exceed the 2 settle periods"),
    (["mismatch", "--periods", "2"], "n_periods 2 must exceed the 2 settle periods"),
    (["sweep-width", "--periods", "2", "--jobs", "2"],
     "n_periods 2 must exceed the 2 settle periods"),
    (["corners", "--periods", "1", "--jobs", "2"],
     "n_periods 1 must exceed the 2 settle periods"),
]

# (subcommand, flag) pairs the parser refuses: no subcommand takes --t-stop, and
# the others' experiments would ignore or overwrite the flag
UNREAD_FLAGS = [
    ("transient", "--t-stop"),
    ("deadzone", "--t-stop"),
    *((c, "--jobs") for c in ("transient", "deadzone", "halfperiod", "fmax", "mismatch")),
    ("deadzone", "--plot"),
    ("fmax", "--plot"),
    *((c, "--offset") for c in ("deadzone", "fmax", "mismatch")),
    ("fmax", "--freq"),
    ("mismatch", "--freq"),
    ("sweep-width", "--width"),
    ("corners", "--corner"),
]


# each experiment subcommand and the library function it runs, by its
# name in pfdsim.cli
EXPERIMENTS = {
    "transient": "simulate_point",
    "deadzone": "measure_dead_zone",
    "halfperiod": "half_period_test",
    "fmax": "measure_fmax",
    "mismatch": "frequency_mismatch_test",
    "sweep-width": "width_sweep",
    "corners": "corner_sweep",
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    """build_parser()'s subcommand parsers by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated despite a usage error")


def read_json(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


def assert_run_stats(outdir: Path) -> None:
    """report.json carries, beside the rows, the SimStats of the one run
    whose waves.csv is written beside it."""
    stats = read_json(outdir)["stats"]
    assert set(stats) == {"points", "lu_solves", "device_evals",
                          "steps_without_solve", "step_halvings"}
    assert stats["points"] == len((outdir / "waves.csv").read_text().splitlines()) - 1
    assert stats["device_evals"] == stats["lu_solves"] + 1 > 1


class TestUsageErrors:
    def test_no_arguments_exits_1(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["calibrate"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["transient", "--turbo"]) == 1

    def test_out_of_range_value_fails_before_simulation(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["transient", "--width", "-1e-9", "--out", str(out)]) == 1
        assert not out.exists()

    def test_bad_offset_rejected(self, tmp_path):
        assert main(["transient", "--offset", "2e-9", "--out", str(tmp_path / "o")]) == 1

    def test_missing_params_file(self, tmp_path):
        assert main(["transient", "--params", str(tmp_path / "nope.params"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_short_run_names_the_limit(self, tmp_path, capsys, monkeypatch):
        """A search shorter than one period, or a power-reporting run that
        would end at or before the settle start, is a usage error, raised
        by the experiment before anything is simulated or a pool starts."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_simulation)
        for k, (argv, message) in enumerate(SHORT_RUNS):
            out = tmp_path / str(k)
            assert main([*argv, "--out", str(out)]) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"pfdsim: error: {message}") and err.count("\n") == 1, argv
            assert not out.exists(), argv

    def test_t_stop_without_a_finite_step_count_exits_1(self, tmp_path, capsys):
        """A period so long that t_stop / dt is inf: one error line naming
        t_stop and dt, exit 1 and no output, not an OverflowError traceback."""
        out = tmp_path / "o"
        assert main(["transient", "--freq", "1e-300", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pfdsim: error: t_stop / dt must be a finite step count")
        assert err.count("\n") == 1 and "dt = 5e-13 s" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transient", "deadzone"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_periods_beyond_float_range_exits_1(self, command, sign, tmp_path, capsys,
                                                 monkeypatch):
        """A --periods count no float can hold: one error line naming
        n_periods, exit 1 and no output, not an OverflowError traceback.
        Only counts whose float conversion fails are tried here: a large
        count that fits would build a time axis of that many periods."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        out = tmp_path / "o"
        periods = f"--periods={sign}1{'0' * 400}"
        assert main([command, periods, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "pfdsim: error: n_periods is too large to convert to a float\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["transient", "--load-cap", "nan", "--periods", "3"],
        ["transient", "--width", "nan"],
        ["transient", "--dt", "nan"],
        ["mismatch", "--f-ref", "nan"],
        ["deadzone", "--tol", "nan"],
        ["deadzone", "--search-lo", "nan"],
        ["deadzone", "--search-hi", "nan"],
        ["fmax", "--tol-rel", "nan"],
        ["fmax", "--f-lo", "nan"],
        ["fmax", "--f-hi", "nan"],
        ["deadzone", "--tol", "inf"],
        ["fmax", "--tol-rel", "inf"],
        ["transient", "--width=inf"],
        ["transient", "--length=inf"],
        ["transient", "--load-cap=inf"],
        ["transient", "--freq=inf"],
        ["transient", "--offset=-inf"],
        ["fmax", "--f-hi", "inf"],
        ["transient", "--dt=-1e-12"],
        ["transient", "--dt", "0"],
    ])
    def test_nan_value_exits_1_before_simulation(self, argv, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert "pfdsim: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_integrator_choices_are_the_engines(self):
        """--integrator takes the engine's one list of names, in its
        order, and carries no default of its own: SimOptions has it."""
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            action = sub._option_string_actions.get("--integrator")
            if name == "report":
                assert action is None
            else:
                assert tuple(action.choices) == INTEGRATORS, name
                assert action.default is argparse.SUPPRESS, name

    @pytest.mark.parametrize("dt, steps", [("1e-25", "3.35e+16"), ("1e-30", "3.35e+21")])
    def test_time_axis_too_large_to_allocate_exits_1(self, dt, steps, tmp_path, capsys):
        """A step count whose time axis numpy refuses at once: one error
        line naming t_stop, dt and the count, exit 1 and no output, not a
        numpy MemoryError traceback or a bare 'Maximum allowed size
        exceeded'. Only counts of 1e16 and more, which no host allocates."""
        out = tmp_path / "o"
        assert main(["transient", "--periods", "3", "--dt", dt, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"pfdsim: error: t_stop = 3.3500000000000002e-09 s at dt = {dt} s is {steps} "
            "steps, a time axis too large to allocate\n")
        assert not out.exists()

    def test_corner_count_too_large_to_allocate_exits_1(self, tmp_path, capsys, monkeypatch):
        """1e15 periods at --dt 1: a step grid of 1e6 points, but 4e15
        corners of input A, which numpy refuses at once. One error line
        naming the source, the count and t_stop, exit 1, no output and
        nothing solved, where the corners were built one period at a time
        until memory ran out."""
        monkeypatch.setattr(engine, "_dc_solve", _no_simulation)
        out = tmp_path / "o"
        assert main(["transient", "--periods", "1000000000000000", "--dt", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "pfdsim: error: pulse source 'VA' has 4e+15 corners up to t_stop = "
            "1000000.0000000005 s, a time axis too large to allocate\n")
        assert not out.exists()

    @pytest.mark.parametrize("f_fb", ["nan", "0", "inf"])
    def test_bad_f_fb_exits_1_naming_the_flag(self, f_fb, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        out = tmp_path / "o"
        assert main(["mismatch", "--f-fb", f_fb, "--periods", "3", "--out", str(out)]) == 1
        assert "--f-fb" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["--w-lo=nan", "--w-hi=inf"])
    def test_bad_width_bound_exits_1_naming_both(self, bound, tmp_path, capsys, monkeypatch,
                                                 recwarn):
        """Refused before np.linspace, which warns on an infinite end and
        makes NaN widths."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        out = tmp_path / "o"
        assert main(["sweep-width", bound, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pfdsim: error: need 0 < w_lo < w_hi < inf, got w_lo = ")
        assert err.count("\n") == 1
        assert not recwarn.list
        assert not out.exists()

    @pytest.mark.parametrize("line", ["nmos.vth0 = nan", "nmos.kprime = inf"])
    def test_nonfinite_calibration_exits_1_with_its_line(self, line, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        params = tmp_path / "bad.params"
        params.write_text(f"vdd = 1.2\n{line}\n")
        out = tmp_path / "o"
        assert main(["transient", "--params", str(params), "--out", str(out)]) == 1
        assert f"pfdsim: error: {params}:2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["vdd = -1.2", "vdd = 0", "corner.fast.k_scale = 0",
                                      "nmos.kprime = 0", "pmos.vth0 = 0.3",
                                      "nmos.lambda = -0.5", "vdd = 1.2\nvdd = 1.3",
                                      "vdd = 1.2 \xff"])
    def test_refused_calibration_exits_1_naming_the_file(self, line, tmp_path, capsys,
                                                         monkeypatch):
        """Refused at load, also a fast scale under a run at TT, which never
        reads it, a per-polarity value before any device is built, a key set
        twice (named at its second line) and a file that is not UTF-8."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        params = tmp_path / "bad.params"
        params.write_bytes(f"{line}\n".encode("latin-1"))  # \xff: one byte, not UTF-8
        out = tmp_path / "o"
        assert main(["transient", "--params", str(params), "--out", str(out)]) == 1
        where = f"{params}:2: " if "\n" in line else f"{params}: "
        assert f"pfdsim: error: {where}" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatch_nan_f_fb_returns_quickly(self, tmp_path):
        """Unpatched, end to end: the run that never ended exits 1 at once."""
        assert main(["mismatch", "--f-fb", "nan", "--out", str(tmp_path / "o")]) == 1

    def test_t_stop_is_a_transient_only_flag(self, tmp_path, capsys):
        """Each subcommand accepts only the flags it reads. No subcommand
        takes --t-stop: every run lasts whole --periods."""
        for command, flag in UNREAD_FLAGS:
            value = [] if flag == "--plot" else ["1"]
            assert main([command, flag, *value, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join([flag, *value])}" in err, command

    def test_corners_at_zero_offset_exits_1(self, tmp_path, capsys, monkeypatch):
        """At offset 0 no input leads, so no corner decision can be
        expected: exit 1 naming the offset, before any corner is simulated
        and with no output directory. It used to simulate every corner and
        exit 3."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        out = tmp_path / "o"
        assert main(["corners", "--periods", "3", "--offset=0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pfdsim: error: corner sweep needs a nonzero offset (--offset)")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        assert main(["sweep-width", "--steps", "2", f"--jobs={jobs}", "--out", str(out)]) == 1
        assert "pfdsim: error: jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_report_without_rows_names_the_limit(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"rows": []}\n')
        assert main(["report", str(empty), "--out", str(tmp_path / "o")]) == 1
        assert "pfdsim: error: the input reports hold no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"rows": [1]}', '{"rows": {"a": 1}}',
                                      '{"nope": 1}', "not json"])
    def test_report_malformed_input_exits_1_naming_the_file(self, text, tmp_path, capsys):
        """Each input must be a JSON object whose "rows" is a list of
        objects; otherwise report exits 1, names the file and writes
        nothing."""
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o"
        assert main(["report", str(bad), "--out", str(out)]) == 1
        assert f"pfdsim: error: {bad}: " in capsys.readouterr().err
        assert not out.exists()


class TestTransientCommand:
    def test_writes_csv_and_report(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["transient", "--freq", "1e9", "--offset", "100e-12",
                   "--out", str(out), *FAST])
        assert rc == 0
        report = read_json(out)
        assert report["rows"][0]["decision"] == "LeadA"
        waves = (out / "waves.csv").read_text().splitlines()
        assert waves[0] == "t,A,B,X,Y,UP,DN,i_vdd"
        assert (out / "summary.txt").exists()
        assert_run_stats(out)

    def test_negative_offset_lead_b(self, tmp_path):
        out = tmp_path / "o"
        assert main(["transient", "--offset=-100e-12", "--out", str(out), *FAST]) == 0
        assert read_json(out)["rows"][0]["decision"] == "LeadB"

    def test_plot_flag_writes_svg(self, tmp_path):
        out = tmp_path / "o"
        assert main(["transient", "--out", str(out), "--plot", *FAST]) == 0
        svg = (out / "plot_waves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_params_file_changes_results(self, tmp_path):
        cal = tmp_path / "slow.params"
        cal.write_text("nmos.kprime = 50e-6\npmos.kprime = 20e-6\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["transient", "--out", str(out1), *FAST]) == 0
        assert main(["transient", "--out", str(out2), "--params", str(cal), *FAST]) == 0
        r1 = read_json(out1)["rows"][0]
        r2 = read_json(out2)["rows"][0]
        assert r2["up_rise_time"] > r1["up_rise_time"]


class TestSearchCommands:
    def test_deadzone_reports_seconds(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["deadzone", "--search-hi", "100e-12",
                   "--tol", "25e-12", "--out", str(out), *FAST])
        assert rc == 0
        dz = read_json(out)["rows"][0]["dead_zone"]
        assert 0 < dz <= 100e-12

    def test_deadzone_passing_search_lo_exit_3(self, tmp_path, capsys):
        """A bracket whose low end already passes holds no dead-zone edge:
        the search used to report a bisection point inside it."""
        rc = main(["deadzone", "--search-lo", "25e-12", "--search-hi", "100e-12",
                   "--tol", "25e-12", "--periods", "1", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "search_lo = 2.5e-11 s already passes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,probe", [
        (["deadzone", "--periods", "1"], "probe at offset +2e-10 s, 1000000000.0 Hz: "),
        (["fmax", "--periods", "1"], "probe at offset +2e-10 s, 500000000.0 Hz: "),
    ], ids=["deadzone", "fmax"])
    def test_search_solver_failure_names_the_probe_exit_2(self, argv, probe, tmp_path,
                                                          capsys, monkeypatch):
        """A solver failure in a search's first probe exits 2, naming it."""
        def fail(*args, **kwargs):
            raise SolverError("transient Newton failed at t = 1.000000e-10 s "
                              "(worst node 'UP')", time=1e-10, node="UP")

        monkeypatch.setattr(experiments, "transient", fail)
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"pfdsim: solver failure: {probe}transient Newton "
                                           "failed at t = 1.000000e-10 s (worst node 'UP')\n")

    def test_fmax_reports_hertz(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["fmax", "--f-lo", "0.8e9", "--f-hi", "2e9", "--tol-rel", "0.5",
                   "--out", str(out), *FAST])
        assert rc == 0
        assert read_json(out)["rows"][0]["f_max"] >= 0.8e9

    def test_mismatch_and_halfperiod(self, tmp_path):
        out = tmp_path / "m"
        rc = main(["mismatch", "--f-ref", "1e9", "--f-fb", "0.8e9",
                   "--out", str(out), "--periods", "4"])
        assert rc == 0
        assert read_json(out)["rows"][0]["decision"] == "LeadA"
        assert_run_stats(out)
        out2 = tmp_path / "h"
        rc = main(["halfperiod", "--periods", "6", "--out", str(out2)])
        assert rc == 0
        assert read_json(out2)["rows"][0]["decision"] == "LeadA"
        assert_run_stats(out2)

    def test_mismatch_equal_frequencies_exit_3(self, tmp_path):
        rc = main(["mismatch", "--f-ref", "1e9", "--f-fb", "1e9",
                   "--out", str(tmp_path / "o"), *FAST])
        assert rc == 3


class TestSweepCommands:
    def test_sweep_width_rows_and_plots(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["sweep-width", "--steps", "2", "--out", str(out), "--plot", *FAST])
        assert rc == 0
        rows = read_json(out)["rows"]
        assert [r["width"] for r in rows] == [120e-9, 310e-9]
        assert (out / "plot_width_rise.svg").exists()
        assert (out / "plot_width_power.svg").exists()

    def test_corners_subset(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["corners", "--corners", "TT,FF", "--out", str(out), *FAST])
        assert rc == 0
        rows = read_json(out)["rows"]
        assert [r["corner"] for r in rows] == ["TT", "FF"]

    @pytest.mark.parametrize("argv, charts", [
        (["sweep-width", "--steps", "2"], ["plot_width_power.svg"]),
        (["corners", "--corners", "TT,FF"], []),
    ], ids=["sweep-width", "corners"])
    def test_plot_leaves_out_points_where_up_never_rose(self, argv, charts, tmp_path):
        """B leads by 100 ps, so UP never rises and no point has a rise
        time: the rise-time chart, which has no point left, is not written.
        Both runs used to die in `line_chart` on float(None)."""
        out = tmp_path / "o"
        assert main([*argv, "--offset=-100e-12", "--plot", "--out", str(out), *FAST]) == 0
        assert all(r["up_rise_time"] is None for r in read_json(out)["rows"])
        assert sorted(p.name for p in out.glob("*.svg")) == charts
        assert not any("nan" in p.read_text().lower() for p in out.glob("*.svg"))

    def test_corner_names_any_case(self, tmp_path, monkeypatch):
        """The library uppercases corner names; report.json and the chart
        title read them from the rows. Nothing is simulated."""
        def run(point, *args):
            return experiments.report_row(point, decision=Decision.LEAD_A.value, avg_power=0.0,
                                          up_rise_time=1e-11, mutual_exclusion_overlap=0.0)

        monkeypatch.setattr(experiments, "run_offset_experiment", run)
        out = tmp_path / "o"
        assert main(["corners", "--corners", " tt,Ff ,", "--plot", "--out", str(out)]) == 0
        assert [r["corner"] for r in read_json(out)["rows"]] == ["TT", "FF"]
        assert "Rise time vs corner (TT,FF)" in (out / "plot_corner_rise.svg").read_text()

    def test_plot_drops_each_undefined_point(self, tmp_path):
        out = tmp_path / "o"
        chart = ("c.svg", [("s", np.array([1.0, 2.0, 3.0]), np.array([1.0, None, 2.0]))],
                 "t", "x", "y")
        _write(argparse.Namespace(out=str(out), plot=True),
               _Output([{"width": 1.0}], plots=(chart,)))
        points = re.search(r'<polyline points="([^"]*)"', (out / "c.svg").read_text())[1]
        assert len(points.split()) == 2


class TestLibraryRows:
    """An experiment returns the rows its subcommand writes: report.json
    is the library's report after a JSON round trip."""

    @pytest.mark.parametrize("argv, experiment", [
        (["transient"],
         lambda: [experiments.run_offset_experiment(DesignPoint(offset=100e-12), n_periods=3)]),
        (["sweep-width", "--steps", "2"],
         lambda: experiments.width_sweep(DesignPoint(offset=100e-12), steps=2, n_periods=3)),
    ], ids=["transient", "sweep-width"])
    def test_cli_writes_the_library_rows(self, argv, experiment, tmp_path):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out), *FAST]) == 0
        assert read_json(out)["rows"] == experiment()


class TestReportCommand:
    def test_merges_rows(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["transient", "--out", str(a), *FAST]) == 0
        assert main(["deadzone", "--search-hi", "100e-12",
                     "--tol", "50e-12", "--out", str(b), *FAST]) == 0
        out = tmp_path / "sum"
        rc = main(["report", str(a / "report.json"), str(b / "report.json"),
                   "--out", str(out)])
        assert rc == 0
        assert set(read_json(a)) == {"rows", "stats"}
        assert set(read_json(b)) == {"rows"}
        merged = read_json(out)
        assert set(merged) == {"rows"}  # run counters are not merged
        rows = merged["rows"]
        assert len(rows) == 2
        table = (out / "summary.txt").read_text()
        assert "dead_zone" in table and "die_area" not in table

    def test_merges_rows_with_a_column_no_longer_written(self, tmp_path):
        """A report.json written while rows carried "die_area" still
        merges: the JSON keeps the key, the table shows today's columns."""
        a = tmp_path / "a"
        assert main(["transient", "--out", str(a), *FAST]) == 0
        old = read_json(a)
        old["rows"][0]["die_area"] = "out of scope"
        older = tmp_path / "older.json"
        older.write_text(json.dumps(old))
        out = tmp_path / "sum"
        assert main(["report", str(older), str(a / "report.json"), "--out", str(out)]) == 0
        rows = read_json(out)["rows"]
        assert rows[0] == old["rows"][0]
        assert "die_area" not in rows[1]
        table = (out / "summary.txt").read_text()
        assert "die_area" not in table and "out of scope" not in table


class TestReproducibility:
    def test_transient_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["transient", "--out", str(out), "--plot", *FAST]) == 0
            outs.append(out)
        for fname in ("report.json", "summary.txt", "waves.csv", "plot_waves.svg"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


class TestTracePoints:
    def test_bench_patch_points_resolve(self):
        """Every name the benchmark's layer trace patches exists, so a
        refactor that drops one fails here, not in `bench/run.py --trace 1`.
        The bench file is parsed, not imported."""
        tree = ast.parse((REPO / "bench" / "layers.py").read_text())
        points = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and any(getattr(t, "id", None) == "PATCH_POINTS"
                              for t in node.targets))
        assert points
        for module, path, layer in points:
            owner = importlib.import_module(module)
            for name in path.split("."):
                assert hasattr(owner, name), f"{module}.{path} ({layer}) is gone"
                owner = getattr(owner, name)
            assert callable(owner), f"{module}.{path}"


    def test_bench_transient_capture_contract(self, tmp_path, monkeypatch):
        """The benchmark wraps `experiments.transient` as `(netlist, options,
        *args, **kwargs)` to replay each run's KCL and to count simulated
        time, so every transient gets a Netlist and a SimOptions as its
        first two positional arguments. Each captured run passes the replay."""
        runs = []
        transient = experiments.transient

        def capturing(netlist, options, *args, **kwargs):
            result = transient(netlist, options, *args, **kwargs)
            runs.append((netlist, options, result))
            return result

        monkeypatch.setattr(experiments, "transient", capturing)
        for argv in (["deadzone", "--periods", "1", "--tol", "50e-12"],
                     ["transient", "--periods", "3"]):
            before = len(runs)
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0
            assert len(runs) > before, argv
        for net, opt, res in runs:
            assert isinstance(net, Netlist) and isinstance(opt, SimOptions)
            assert kcl_residual_ratio(net, res, opt) <= 1


class TestFlagRouting:
    """Each flag the user gives goes to its one owner, and a flag left out
    reaches no call, so the owner's own default applies."""

    @pytest.mark.parametrize("command", list(EXPERIMENTS))
    def test_left_out_flags_reach_no_call(self, command, tmp_path, monkeypatch):
        """With only --out given, the subcommand's library function gets the
        default models and options, the default design point but for the
        CLI's --offset where the subcommand takes it, and no keyword of its
        own. Nothing is simulated: the recording stub raises."""
        name = EXPERIMENTS[command]
        signature = inspect.signature(getattr(cli, name))
        calls = []

        def record(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments)
            raise ExperimentError("recorded")

        monkeypatch.setattr(cli, name, record)
        assert main([command, "--out", str(tmp_path / "o")]) == 3
        [call] = calls
        takes_offset = "--offset" in subparsers()[command]._option_string_actions
        point = DesignPoint(offset=100e-12) if takes_offset else DesignPoint()
        assert call == {"point": point, "models": DEFAULT_CONFIG, "options": SimOptions()}
        assert call["models"] is DEFAULT_CONFIG

    def test_each_flag_sets_a_parameter_of_its_owner(self):
        """Every experiment flag's dest is a DesignPoint or SimOptions field,
        one of the CLI's own (params, out, plot) or a keyword of the
        subcommand's library function (mismatch's --f-ref is the point's
        frequency); and only --offset, whose library default leads neither
        way, and --out carry a default here."""
        fixed = ({f.name for f in fields(DesignPoint)} | {f.name for f in fields(SimOptions)}
                 | {"params", "out", "plot"})
        defaults = {}
        for command, name in EXPERIMENTS.items():
            keywords = set(inspect.signature(getattr(cli, name)).parameters)
            for action in subparsers()[command]._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                assert action.dest in fixed | keywords, (command, action.dest)
                if action.default is not argparse.SUPPRESS:
                    defaults[action.option_strings[0]] = action.default
        assert defaults == {"--offset": 100e-12, "--out": "out"}


class TestReadme:
    def test_cli_section_matches_the_parser(self):
        """Each `pfdsim ...` example in README's CLI section parses, and
        each --flag its text names is an option of some subcommand (`--flag`
        itself is the generic one of the `--flag=value` note). Nothing is
        simulated."""
        text = (REPO / "README.md").read_text()
        start = text.index("## CLI")
        section = text[start:text.index("\n## ", start)]
        parser = build_parser()
        examples = re.findall(r"^pfdsim .+$", section, re.M)
        assert examples
        for example in examples:
            try:
                parser.parse_args(shlex.split(example)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {example}")
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {o for p in subparsers.choices.values() for o in p._option_string_actions}
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) - {"--flag"}
        assert named <= options, sorted(named - options)
