"""CLI surface: flags, exit codes, output files, reproducibility.

Runs use reduced periods and coarse search settings; determinism does
not depend on the argument values.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import pfdsim.experiments as experiments
from pfdsim.cli import main
from pfdsim.engine import SolverError

FAST = ["--periods", "3"]
REPO = Path(__file__).resolve().parents[1]

# (argv, message): searches shorter than a period, power runs that end at or
# before the settle start
SHORT_RUNS = [
    (["deadzone", "--periods", "0"], "--periods 0 must be >= 1"),
    (["fmax", "--periods", "-1"], "--periods -1 must be >= 1"),
    (["transient", "--t-stop", "2e-9"],
     "--t-stop 2e-09 s must exceed the settle start 2.35e-09 s"),
    (["transient", "--periods", "2"], "--periods 2 must exceed the 2 settle periods"),
    (["halfperiod", "--periods", "2"], "--periods 2 must exceed the 2 settle periods"),
    (["mismatch", "--periods", "2"], "--periods 2 must exceed the 2 settle periods"),
    (["sweep-width", "--periods", "2"], "--periods 2 must exceed the 2 settle periods"),
    (["corners", "--periods", "1"], "--periods 1 must exceed the 2 settle periods"),
]

# (subcommand, flag) pairs where the experiment would ignore or overwrite the flag
UNREAD_FLAGS = [
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


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated despite a usage error")


def read_json(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


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

    def test_t_stop_before_settle_start_names_the_limit(self, tmp_path, capsys,
                                                        monkeypatch):
        """A search shorter than one period, or a power-reporting run that
        would end at or before the settle start, is a usage error, raised
        before anything is simulated."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        for k, (argv, message) in enumerate(SHORT_RUNS):
            out = tmp_path / str(k)
            assert main([*argv, "--out", str(out)]) == 1, argv
            assert f"pfdsim: error: {message}" in capsys.readouterr().err, argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("argv", [
        ["transient", "--load-cap", "nan", "--periods", "3"],
        ["transient", "--width", "nan"],
        ["transient", "--dt", "nan"],
        ["transient", "--t-stop", "nan"],
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
    ])
    def test_nan_value_exits_1_before_simulation(self, argv, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert "pfdsim: error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("f_fb", ["nan", "0", "inf"])
    def test_bad_f_fb_exits_1_naming_the_flag(self, f_fb, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        out = tmp_path / "o"
        assert main(["mismatch", "--f-fb", f_fb, "--periods", "3", "--out", str(out)]) == 1
        assert "--f-fb" in capsys.readouterr().err
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
                                      "nmos.lambda = -0.5"])
    def test_refused_calibration_exits_1_naming_the_file(self, line, tmp_path, capsys,
                                                         monkeypatch):
        """Refused at load, also a fast scale under a run at TT, which never
        reads it, and a per-polarity value before any device is built."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        params = tmp_path / "bad.params"
        params.write_text(f"{line}\n")
        out = tmp_path / "o"
        assert main(["transient", "--params", str(params), "--out", str(out)]) == 1
        assert f"pfdsim: error: {params}: " in capsys.readouterr().err
        assert not out.exists()

    def test_mismatch_nan_f_fb_returns_quickly(self, tmp_path):
        """Unpatched, end to end: the run that never ended exits 1 at once."""
        assert main(["mismatch", "--f-fb", "nan", "--out", str(tmp_path / "o")]) == 1

    def test_t_stop_is_a_transient_only_flag(self, tmp_path, capsys):
        """Each subcommand accepts only the flags it reads; --t-stop is the
        first such case."""
        for command, flag in UNREAD_FLAGS:
            value = [] if flag == "--plot" else ["1"]
            assert main([command, flag, *value, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join([flag, *value])}" in err, command

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
        stats = report["stats"]  # the run's SimStats, beside the rows
        assert set(stats) == {"points", "lu_solves", "device_evals",
                              "steps_without_solve", "step_halvings"}
        assert stats["points"] == len(waves) - 1
        assert stats["device_evals"] == stats["lu_solves"] + 1 > 1

    def test_t_stop_sets_the_end_time(self, tmp_path):
        out = tmp_path / "o"
        assert main(["transient", "--t-stop", "2.5e-9", "--out", str(out)]) == 0
        last = (out / "waves.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 2.5e-9

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
        out2 = tmp_path / "h"
        rc = main(["halfperiod", "--periods", "6", "--out", str(out2)])
        assert rc == 0
        assert read_json(out2)["rows"][0]["decision"] == "LeadA"

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
        assert "dead_zone" in table and "out of scope" in table


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
