"""CLI surface: flags, exit codes, output files, reproducibility.

Runs use reduced periods and coarse search settings; determinism does
not depend on the argument values.
"""

import json
from pathlib import Path

from pfdsim.cli import main

FAST = ["--periods", "3"]


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

    def test_t_stop_before_settle_start_names_the_limit(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["transient", "--t-stop", "2e-9", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "pfdsim: error: --t-stop 2e-09 s must exceed the settle start 2.35e-09 s" in err
        assert not out.exists()

    def test_report_without_rows_names_the_limit(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"rows": []}\n')
        assert main(["report", str(empty), "--out", str(tmp_path / "o")]) == 1
        assert "pfdsim: error: the input reports hold no rows" in capsys.readouterr().err


class TestTransientCommand:
    def test_writes_csv_and_report(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["transient", "--freq", "1e9", "--offset", "100e-12",
                   "--out", str(out), *FAST])
        assert rc == 0
        rows = read_json(out)["rows"]
        assert rows[0]["decision"] == "LeadA"
        waves = (out / "waves.csv").read_text().splitlines()
        assert waves[0] == "t,A,B,X,Y,UP,DN,i_vdd"
        assert (out / "summary.txt").exists()

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
        rc = main(["deadzone", "--search-lo", "25e-12", "--search-hi", "100e-12",
                   "--tol", "25e-12", "--out", str(out), *FAST])
        assert rc == 0
        dz = read_json(out)["rows"][0]["dead_zone"]
        assert 0 < dz <= 100e-12

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
        assert main(["deadzone", "--search-lo", "25e-12", "--search-hi", "100e-12",
                     "--tol", "50e-12", "--out", str(b), *FAST]) == 0
        out = tmp_path / "sum"
        rc = main(["report", str(a / "report.json"), str(b / "report.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = read_json(out)["rows"]
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
