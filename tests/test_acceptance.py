"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Golden values were recorded from the shipped searches and
guard against regressions. The headline targets for this circuit class
(5 GHz operation, 25 ps dead zone, tens of uW) are calibration context
only, never oracles: absolute figures depend on the device calibration.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
"""

import json
import math
import random
import re
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from pfdsim.devices import DEFAULT_CONFIG, load_config, mosfet_conductances, mosfet_current
from pfdsim.engine import (
    SimOptions,
    dc_operating_point,
    kcl_residual_ratio,
    transient,
)
from pfdsim.experiments import (
    DesignPoint,
    frequency_mismatch_test,
    half_period_test,
    measure_dead_zone,
    measure_fmax,
    pulse_table_for,
    report_from_result,
)
from pfdsim.measure import Decision, mutual_exclusion_overlap, per_period_decisions
from pfdsim.netlist import build_pfd

REPO = Path(__file__).resolve().parent.parent

# Golden regression values, recorded once via the search oracles at the
# default calibration (bisection bracket [0, 200 ps] @ 0.5 ps, frequency
# bracket [0.5, 20] GHz @ 1%). Reference targets for context: 25 ps dead
# zone, 5 GHz operation, 29 uW.
GOLDEN_DEAD_ZONE = 3.90625e-13  # s; the noiseless model bottoms out at tol
GOLDEN_F_MAX = 20.0e9  # Hz; correct decisions up to the bracket ceiling
GOLDEN_AVG_POWER = 5.7267365461932175e-06  # W; A leads by 100 ps, 1 GHz
DEAD_ZONE_TOL = 0.5e-12
F_MAX_TOL_REL = 0.01

VDD = DEFAULT_CONFIG.vdd


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {n:2d} FAIL  {description}")
        raise
    print(f"\n[acceptance] criterion {n:2d} PASS  {description}")


def test_criterion_1_solver_validation():
    with criterion(1, "RC analytic 1%, divider abstol, diode-FET quadratic 1 mV"):
        # RC step, trapezoidal, dt = RC/100
        from test_engine import rc_lowpass

        res = transient(rc_lowpass(r=1e3, c=1e-12), SimOptions(dt=10e-12), 1e-9)
        out = res.voltage("out")
        analytic = 1.0 - np.exp(-np.clip(out.t - 1e-15, 0.0, None) / 1e-9)
        assert np.max(np.abs(out.v - analytic)) < 0.01

        # resistor divider within abstol_v
        from pfdsim.netlist import DcSource, Netlist, Resistor

        net = Netlist()
        net.add_node("0")
        net.add_node("t")
        net.add_node("m")
        net.add(DcSource("V1", plus="t", minus="0", volts=1.2))
        net.add(Resistor("R1", a="t", b="m", ohms=1e4))
        net.add(Resistor("R2", a="m", b="0", ohms=1e4))
        assert abs(dc_operating_point(net)["m"] - 0.6) <= 1e-6

        # diode-connected FET vs the hand-solved quadratic
        # 2.6e-4 (v - 0.35)^2 = (1.2 - v) / 1e4, positive root
        v_hand = (0.82 + math.sqrt(0.82**2 + 4 * 2.6 * 0.8815)) / (2 * 2.6)
        from pfdsim.devices import MosfetParams
        from pfdsim.netlist import Mosfet

        params = MosfetParams(polarity="nmos", vth0=0.35, kprime=200e-6,
                              lam=0.0, w=260e-9, l=100e-9)
        net = Netlist()
        net.add_node("0")
        net.add_node("v")
        net.add_node("d")
        net.add(DcSource("V1", plus="v", minus="0", volts=1.2))
        net.add(Resistor("R1", a="v", b="d", ohms=1e4))
        net.add(Mosfet("M1", drain="d", gate="d", source="0", params=params))
        assert abs(dc_operating_point(net)["d"] - v_hand) <= 1e-3


def test_criterion_2_numerical_hygiene():
    with criterion(2, "KCL residuals in-tolerance on a full PFD run; gm/gds vs FD 1e-4"):
        net = build_pfd(DesignPoint(offset=100e-12))
        opt = SimOptions()
        res = transient(net, opt, 5.25e-9)
        assert kcl_residual_ratio(net, res, opt) <= 1.0

        rng = random.Random(2024)
        h = 1e-6
        checked = 0
        while checked < 1000:
            pol = rng.choice(["nmos", "pmos"])
            vth = rng.uniform(0.1, 0.6)
            from pfdsim.devices import MosfetParams

            p = MosfetParams(polarity=pol, vth0=vth if pol == "nmos" else -vth,
                             kprime=rng.uniform(20e-6, 500e-6),
                             lam=rng.uniform(0.0, 0.3),
                             w=rng.uniform(100e-9, 2e-6),
                             l=rng.uniform(50e-9, 1e-6))
            vgs = rng.uniform(-1.5, 1.5)
            vds = rng.uniform(-1.5, 1.5)
            sign = 1.0 if pol == "nmos" else -1.0
            vov = sign * vgs - vth
            sds = sign * vds
            if min(abs(vov), abs(sds - vov), abs(sds)) < 10 * h:
                continue  # central difference would straddle a region corner
            gm, gds = mosfet_conductances(p, vgs, vds)
            fd_gm = (mosfet_current(p, vgs + h, vds)
                     - mosfet_current(p, vgs - h, vds)) / (2 * h)
            fd_gds = (mosfet_current(p, vgs, vds + h)
                      - mosfet_current(p, vgs, vds - h)) / (2 * h)
            scale = max(abs(fd_gm), abs(fd_gds), 1e-9)
            assert abs(gm - fd_gm) <= 1e-4 * scale
            assert abs(gds - fd_gds) <= 1e-4 * scale
            checked += 1


def test_criterion_3_functional_behavior(grid_runs, zero_offset_run):
    with criterion(3, "LeadA/LeadB at +/-100 ps, Undetermined at 0, antisymmetric grid"):
        assert report_from_result(*grid_runs[100e-12])["decision"] == Decision.LEAD_A.value
        assert report_from_result(*grid_runs[-100e-12])["decision"] == Decision.LEAD_B.value
        assert report_from_result(*zero_offset_run)["decision"] == Decision.UNDETERMINED.value
        for off in (25e-12, 50e-12, 100e-12, 200e-12, 400e-12):
            assert report_from_result(*grid_runs[off])["decision"] == Decision.LEAD_A.value
            assert report_from_result(*grid_runs[-off])["decision"] == Decision.LEAD_B.value


def test_criterion_4_mutual_exclusion(grid_runs):
    with criterion(4, "UP/DN overlap <= 5% of the period across the offset grid"):
        period = 1e-9
        for off, (point, result) in grid_runs.items():
            overlap = mutual_exclusion_overlap(pulse_table_for(point, result))
            assert overlap <= 0.05 * period, f"offset {off}: overlap {overlap}"


def test_criterion_5_dead_zone():
    with criterion(5, "dead zone: deterministic bisection, in (0, 200 ps), golden-stable"):
        point = DesignPoint()
        dz1 = measure_dead_zone(point)
        dz2 = measure_dead_zone(point)
        assert dz1 == dz2  # bit-exact repeatability
        assert 0.0 < dz1 < 200e-12
        assert abs(dz1 - GOLDEN_DEAD_ZONE) <= DEAD_ZONE_TOL


def test_criterion_6_half_period():
    with criterion(6, "T/2 offset: stable, correct classification over final periods"):
        report, result = half_period_test(DesignPoint(), n_periods=20)
        assert report["decision"] == Decision.LEAD_A.value
        decisions = per_period_decisions(pulse_table_for(DesignPoint(offset=0.5e-9), result))
        assert len(decisions) >= 20
        assert all(d is Decision.LEAD_A for d in decisions[-10:])


def test_criterion_7_fmax_and_mismatch():
    with criterion(7, "f_max >= 1 GHz (golden), >= 5 GHz under documented calibration; "
                      "mismatch high-time ordering both ways"):
        fm = measure_fmax(DesignPoint())
        assert fm >= 1e9
        assert abs(fm - GOLDEN_F_MAX) / GOLDEN_F_MAX <= F_MAX_TOL_REL

        models = load_config(REPO / "calibrations" / "highspeed.params")
        fm_hs = measure_fmax(DesignPoint(), f_lo=4e9, models=models)
        assert fm_hs >= 5e9

        rep, _ = frequency_mismatch_test(DesignPoint(), 0.8e9)  # raises if UP does not dominate
        assert rep["decision"] == Decision.LEAD_A.value
        rep, _ = frequency_mismatch_test(DesignPoint(frequency=0.8e9), 1e9)
        assert rep["decision"] == Decision.LEAD_B.value


def test_criterion_8_width_trends(width_sweep_reports):
    with criterion(8, "width sweep: rise time non-increasing, power non-decreasing"):
        rts = [r["up_rise_time"] for r in width_sweep_reports]
        ps = [r["avg_power"] for r in width_sweep_reports]
        assert all(a >= b for a, b in zip(rts, rts[1:]))
        assert all(a <= b for a, b in zip(ps, ps[1:]))
        assert rts[0] > rts[-1] and ps[0] < ps[-1]  # strict across endpoints
        default_power = [r["avg_power"] for r in width_sweep_reports
                         if abs(r["width"] - 262.5e-9) < 1e-12][0]
        assert abs(default_power / GOLDEN_AVG_POWER - 1.0) < 0.05


def test_criterion_9_corner_analysis(corner_reports):
    with criterion(9, "all five corners classify correctly; FF <= TT <= SS rise time"):
        assert len(corner_reports) == 5
        assert all(r["decision"] == Decision.LEAD_A.value for r in corner_reports)
        rt = {r["corner"]: r["up_rise_time"] for r in corner_reports}
        assert rt["FF"] <= rt["TT"] <= rt["SS"]


def test_criterion_10_cli_reproducibility(tmp_path):
    with criterion(10, "every CLI subcommand run twice is byte-identical"):
        from pfdsim.cli import main

        fast = ["--periods", "3"]
        invocations = {
            "transient": ["transient", *fast, "--plot"],
            "deadzone": ["deadzone", *fast, "--search-hi", "100e-12", "--tol", "25e-12"],
            "halfperiod": ["halfperiod", "--periods", "6"],
            "fmax": ["fmax", *fast, "--f-lo", "0.8e9", "--f-hi", "1.6e9",
                     "--tol-rel", "0.5"],
            "mismatch": ["mismatch", "--periods", "4", "--f-ref", "1e9",
                         "--f-fb", "0.8e9"],
            "sweep-width": ["sweep-width", *fast, "--steps", "2", "--plot"],
            "corners": ["corners", *fast, "--corners", "TT,FF"],
        }
        report_inputs = []
        for name, argv in invocations.items():
            dirs = []
            for run in ("r1", "r2"):
                out = tmp_path / name / run
                rc = main(argv + ["--out", str(out)])
                assert rc == 0, f"{name} exited {rc}"
                dirs.append(out)
            files1 = sorted(p.name for p in dirs[0].iterdir())
            files2 = sorted(p.name for p in dirs[1].iterdir())
            assert files1 == files2
            for fname in files1:
                b1 = (dirs[0] / fname).read_bytes()
                b2 = (dirs[1] / fname).read_bytes()
                assert b1 == b2, f"{name}/{fname} differs between runs"
            report_inputs.append(str(dirs[0] / "report.json"))

        for run in ("r1", "r2"):
            out = tmp_path / "report" / run
            rc = main(["report", *report_inputs, "--out", str(out)])
            assert rc == 0
        for fname in ("report.json", "summary.txt"):
            assert (tmp_path / "report" / "r1" / fname).read_bytes() == \
                (tmp_path / "report" / "r2" / fname).read_bytes()


def test_readme_figures_are_the_default_runs(grid_runs, default_report):
    """README's engine "stats" block and the 1 GHz row of its power table
    quote the default `pfdsim transient` run (A leading by 100 ps, 10
    periods at 1 GHz): its SimStats, and its avg_power to the digits
    printed, in µW and as energy per cycle in fJ. Both fixtures are the
    session's, so this runs no simulation of its own."""
    text = (REPO / "README.md").read_text()
    stats = re.search(r'^```json\n"stats": (\{.*?\})\n```$', text, re.M | re.S)
    assert json.loads(stats.group(1)) == asdict(grid_runs[100e-12][1].stats)
    row = re.search(r"^\| 1 GHz +\| ([0-9.]+) µW +\| ([0-9.]+) fJ \|$", text, re.M)
    assert default_report["frequency"] == 1e9 and default_report["offset"] == 100e-12
    power = default_report["avg_power"]
    for quoted, value in ((row.group(1), power * 1e6), (row.group(2), power / 1e9 * 1e15)):
        assert quoted == f"{value:.{len(quoted.partition('.')[2])}f}", quoted
