"""Experiment orchestration: decision logic, search machinery, sweeps,
and report rendering. Heavy searches (dead zone, f_max) run once in the
acceptance suite; here we exercise the cheap logic and reuse the shared
simulation fixtures."""

import concurrent.futures
import json
import math
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pfdsim.experiments as experiments
from pfdsim.devices import DEFAULT_CONFIG, STANDARD_CORNERS
from pfdsim.engine import SolverError
from pfdsim.experiments import (
    _COLUMNS,
    DesignPoint,
    ExperimentError,
    frequency_mismatch_test,
    half_period_test,
    measure_dead_zone,
    measure_fmax,
    pulse_table_for,
    render_rows,
    report_from_result,
    report_row,
    width_sweep,
)
from pfdsim.measure import Decision, per_period_decisions


class TestDesignPoint:
    def test_defaults_valid(self):
        p = DesignPoint()
        assert p.period == 1e-9

    def test_invariants(self):
        with pytest.raises(ValueError):
            DesignPoint(width=0.0)
        with pytest.raises(ValueError):
            DesignPoint(frequency=-1e9)
        with pytest.raises(ValueError):
            DesignPoint(offset=2e-9)  # beyond one period

    @pytest.mark.parametrize("field", ["width", "length", "frequency", "offset", "load_cap"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            DesignPoint(**{field: math.nan})

    @pytest.mark.parametrize("corner", ["XX", "ff", None])
    def test_unknown_corner_rejected(self, corner):
        with pytest.raises(ValueError, match=re.escape(f"unknown corner {corner!r}")):
            DesignPoint(corner=corner)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["width", "length", "frequency", "offset", "load_cap"])
    def test_infinite_rejected_naming_the_field(self, field, value):
        """An infinite width, length or load passed `> 0` and reached the
        solver; an infinite frequency failed only as an offset error."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            DesignPoint(**{field: value})


LEAD = DesignPoint(offset=100e-12)  # A leads by the CLI's default offset


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated despite an invalid argument")


@pytest.mark.parametrize("search,kwargs", [
    (measure_dead_zone, {"tol": math.nan}),
    (measure_dead_zone, {"search_lo": math.nan}),
    (measure_dead_zone, {"search_hi": math.nan}),
    (measure_fmax, {"tol_rel": math.nan}),
    (measure_fmax, {"f_lo": math.nan}),
    (measure_fmax, {"f_hi": math.nan}),
    (measure_fmax, {"offset_fraction": math.nan}),
    (measure_dead_zone, {"tol": math.inf}),
    (measure_fmax, {"tol_rel": math.inf}),
    (measure_dead_zone, {"n_periods": 0}),
    (measure_fmax, {"n_periods": 0}),
    (measure_fmax, {"f_hi": math.inf}),
    (measure_dead_zone, {"n_periods": 10**400}),
    (measure_dead_zone, {"n_periods": -10**400}),
    (measure_fmax, {"n_periods": 10**400}),
    (measure_fmax, {"n_periods": -10**400}),
    (measure_dead_zone, {"search_hi": 1e-9}),
])
def test_search_rejects_nan_before_simulating(search, kwargs, monkeypatch):
    """A NaN or infinite tolerance or a NaN bracket end is refused, not
    bisected: with either, the stop test `hi - lo > tol` is false at once,
    and the search reported a bracket end after one probe. So is an
    infinite f_hi, a run of no whole period, which ends at the lagging
    input's first edge, a period count no float can hold, and a dead-zone
    search_hi of a whole period (1 ns at 1 GHz), an offset no DesignPoint
    holds."""
    monkeypatch.setattr(experiments, "transient", _no_simulation)
    with pytest.raises(ValueError):
        search(DesignPoint(), **kwargs)


def test_dead_zone_bracket_error_names_the_period():
    with pytest.raises(ValueError, match=r"^need 0 <= search_lo < search_hi < the period "
                                         r"1e-09 s, got search_lo = 0\.0 s, "
                                         r"search_hi = 1e-09 s$"):
        measure_dead_zone(DesignPoint(), search_hi=1e-9)


@pytest.mark.parametrize("n_periods,message", [
    (2, "^n_periods 2 must exceed the 2 settle periods before the power window$"),
    (10**400, "^n_periods is too large to convert to a float$"),
    (-10**400, "^n_periods is too large to convert to a float$"),
], ids=["2", "1e400", "-1e400"])
@pytest.mark.parametrize("experiment", [
    lambda n: experiments.simulate_point(DesignPoint(), n),
    lambda n: experiments.run_offset_experiment(DesignPoint(), n),
    lambda n: frequency_mismatch_test(DesignPoint(), 0.8e9, n_periods=n),
    lambda n: experiments.corner_sweep(LEAD, ["TT"], n_periods=n),
    lambda n: width_sweep(LEAD, steps=2, n_periods=n, jobs=2),
], ids=["simulate_point", "run_offset_experiment", "frequency_mismatch_test",
        "corner_sweep", "width_sweep"])
def test_power_run_without_a_window_refused_before_simulating(experiment, n_periods,
                                                              message, monkeypatch):
    """A power report needs a run past the settle start and a period count
    a float can hold; the sweep refuses before it starts a process pool."""
    monkeypatch.setattr(experiments, "transient", _no_simulation)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_simulation)
    with pytest.raises(ValueError, match=message):
        experiment(n_periods)


class TestOffsetExperiment:
    def test_lead_a_at_plus_100ps(self, grid_runs):
        point, result = grid_runs[100e-12]
        rep = report_from_result(point, result)
        assert rep["decision"] == Decision.LEAD_A.value
        assert rep["avg_power"] > 0
        assert rep["up_rise_time"] is not None and rep["up_rise_time"] > 0
        assert rep["mutual_exclusion_overlap"] >= 0

    def test_lead_b_at_minus_100ps(self, grid_runs):
        point, result = grid_runs[-100e-12]
        rep = report_from_result(point, result)
        assert rep["decision"] == Decision.LEAD_B.value
        assert rep["up_rise_time"] is None  # UP never swings on a B lead

    def test_undetermined_at_zero_offset(self, zero_offset_run):
        point, result = zero_offset_run
        rep = report_from_result(point, result)
        assert rep["decision"] == Decision.UNDETERMINED.value

    def test_decision_antisymmetry_on_grid(self, grid_runs):
        for off in (25e-12, 50e-12, 100e-12, 200e-12, 400e-12):
            pos = report_from_result(*grid_runs[off])
            assert pos["decision"] == Decision.LEAD_A.value, off
            neg = report_from_result(*grid_runs[-off])
            assert neg["decision"] == Decision.LEAD_B.value, off

    def test_up_pulse_train_is_periodic(self, grid_runs):
        """10 simulated periods yield a near-complete train of UP events
        spaced one period apart."""
        from pfdsim.measure import detect_pulses

        _, result = grid_runs[100e-12]
        events = detect_pulses(result.voltage("UP"), vdd=1.2)
        assert len(events) >= 8
        starts = [ev.start for ev in events]
        for a, b in zip(starts, starts[1:]):
            assert b - a == pytest.approx(1e-9, abs=1e-12)


# node pairs that swapping A<->B, X<->Y and UP<->DN maps onto each other
MIRRORED_NODES = [("A", "B"), ("X", "Y"), ("UP", "DN"), ("X.m", "Y.m"), ("X.n", "Y.n"),
                  ("NORU.m", "NORD.m")]
MIRRORED_DECISION = {Decision.LEAD_A.value: Decision.LEAD_B.value,
                     Decision.LEAD_B.value: Decision.LEAD_A.value,
                     Decision.UNDETERMINED.value: Decision.UNDETERMINED.value}


# Near the dead zone the latch's regeneration amplifies rounding: at 1 ps,
# 4-5 GHz and the SS or SF corner, mirrored nodes differ by up to 9.6e-13 V,
# so drawn frequencies stay at 2.5 GHz or below, where 1 ps stays under
# 1.4e-13 V; the explicit example is a fast point far from the dead zone.
@settings(max_examples=5, deadline=None)
@given(offset=st.floats(min_value=1e-12, max_value=150e-12),
       width=st.floats(min_value=120e-9, max_value=310e-9),
       corner=st.sampled_from(STANDARD_CORNERS),
       frequency=st.floats(min_value=1e9, max_value=2.5e9))
@example(offset=20e-12, width=150e-9, corner="FF", frequency=5e9)
def test_minus_offset_run_mirrors_plus_offset_run(offset, width, corner, frequency):
    """The detector is its own mirror: B leading by an offset is A leading
    by it with A<->B, X<->Y and UP<->DN swapped. The two runs share a time
    axis and every counter; their unknowns are permuted, so sums run in
    another order, and values agree within rounding, not bit for bit."""
    plus = DesignPoint(width=width, corner=corner, frequency=frequency, offset=offset)
    minus = DesignPoint(width=width, corner=corner, frequency=frequency, offset=-offset)
    run_plus = experiments.simulate_point(plus, 3)
    run_minus = experiments.simulate_point(minus, 3)
    assert np.array_equal(run_plus.time, run_minus.time)
    assert run_plus.stats == run_minus.stats
    for a, b in MIRRORED_NODES:
        assert np.max(np.abs(run_plus.voltage(a).v - run_minus.voltage(b).v)) <= 1e-12, (a, b)
    row_plus = report_from_result(plus, run_plus)
    row_minus = report_from_result(minus, run_minus)
    assert row_minus["decision"] == MIRRORED_DECISION[row_plus["decision"]]
    assert row_minus["avg_power"] == pytest.approx(row_plus["avg_power"], rel=1e-12, abs=0)


class TestDeadZone:
    def test_coarse_bisection_brackets_fine_value(self):
        """tol = 10 ps agrees with a finer pass within 10 ps; both runs
        use a reduced window to keep this test quick."""
        point = DesignPoint()
        coarse = measure_dead_zone(point, search_hi=100e-12, tol=10e-12, n_periods=4)
        fine = measure_dead_zone(point, search_hi=100e-12, tol=2.5e-12, n_periods=4)
        assert 0 < fine <= coarse <= fine + 10e-12

    def test_no_lock_window_when_hi_too_small(self):
        """A bracket whose top offset cannot be classified cannot certify.

        At 50 GHz the detector no longer resolves a 4 ps lead, so the
        whole bracket is blind and the search must report that."""
        point = DesignPoint(frequency=5e10)
        with pytest.raises(ExperimentError, match="no lock window"):
            measure_dead_zone(point, search_hi=4e-12, tol=1e-12, n_periods=4)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            measure_dead_zone(DesignPoint(), tol=0.0)
        with pytest.raises(ValueError):
            measure_dead_zone(DesignPoint(), search_lo=5e-12, search_hi=1e-12)


MAX_STUB_RUNS = 10_000


@contextmanager
def stubbed_decisions(decide):
    """Replace simulation, the pulse table and classification with
    `decide(point)`; yields the list of simulated points and fails on run
    MAX_STUB_RUNS + 1, so a search that never ends fails instead of hanging."""
    runs = []

    def simulate(point, *args, **kwargs):
        if len(runs) == MAX_STUB_RUNS:
            raise AssertionError(f"search still running after {MAX_STUB_RUNS} runs")
        runs.append(point)
        return point

    def table(point, result, models):
        return result

    with mock.patch.object(experiments, "_simulate", simulate), \
            mock.patch.object(experiments, "pulse_table_for", table), \
            mock.patch.object(experiments, "classify_decision", decide):
        yield runs


@contextmanager
def solver_failure_at(fails, decide):
    """stubbed_decisions(decide), except that the simulation of a point for
    which `fails(point)` holds raises a SolverError at 0.1 ns, node UP."""
    with stubbed_decisions(decide) as runs:
        simulate = experiments._simulate

        def failing(point, *args, **kwargs):
            if fails(point):
                raise SolverError("transient Newton failed at t = 1.000000e-10 s "
                                  "(worst node 'UP')", time=1e-10, node="UP")
            return simulate(point, *args, **kwargs)

        with mock.patch.object(experiments, "_simulate", failing):
            yield runs


def lead_beyond(threshold, threshold_b=None):
    """Stub decision: A's lead of at least `threshold` is resolved, and B's
    lead of at least `threshold_b` (`threshold` when None)."""
    if threshold_b is None:
        threshold_b = threshold

    def decide(point):
        if point.offset >= threshold:
            return Decision.LEAD_A
        if point.offset <= -threshold_b:
            return Decision.LEAD_B
        return Decision.UNDETERMINED
    return decide


def lock_up_to(threshold):
    """Stub decision: A's lead is resolved at frequencies up to `threshold`."""
    def decide(point):
        return Decision.LEAD_A if point.frequency <= threshold else Decision.UNDETERMINED
    return decide


def probe_bound(span, tol, threshold):
    """Probes a search may spend on a bracket of width `span`: one per
    halving down to `tol` or to the float spacing just below `threshold`,
    one for midpoint rounding and one for the bracket end checked first."""
    ulp = threshold - math.nextafter(threshold, 0.0)
    return math.ceil(math.log2(span / max(tol, ulp))) + 2


class TestSearchTermination:
    """The searches with a stub decision: no simulation, any tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(threshold=st.floats(min_value=0.0, max_value=200e-12, exclude_min=True),
           tol=st.floats(min_value=1e-40, max_value=1e-10))
    def test_dead_zone_ends_on_a_passing_offset(self, threshold, tol):
        with stubbed_decisions(lead_beyond(threshold)) as runs:
            dz = measure_dead_zone(DesignPoint(), tol=tol)
        assert threshold <= dz <= 200e-12
        probes = sum(1 for p in runs if p.offset > 0)  # +off runs first
        assert probes <= probe_bound(200e-12, tol, threshold)

    @settings(max_examples=300, deadline=None)
    @given(threshold_a=st.floats(min_value=0.0, max_value=200e-12, exclude_min=True),
           threshold_b=st.none() | st.floats(min_value=0.0, max_value=200e-12,
                                             exclude_min=True),
           lo_fraction=st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           tol=st.floats(min_value=1e-40, max_value=1e-10))
    def test_dead_zone_equals_the_joint_bisection(self, threshold_a, threshold_b,
                                                  lo_fraction, tol):
        """A's lead bisected alone, then B's probed once at the result. On a
        mirrored detector (threshold_b None: B's threshold is A's), or where
        B's lead passes at the result, that is the float that one bisection
        on both leads gives; where it fails, the search says the detector
        does not mirror."""
        search_lo = 0.0 if lo_fraction is None else lo_fraction * threshold_a
        assume(search_lo < threshold_a)
        decide = lead_beyond(threshold_a, threshold_b)

        def a_leads(off):
            return decide(DesignPoint(offset=off)) is Decision.LEAD_A

        def both(off):
            return a_leads(off) and decide(DesignPoint(offset=-off)) is Decision.LEAD_B

        def unresolved(hi, lo):
            return hi - lo > tol

        expected = experiments._bisect(a_leads, 200e-12, search_lo, unresolved)
        with stubbed_decisions(decide) as runs:
            if threshold_b is not None and threshold_b > expected:
                with pytest.raises(ExperimentError, match=re.escape(
                        f"B's lead of {expected:g} s is not classified LeadB") + ".*mirror"):
                    measure_dead_zone(DesignPoint(), search_lo=search_lo, tol=tol)
                return
            dz = measure_dead_zone(DesignPoint(), search_lo=search_lo, tol=tol)
        assert dz == expected
        assert dz == experiments._bisect(both, 200e-12, search_lo, unresolved)
        assert [p.offset for p in runs if p.offset < 0] == [-dz]

    @settings(max_examples=300, deadline=None)
    @given(threshold=st.floats(min_value=0.5e9, max_value=20e9, exclude_max=True),
           tol_rel=st.floats(min_value=1e-40, max_value=1e-2))
    def test_fmax_ends_on_a_passing_frequency(self, threshold, tol_rel):
        with stubbed_decisions(lock_up_to(threshold)) as runs:
            fm = measure_fmax(DesignPoint(), tol_rel=tol_rel)
        assert 0.5e9 <= fm <= threshold
        probes = len(runs) - 1  # f_lo must pass before the search starts
        assert probes <= probe_bound(20e9 - 0.5e9, tol_rel * 0.5e9, threshold)

    def test_tolerances_below_float_resolution(self):
        with stubbed_decisions(lead_beyond(25e-12)):
            dz = measure_dead_zone(DesignPoint(), tol=1e-30)
        assert dz == 25e-12
        with stubbed_decisions(lock_up_to(5e9)):
            fm = measure_fmax(DesignPoint(), tol_rel=1e-17)
        assert fm == 5e9

    def test_passing_search_lo_is_refused(self):
        with stubbed_decisions(lead_beyond(10e-12)) as runs:
            with pytest.raises(ExperimentError, match="search_lo = 2.5e-11 s already passes"):
                measure_dead_zone(DesignPoint(), search_lo=25e-12, search_hi=100e-12)
        assert [p.offset for p in runs] == [100e-12, 25e-12]

    def test_failing_search_lo_is_probed_first(self):
        with stubbed_decisions(lead_beyond(40e-12)) as runs:
            dz = measure_dead_zone(DesignPoint(), search_lo=25e-12, search_hi=100e-12,
                                   tol=1e-12)
        assert 40e-12 <= dz <= 41e-12
        assert runs[1].offset == 25e-12

    def test_dead_zone_solver_error_names_the_probe(self):
        """A's bisection ends at 100 ps, and the one probe of B's lead, at
        -100 ps, fails: the error says so, keeping its type, time and node."""
        with solver_failure_at(lambda p: p.offset == -100e-12, lead_beyond(100e-12)) as runs:
            with pytest.raises(SolverError) as err:
                measure_dead_zone(DesignPoint())
        assert str(err.value) == ("probe at offset -1e-10 s, 1000000000.0 Hz: transient "
                                  "Newton failed at t = 1.000000e-10 s (worst node 'UP')")
        assert (err.value.time, err.value.node) == (1e-10, "UP")
        # the probes that ran before it: the bracket end and A's nine halvings
        # (not every midpoint is an exact decimal)
        assert [p.offset for p in runs] == pytest.approx(
            [200e-12, 100e-12, 50e-12, 75e-12, 87.5e-12, 93.75e-12, 96.875e-12, 98.4375e-12,
             99.21875e-12, 99.609375e-12], rel=1e-12)

    def test_fmax_solver_error_names_the_probe(self):
        """The first bisection probe, midway between 0.5 and 20 GHz, fails."""
        with solver_failure_at(lambda p: p.frequency == 10.25e9, lock_up_to(5e9)):
            with pytest.raises(SolverError) as err:
                measure_fmax(DesignPoint())
        assert str(err.value).startswith("probe at offset +9.75609756097561e-12 s, "
                                         "10250000000.0 Hz: transient Newton failed")
        assert (err.value.time, err.value.node) == (1e-10, "UP")

    def test_zero_search_lo_is_not_run(self):
        """At 0 no input leads, so search_lo = 0 fails without a run."""
        with stubbed_decisions(lead_beyond(0.0)) as runs:
            measure_dead_zone(DesignPoint(), tol=50e-12)
        assert all(p.offset != 0 for p in runs)


class TestOneScanPerOutput:
    """Each run's UP and DN are scanned once each: one detect_pulses call
    per output, whatever the experiment reads from them."""

    @pytest.fixture
    def scans(self, grid_runs, monkeypatch):
        import pfdsim.measure as measure

        point, result = grid_runs[100e-12]
        monkeypatch.setattr(experiments, "_simulate", lambda *args, **kwargs: result)
        calls = []
        detect = measure.detect_pulses

        def counted(w, *args, **kwargs):
            calls.append(w.v)
            return detect(w, *args, **kwargs)

        monkeypatch.setattr(measure, "detect_pulses", counted)
        return point, result, calls

    @pytest.mark.parametrize("experiment", [
        lambda point, result: report_from_result(point, result),
        lambda point, result: half_period_test(point, n_periods=10),
        lambda point, result: frequency_mismatch_test(DesignPoint(), 0.8e9, n_periods=10),
        lambda point, result: experiments._decision_at(point, 10, DEFAULT_CONFIG, None),
    ], ids=["report_from_result", "half_period_test", "frequency_mismatch_test",
            "_decision_at"])
    def test_one_scan_per_output(self, scans, experiment):
        point, result, calls = scans
        experiment(point, result)
        assert len(calls) == 2
        assert np.array_equal(calls[0], result.voltage("UP").v)
        assert np.array_equal(calls[1], result.voltage("DN").v)

    @pytest.mark.parametrize("experiment,classified", [
        (lambda point, result: report_from_result(point, result), 1),
        (lambda point, result: half_period_test(point, n_periods=10)[0], 0),
        (lambda point, result: frequency_mismatch_test(DesignPoint(), 0.8e9, n_periods=10)[0], 0),
    ], ids=["report_from_result", "half_period_test", "frequency_mismatch_test"])
    def test_whole_run_classified_only_where_reported(self, scans, experiment, classified,
                                                      monkeypatch):
        """The half-period and mismatch tests report their own decision (A
        leads in both here); only report_from_result classifies the whole
        run."""
        point, result, _ = scans
        calls = []
        classify = experiments.classify_decision
        monkeypatch.setattr(experiments, "classify_decision",
                            lambda table: calls.append(table) or classify(table))
        assert experiment(point, result)["decision"] == Decision.LEAD_A.value
        assert len(calls) == classified


class TestWidthSweep:
    def test_default_grid_values(self, width_sweep_reports):
        widths = [r["width"] for r in width_sweep_reports]
        assert widths == pytest.approx([120e-9, 167.5e-9, 215e-9, 262.5e-9, 310e-9])

    def test_rise_time_non_increasing(self, width_sweep_reports):
        rts = [r["up_rise_time"] for r in width_sweep_reports]
        assert all(a >= b for a, b in zip(rts, rts[1:]))
        assert rts[0] > rts[-1]  # strict change across the endpoints

    def test_power_non_decreasing(self, width_sweep_reports):
        ps = [r["avg_power"] for r in width_sweep_reports]
        assert all(a <= b for a, b in zip(ps, ps[1:]))
        assert ps[0] < ps[-1]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            width_sweep(LEAD, steps=1)
        with pytest.raises(ValueError):
            width_sweep(LEAD, w_lo=310e-9, w_hi=120e-9)
        # a non-int count raised a bare TypeError from numpy
        with pytest.raises(ValueError, match=r"^steps must be >= 2 and an int, got 2\.5$"):
            width_sweep(LEAD, steps=2.5)

    def test_parallel_jobs_match_serial(self):
        serial = width_sweep(LEAD, steps=2, n_periods=3)
        parallel = width_sweep(LEAD, steps=2, n_periods=3, jobs=2)
        assert serial == parallel

    def test_workers_capped_at_point_count(self, monkeypatch):
        """--jobs 5000 for 2 points asks the pool for 2 workers; the fake
        pool runs map serially, so no process starts."""
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments, "run_offset_experiment",
                            lambda point, n_periods, models, options: point.width)
        widths = width_sweep(LEAD, steps=2, jobs=5000)
        assert seen == [2]
        assert widths == [120e-9, 310e-9]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            width_sweep(LEAD, steps=2, jobs=0)
        # a non-int count raised a bare TypeError from concurrent.futures
        with pytest.raises(ValueError, match=r"^jobs must be >= 1 and an int, got 1\.5$"):
            width_sweep(LEAD, steps=2, jobs=1.5)


class TestCornerSweep:
    def test_all_corners_correct(self, corner_reports):
        assert [r["corner"] for r in corner_reports] == \
            ["TT", "FF", "FS", "SF", "SS"]
        assert all(r["decision"] == Decision.LEAD_A.value for r in corner_reports)

    def test_corner_timing_order(self, corner_reports):
        by_name = {r["corner"]: r for r in corner_reports}
        assert by_name["FF"]["up_rise_time"] <= by_name["TT"]["up_rise_time"]
        assert by_name["TT"]["up_rise_time"] <= by_name["SS"]["up_rise_time"]

    def test_tt_row_matches_plain_run(self, corner_reports, default_report):
        tt = next(r for r in corner_reports if r["corner"] == "TT")
        assert tt == default_report

    def test_empty_corner_list_rejected(self):
        from pfdsim.experiments import corner_sweep

        with pytest.raises(ValueError):
            corner_sweep(LEAD, corners=[])

    def test_names_any_case_one_point_each(self, monkeypatch):
        from pfdsim.experiments import corner_sweep, report_row

        def run(point, *args):
            return report_row(point, decision=Decision.LEAD_A.value, avg_power=0.0,
                              up_rise_time=None, mutual_exclusion_overlap=0.0)

        monkeypatch.setattr(experiments, "run_offset_experiment", run)
        reports = corner_sweep(LEAD, corners=["ff", "Ss", "TT"])
        assert [r["corner"] for r in reports] == ["FF", "SS", "TT"]
        with pytest.raises(ValueError, match="unknown corner 'XX'"):
            corner_sweep(LEAD, corners=["xx"])
        # a failed decision names the corner as the report does
        with pytest.raises(ExperimentError, match="^corner FF: decision LeadA, expected LeadB"):
            corner_sweep(DesignPoint(offset=-100e-12), corners=["ff"])

    def test_zero_offset_refused_before_simulating(self, monkeypatch):
        """At offset 0 no input leads, so no decision can be expected of a
        corner: refused before any corner is simulated, naming the offset."""
        from pfdsim.experiments import corner_sweep

        monkeypatch.setattr(experiments, "_simulate", _no_simulation)
        with pytest.raises(ValueError, match=r"nonzero offset \(--offset\).*got 0\.0 s$"):
            corner_sweep(DesignPoint(offset=0.0), corners=["TT"], n_periods=3)


class TestFmaxTrend:
    def test_fmax_non_decreasing_in_width(self):
        """Wider devices switch faster, so the certified frequency cannot
        drop. Narrow bracket keeps the runtime sane."""
        from pfdsim.experiments import measure_fmax

        kw = dict(f_lo=1e9, f_hi=8e9, tol_rel=0.25, n_periods=4)
        f_narrow = measure_fmax(DesignPoint(width=120e-9), **kw)
        f_chosen = measure_fmax(DesignPoint(width=260e-9), **kw)
        assert f_chosen >= f_narrow


class TestPulseTableFor:
    def test_leading_pulses_start_at_the_same_phase_either_way(self, grid_runs):
        """Periods are cut at the leading input's first rising edge: UP's
        pulses at +100 ps and DN's at -100 ps start early in their period,
        at mirrored phases. Cut at A's edge, each DN pulse at -100 ps would
        start 0.045 periods before its cut and straddle two periods."""
        phases = {}
        for offset, lead in ((100e-12, "up"), (-100e-12, "dn")):
            point, result = grid_runs[offset]
            with mock.patch.object(experiments, "pulse_table",
                                   wraps=experiments.pulse_table) as spy:
                table = pulse_table_for(point, result)
            cut = spy.call_args.kwargs["anchor"]
            starts = [ev.start for ev in getattr(table, lead) if ev.peak >= 0.8 * table.vdd]
            phases[lead] = (np.array(starts) - cut) / point.period % 1.0
            assert len(starts) >= 8 and np.all((phases[lead] > 0.0) & (phases[lead] < 0.1))
        assert abs(np.median(phases["up"]) - np.median(phases["dn"])) < 0.01


class TestHalfPeriod:
    def test_stable_and_correct(self):
        report, result = half_period_test(DesignPoint(), n_periods=8)
        assert report["decision"] == Decision.LEAD_A.value
        decs = per_period_decisions(pulse_table_for(DesignPoint(offset=0.5e-9), result))
        assert all(d is Decision.LEAD_A for d in decs[-4:])
        # outputs stay mutually exclusive even at the widest offset
        assert report["mutual_exclusion_overlap"] <= 0.05 * 1e-9

    def test_mirrored_when_negative(self):
        report, _ = half_period_test(DesignPoint(offset=-1e-12), n_periods=8)
        assert report["decision"] == Decision.LEAD_B.value

    def test_window_too_short(self):
        with pytest.raises(ValueError, match="^n_periods 1 must exceed the 2 settle periods"):
            half_period_test(DesignPoint(), n_periods=1)

    def test_no_power_window_refused_before_simulating(self, monkeypatch):
        """Two periods end at the settle start, where the power window begins."""
        monkeypatch.setattr(experiments, "transient", _no_simulation)
        with pytest.raises(ValueError, match="^n_periods 2 must exceed the 2 settle periods"):
            half_period_test(DesignPoint(), n_periods=2)


class TestFrequencyMismatch:
    def test_slow_feedback_up_dominates(self):
        report, result = frequency_mismatch_test(DesignPoint(), 0.8e9, n_periods=6)
        assert report["decision"] == Decision.LEAD_A.value

    def test_mirror_case(self):
        report, _ = frequency_mismatch_test(DesignPoint(frequency=0.8e9), 1e9, n_periods=6)
        assert report["decision"] == Decision.LEAD_B.value

    def test_equal_frequencies_rejected(self):
        with pytest.raises(ExperimentError, match="equal frequencies"):
            frequency_mismatch_test(DesignPoint(), 1e9)

    @pytest.mark.parametrize("f_fb", [math.nan, 0.0, -1e9, math.inf])
    def test_bad_feedback_frequency_rejected_before_simulating(self, f_fb, monkeypatch):
        """A NaN f_fb made a NaN input period, on which the time axis never
        ended; 0 divided by zero and inf failed as a pulse period error."""
        monkeypatch.setattr(experiments, "_simulate", _no_simulation)
        with pytest.raises(ValueError, match="--f-fb"):
            frequency_mismatch_test(DesignPoint(), f_fb)


class TestGenerateReport:
    """Report generation: `render_rows` over the rows experiments return."""

    def test_single_row_populated(self, default_report):
        json_text, table = render_rows([default_report])
        data = json.loads(json_text)
        assert len(data["rows"]) == 1
        row = data["rows"][0]
        assert row["decision"] == "LeadA"
        assert row["avg_power"] > 0
        assert "die_area" not in row  # area is not modelled
        assert "avg_power" in table.splitlines()[0]

    def test_missing_metric_renders_dash(self, default_report):
        json_text, table = render_rows([default_report])
        assert json.loads(json_text)["rows"][0]["f_max"] is None
        header, _, row = table.splitlines()[:3]
        cols = header.split()
        cells = row.split()
        assert cells[cols.index("f_max")] == "-"

    def test_text_and_json_numbers_identical(self, default_report):
        json_text, table = render_rows([default_report])
        row = json.loads(json_text)["rows"][0]
        header = table.splitlines()[0].split()
        cells = table.splitlines()[2].split()
        for col in ("avg_power", "up_rise_time", "width", "frequency"):
            assert float(cells[header.index(col)]) == row[col]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            render_rows([])

    def test_search_rows_carry_every_column(self):
        """Search rows come from the same column list as full reports; the
        point columns a search does not fix are null."""
        row = report_row(DesignPoint(), frequency=None, offset=None, f_max=2e9)
        assert list(row) == list(_COLUMNS)
        assert row["frequency"] is None and row["offset"] is None
        assert row["f_max"] == 2e9 and row["dead_zone"] is None
        assert row["width"] == 260e-9 and row["corner"] == "TT"
        assert "die_area" not in row
