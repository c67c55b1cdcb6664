"""The package's public surface: every name in `pfdsim.__all__` resolves
and has a documented use in README's "Library API sketch", and helpers
that nothing but their tests used are gone."""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import pfdsim
import pfdsim.cli
import pfdsim.devices
import pfdsim.engine
import pfdsim.experiments
import pfdsim.measure
import pfdsim.netlist

README = Path(__file__).resolve().parents[1] / "README.md"


def api_sketch() -> str:
    text = README.read_text()
    start = text.index("## Library API sketch")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


@pytest.mark.parametrize("name", pfdsim.__all__)
def test_public_name_resolves_and_is_documented(name):
    assert hasattr(pfdsim, name)
    assert re.search(rf"\b{re.escape(name)}\b", api_sketch()), name


@pytest.mark.parametrize("owner, name", [
    (pfdsim.engine.TransientResult, "to_csv_text"),
    (pfdsim.devices, "dump_config"),
    (pfdsim.devices.ModelConfig, "corners"),
    (pfdsim.devices.ModelConfig, "corner"),
    (pfdsim.devices, "CornerSet"),
    (pfdsim.devices, "apply_corner"),
    (pfdsim.experiments, "generate_report"),
    (pfdsim.experiments, "ExperimentReport"),
    (pfdsim.measure, "fall_time"),
    (pfdsim.measure, "PulseEvent"),
    (pfdsim.measure, "detect_pulses"),
    (pfdsim.measure, "high_time"),
    (pfdsim.netlist, "to_lines"),
    (pfdsim.netlist, "from_lines"),
    (pfdsim.netlist, "save"),
    (pfdsim.netlist, "load"),
    (pfdsim.cli, "_check_run_length"),
    (pfdsim.engine.SimOptions, "validate"),
    (pfdsim.engine.SimOptions, "t_stop"),
    (pfdsim.engine.SimOptions, "abstol_v"),
    (pfdsim.engine.SimOptions, "abstol_i"),
    (pfdsim.engine.SimOptions, "max_newton_iters"),
    (pfdsim.engine.SimOptions, "gmin"),
    (pfdsim.engine, "_resolve_dt"),
    (pfdsim.experiments, "_run_points"),
])
def test_deleted_helper_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(pfdsim, name)


def test_load_config_reads_over_the_built_in_calibration_only():
    """The `base` calibration parameter had no caller."""
    assert list(inspect.signature(pfdsim.load_config).parameters) == ["path"]


def test_simulate_point_runs_whole_periods_only():
    """Run length is n_periods alone, so every power window covers whole
    periods; an arbitrary end time goes through transient's t_stop."""
    assert "t_stop" not in inspect.signature(pfdsim.experiments.simulate_point).parameters


def test_run_length_is_the_transients_argument():
    """SimOptions holds solver settings; the stop time is transient's third
    argument, after the two the benchmark's capture relies on. The DC solve
    runs at t = 0 and the NOR builder wires VDD and ground, the only values
    their callers passed."""
    assert list(inspect.signature(pfdsim.transient).parameters) == [
        "netlist", "options", "t_stop", "initial_voltages"]
    assert list(inspect.signature(pfdsim.engine._dc_solve).parameters) == ["k"]
    assert list(inspect.signature(pfdsim.netlist.build_nor2).parameters) == [
        "net", "name", "out", "in1", "in2", "p_params", "n_params"]


def test_sim_options_hold_the_settings_a_run_varies():
    """The CLI sets dt and the integrator, and ROADMAP item 12 checks the
    searches at reltol 1e-4; the tolerance floors, gmin and the Newton
    iteration limit, which no caller varied, are engine constants. So
    SimOptions takes no other keyword and the DC solve takes no options."""
    assert [f.name for f in dataclasses.fields(pfdsim.SimOptions)] == [
        "reltol", "dt", "integrator"]
    assert list(inspect.signature(pfdsim.dc_operating_point).parameters) == ["netlist"]
    for name, value in (("gmin", 0.0), ("abstol_v", 1e-6), ("abstol_i", 1e-9),
                        ("max_newton_iters", 50)):
        with pytest.raises(TypeError, match=f"'{name}'"):
            pfdsim.SimOptions(**{name: value})
    with pytest.raises(TypeError):
        pfdsim.dc_operating_point(pfdsim.build_pfd(), pfdsim.SimOptions())


def test_build_pfd_has_no_internal_cap_knob():
    """Only the deleted text-format round-trip test set the X and Y
    storage capacitance; it is fixed at 0.5 fF."""
    assert "internal_cap" not in inspect.signature(pfdsim.build_pfd).parameters
    caps = {d.name: d.farads for d in pfdsim.build_pfd().devices
            if isinstance(d, pfdsim.netlist.Capacitor)}
    assert caps["CX"] == caps["CY"] == 0.5e-15


def test_build_pfd_takes_the_design_point():
    """The design point's defaults and checks live only in DesignPoint:
    build_pfd takes one, plus the mismatch frequency and the calibration,
    and DesignPoint is one class under every name it is imported as."""
    assert list(inspect.signature(pfdsim.build_pfd).parameters) == [
        "point", "frequency_b", "models"]
    assert pfdsim.DesignPoint is pfdsim.experiments.DesignPoint is pfdsim.netlist.DesignPoint


EXPERIMENTS = ["run_offset_experiment", "measure_dead_zone", "measure_fmax", "width_sweep",
               "corner_sweep", "half_period_test", "frequency_mismatch_test"]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_takes_its_design_point_first(name):
    """Every experiment reads the design it does not sweep or search from
    its point, which it must be given: the mismatch run's reference
    frequency is the point's, and no sweep keeps a default point of its
    own."""
    first = next(iter(inspect.signature(getattr(pfdsim, name)).parameters.values()))
    assert (first.name, first.default) == ("point", inspect.Parameter.empty)


@pytest.mark.parametrize("name", ["width_sweep", "corner_sweep"])
def test_sweep_runs_in_one_process(name):
    """A sweep runs its points one after another in the calling process:
    no keyword sets a count of worker processes."""
    assert "jobs" not in inspect.signature(getattr(pfdsim, name)).parameters


def test_mismatch_frequency_has_one_owner():
    assert "f_ref" not in inspect.signature(pfdsim.frequency_mismatch_test).parameters
    assert "frequency_b" not in inspect.signature(pfdsim.experiments.simulate_point).parameters
