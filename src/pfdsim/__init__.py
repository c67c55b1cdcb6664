"""Transistor-level transient simulator and characterization harness for a
precharge-style phase frequency detector.

`__all__` holds the names README's "Library API sketch" documents a use
for; internal steps of those (pulse detection, the NOR2 subcircuit) stay in
their modules."""

from pfdsim.devices import (
    DEFAULT_CONFIG,
    ModelConfig,
    MosfetParams,
    load_config,
    mosfet_conductances,
    mosfet_current,
)
from pfdsim.engine import (
    SimOptions,
    SolverError,
    TransientResult,
    Waveform,
    dc_operating_point,
    transient,
)
from pfdsim.experiments import (
    DesignPoint,
    ExperimentError,
    corner_sweep,
    frequency_mismatch_test,
    half_period_test,
    measure_dead_zone,
    measure_fmax,
    run_offset_experiment,
    width_sweep,
)
from pfdsim.measure import (
    Decision,
    MeasurementError,
    average_power,
    classify_decision,
    mutual_exclusion_overlap,
    pulse_table,
    rise_time,
)
from pfdsim.netlist import Netlist, NetlistError, PulseSpec, build_pfd

__all__ = [
    "DEFAULT_CONFIG",
    "Decision",
    "DesignPoint",
    "ExperimentError",
    "MeasurementError",
    "ModelConfig",
    "MosfetParams",
    "Netlist",
    "NetlistError",
    "PulseSpec",
    "SimOptions",
    "SolverError",
    "TransientResult",
    "Waveform",
    "average_power",
    "build_pfd",
    "classify_decision",
    "corner_sweep",
    "dc_operating_point",
    "frequency_mismatch_test",
    "half_period_test",
    "load_config",
    "measure_dead_zone",
    "measure_fmax",
    "mosfet_conductances",
    "mosfet_current",
    "mutual_exclusion_overlap",
    "pulse_table",
    "rise_time",
    "run_offset_experiment",
    "transient",
    "width_sweep",
]

__version__ = "0.1.0"
