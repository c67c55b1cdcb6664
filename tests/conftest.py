"""Shared fixtures. The transient runs are the expensive part of the
suite, so anything used by more than one test is session-scoped."""

import pytest

import pfdsim.experiments as experiments
from pfdsim.engine import SolverError
from pfdsim.experiments import DesignPoint, simulate_point, width_sweep

OFFSET_GRID = (25e-12, 50e-12, 100e-12, 200e-12, 400e-12)


@pytest.fixture(scope="session")
def grid_runs():
    """TransientResults for +/- each offset in the acceptance grid."""
    runs = {}
    for off in OFFSET_GRID:
        for sign in (+1, -1):
            point = DesignPoint(offset=sign * off)
            runs[sign * off] = (point, simulate_point(point))
    return runs


@pytest.fixture(scope="session")
def zero_offset_run():
    point = DesignPoint(offset=0.0)
    return point, simulate_point(point)


@pytest.fixture(scope="session")
def default_report(grid_runs):
    from pfdsim.experiments import report_from_result

    point, result = grid_runs[100e-12]
    return report_from_result(point, result)


@pytest.fixture(scope="session")
def width_sweep_reports():
    return width_sweep(DesignPoint(offset=100e-12))


@pytest.fixture(scope="session")
def corner_reports():
    from pfdsim.experiments import corner_sweep

    return corner_sweep(DesignPoint(offset=100e-12))


@pytest.fixture
def second_transient_fails(monkeypatch):
    """The second `experiments.transient` call raises a SolverError at
    0.1 ns, node UP, and the first runs; the list of calls made."""
    calls = []
    transient = experiments.transient

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise SolverError("transient Newton failed at t = 1.000000e-10 s "
                              "(worst node 'UP')", time=1e-10, node="UP")
        return transient(*args)

    monkeypatch.setattr(experiments, "transient", second_fails)
    return calls
