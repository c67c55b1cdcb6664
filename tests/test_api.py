"""The package's public surface: every name in `pfdsim.__all__` resolves
and has a documented use in README's "Library API sketch", and helpers
that nothing but their tests used are gone."""

import re
from pathlib import Path

import pytest

import pfdsim
import pfdsim.devices
import pfdsim.engine
import pfdsim.experiments
import pfdsim.measure

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
    (pfdsim.experiments, "generate_report"),
    (pfdsim.measure, "fall_time"),
])
def test_deleted_helper_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(pfdsim, name)
