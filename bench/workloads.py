"""The benchmark's workloads: seeded `pfdsim` argv and output invariants.

`corner_sweep` runs by hand only; DESIGN.md says why BENCHMARK.json omits it.

Seed 0 reproduces the README examples (offset 100 ps, dead-zone search up to
200 ps) at the sizes fixed below; other seeds vary the offset magnitude and
sign and the dead-zone --search-hi within the stated ranges. The ranges keep
the work per command nearly constant, so seed-to-seed differences in wall time
stay small next to host noise:

- offsets are 50-150 ps, which changes t_stop by under 1.5%;
- --search-hi is 110-200 ps, so with --tol 6.4 ps the bisection always takes
  5 steps: 6 probes, 12 transients.

The checks are acceptance invariants, not exact goldens, so that a program fix
that moves a figure (for example the dead zone) does not count as a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PERIOD = 1e-9  # every workload runs at the 1 GHz README default
MAX_OVERLAP = 0.05 * PERIOD
MAX_KCL_RATIO = 1.0


@dataclass(frozen=True)
class Case:
    """One seeded command line (without --out) and the values its checks need."""

    argv: list[str]
    offset: float = 100e-12
    search_hi: float = 200e-12


def _picoseconds(tenths: int) -> str:
    """Flag value for an integer count of 0.1 ps, e.g. 1000 -> '100e-12'."""
    return f"{tenths / 10:g}e-12"


def _offset_tenths(rng: random.Random, seed: int, signed: bool) -> int:
    if seed == 0:
        return 1000
    sign = rng.choice((-1, 1)) if signed else 1
    return sign * rng.randint(500, 1500)


def lead_lag(seed: int) -> Case:
    rng = random.Random(f"lead_lag/{seed}")
    off = _offset_tenths(rng, seed, signed=True)
    argv = ["transient", "--freq", "1e9", f"--offset={_picoseconds(off)}",
            "--periods", "5", "--plot"]
    return Case(argv, offset=float(_picoseconds(off)))


def corner_sweep(seed: int) -> Case:
    # Positive offsets only: report.json carries the UP rise time alone, and
    # UP does not pulse when B leads, so the FF <= TT <= SS check needs A to lead.
    rng = random.Random(f"corner_sweep/{seed}")
    off = _offset_tenths(rng, seed, signed=False)
    argv = ["corners", "--freq", "1e9", f"--offset={_picoseconds(off)}",
            "--periods", "3"]
    return Case(argv, offset=float(_picoseconds(off)))


def deadzone_search(seed: int) -> Case:
    rng = random.Random(f"deadzone_search/{seed}")
    hi = 2000 if seed == 0 else rng.randint(1100, 2000)
    argv = ["deadzone", "--freq", "1e9", "--periods", "1", "--tol", "6.4e-12",
            f"--search-hi={_picoseconds(hi)}"]
    return Case(argv, search_hi=float(_picoseconds(hi)))


def _expected_decision(offset: float) -> str:
    return "LeadA" if offset > 0 else "LeadB"


def check_lead_lag(case: Case, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"{len(rows)} report rows, expected 1"]
    row = rows[0]
    errors = []
    if row["decision"] != _expected_decision(case.offset):
        errors.append(f"decision {row['decision']} for offset {case.offset:g} s")
    if not row["mutual_exclusion_overlap"] <= MAX_OVERLAP:
        errors.append(f"UP/DN overlap {row['mutual_exclusion_overlap']:g} s "
                      f"> {MAX_OVERLAP:g} s")
    return errors


def check_corner_sweep(case: Case, rows: list[dict]) -> list[str]:
    errors = [f"corner {r['corner']}: decision {r['decision']}" for r in rows
              if r["decision"] != _expected_decision(case.offset)]
    rise = {r["corner"]: r["up_rise_time"] for r in rows}
    ordered = [rise.get(c) for c in ("FF", "TT", "SS")]
    if None in ordered or not ordered[0] <= ordered[1] <= ordered[2]:
        errors.append(f"UP rise times not ordered FF <= TT <= SS: {ordered}")
    return errors


def check_deadzone_search(case: Case, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"{len(rows)} report rows, expected 1"]
    dz = rows[0]["dead_zone"]
    if dz is None or not 0.0 < dz <= case.search_hi:
        return [f"dead zone {dz} outside (0, {case.search_hi:g}] s"]
    return []


WORKLOADS = {
    "lead_lag": (lead_lag, check_lead_lag),
    "corner_sweep": (corner_sweep, check_corner_sweep),
    "deadzone_search": (deadzone_search, check_deadzone_search),
}
