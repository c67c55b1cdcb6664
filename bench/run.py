#!/usr/bin/env python3
"""pfdsim benchmark: one workload, driven through `pfdsim.cli.main(argv)`.

Run from the root of a checkout (the program is imported from its `src/`):

    python3 bench/run.py --workload lead_lag --seed 0 --seconds 30 --trace 0

Load model: one process, one client, closed loop. Each command starts when the
previous one has finished, and `--jobs` keeps its default of 1. Every run is a
fresh process that first runs one short untimed transient as a warm-up. The
first timed command also captures its transients; the KCL replay and the
deterministic counts use them after it has finished. Then the identical
command repeats until `--seconds` have passed since the first one started.
Each command is timed between reference slices (hostspeed.py); times are
reported scaled to the reference host, with the raw host times printed beside
them.

`--trace 0` reports end-to-end metrics with nothing patched; reference slices
also run inside each command, from a timer signal. `--trace 1` alternates
untraced commands with traced ones (see layers.py) and reports per-layer
metrics in raw host seconds, with slices before and after each command only;
the difference in median wall time is `trace.overhead_s`.
Each command is checked: exit code 0, the workload's invariants on
report.json, outputs byte-identical to the first command's, and the same
counts as any earlier run of this seed on the same sources. The last line
of standard output is one JSON object. The exit code is 1 if any check
failed, and 2 if the checkout has no pfdsim sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from hostspeed import HostSpeed, reference_slice
from layers import Tracer, command_layers, transient_quantiles
from workloads import MAX_KCL_RATIO, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 21
MIN_COMMANDS = 3  # per kind of command, so every median has n >= 3
SETUP_CODE = "import pfdsim.cli; pfdsim.cli.build_parser()"
WARM_UP = ["transient", "--periods", "3"]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _import_pfdsim():
    src = ROOT / "src"
    if not (src / "pfdsim" / "__init__.py").is_file():
        print(f"bench: no pfdsim sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import pfdsim.cli
    import pfdsim.engine
    import pfdsim.experiments

    if Path(pfdsim.__file__).resolve().parent != src / "pfdsim":
        print(f"bench: imported pfdsim from {pfdsim.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return pfdsim.cli, pfdsim.engine, pfdsim.experiments


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pfdsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _output_digest(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()[:16], size


def setup_interpreter() -> bool:
    """A fresh interpreter importing the CLI and building its parser; True if it
    succeeded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
    except subprocess.TimeoutExpired:
        return False
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        return False
    return True


@contextmanager
def capture_transients(experiments):
    """Keep (netlist, options, result) of every transient experiments runs."""
    runs = []
    transient = experiments.transient

    def capturing(netlist, options, *args, **kwargs):
        result = transient(netlist, options, *args, **kwargs)
        runs.append((netlist, options, result))
        return result

    experiments.transient = capturing
    try:
        yield runs
    finally:
        experiments.transient = transient


class Session:
    """Runs the workload's command and records every failed attempt."""

    def __init__(self, main, case, check, out: Path, inside: bool):
        self.main = main
        self.case = case
        self.check = check
        self.out = out
        self.speed = HostSpeed()
        self.inside = inside  # reference slices inside commands too
        self.argv = case.argv + ["--out", str(out)]
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # attempt label -> messages
        self.reference: str | None = None  # output digest of the first command

    def fail(self, label: str, message: str) -> None:
        self.failures.setdefault(label, []).append(message)
        print(f"FAIL {label}: {message}", file=sys.stderr)

    def warm_up(self) -> None:
        """One short untimed transient and reference slice: the first in a
        process runs slower."""
        reference_slice()
        self.attempted += 1
        rc = self.main(WARM_UP + ["--out", str(self.out / "warm-up")])
        if rc != 0:
            self.fail("warm-up", f"exit code {rc}")

    def command(self, main, kind: str) -> tuple[float, float] | None:
        """Run the command once through `main(argv)`; its (host, reference-host)
        seconds, or None if it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        label = f"{kind} #{self.attempted}"
        try:
            rc, wall, scaled = self.speed.time(main, self.argv, inside=self.inside)
        except Exception as exc:  # the program's own failure, reported as one
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        if rc != 0:
            self.fail(label, f"exit code {rc}")
            return None
        rows = json.loads((self.out / "report.json").read_text())["rows"]
        errors = self.check(self.case, rows)
        digest, _ = _output_digest(self.out)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            errors.append(f"outputs differ from the first command's ({digest})")
        for e in errors:
            self.fail(label, e)
        return None if errors else (wall, scaled)


def first_command(session: Session, engine, experiments) -> tuple[tuple | None, dict]:
    """Run the first timed command with its transients captured, then, outside
    the timed region, replay KCL over them and derive the deterministic counts."""
    with capture_transients(experiments) as runs:
        times = session.command(session.main, "command")
    if times is None:
        return times, {}
    t0 = time.perf_counter()
    kcl = max(engine.kcl_residual_ratio(net, res, opt) for net, opt, res in runs)
    kcl_s = time.perf_counter() - t0
    if not kcl <= MAX_KCL_RATIO:
        session.fail("KCL replay", f"residual ratio {kcl:.4f} > {MAX_KCL_RATIO}")
    points = [len(res.time) for _, _, res in runs]
    return times, {
        "counts": {"engine.transient_calls": len(runs),
                   "engine.accepted_points": sum(points),
                   "points_per_transient": points,
                   "output_digest": session.reference},
        "sim_ns": 1e9 * sum(float(res.time[-1] - res.time[0]) for _, _, res in runs),
        "out_bytes": _output_digest(session.out)[1],
        "kcl": kcl,
        "kcl_s": kcl_s,
    }


def timed_loop(start: float, seconds: float, kinds: list, walls: list[list]) -> None:
    """Cycle through `kinds` (callables returning a command's times or None),
    adding to `walls`, until `seconds` have passed since `start`. Once each
    kind has MIN_COMMANDS samples, a command is not started if, going by the
    last one, more than half of it would fall past that. Stops at the first
    failure."""
    last = 0.0
    i = sum(len(w) for w in walls)
    while True:
        k = i % len(kinds)
        enough = all(len(w) >= MIN_COMMANDS for w in walls)
        if enough and time.perf_counter() - start + 0.5 * last > seconds:
            return
        t0 = time.perf_counter()
        times = kinds[k]()
        if times is None:
            return
        walls[k].append(times)
        last = time.perf_counter() - t0
        i += 1


def check_counts(session: Session, workload: str, seed: int, counts: dict) -> None:
    """Compare deterministic counts with earlier runs of this seed on the same sources."""
    store = ROOT / ".bench_out" / "counts" / f"{workload}-{seed}-{_source_digest()}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        if earlier != counts:
            session.fail("counts", f"{counts} differ from an earlier run of this "
                         f"seed: {earlier}")
        return
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, store)


def _spread(values: list[float]) -> str:
    return f"n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


@contextmanager
def pinned_to_this_cpu():
    """Keep this process, and the processes it starts, on the CPU it runs on,
    so that an interpreter runs where the reference slices beside it ran."""
    cpus = os.sched_getaffinity(0)
    stat = Path("/proc/self/stat").read_text()
    os.sched_setaffinity(0, {int(stat.rsplit(")", 1)[1].split()[36])})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def setup_times(session: Session) -> list[tuple[float, float]]:
    """(host, reference-host) seconds of SETUP_REPS fresh interpreters. The
    slices run only between them, not beside them."""
    setups = []
    with pinned_to_this_cpu():
        for _ in range(SETUP_REPS):
            session.attempted += 1
            ok, wall, scaled = session.speed.time(setup_interpreter, inside=False)
            if ok:
                setups.append((wall, scaled))
            else:
                session.fail(f"setup #{session.attempted}", "interpreter exited non-zero")
    return setups


def _medians(times: list[tuple[float, float]]) -> tuple[float, str]:
    """Median reference-host time, and a note with the raw host times."""
    raw, scaled = zip(*times)
    return (statistics.median(scaled),
            f"median, {_spread(scaled)}; host s: median {statistics.median(raw):.4f}, "
            f"{_spread(raw)}")


def end_to_end(session: Session, args, start: float, first: dict, walls: list[list]) -> dict:
    timed_loop(start, args.seconds,
               [lambda: session.command(session.main, "command")], walls)
    setups = setup_times(session)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if session.failures:
        return {}
    wall, wall_note = _medians(walls[0])
    setup, setup_note = _medians(setups)
    return {
        "wall_s": (wall, "s", f"{wall_note} commands"),
        "sim_ns_per_host_s": (first["sim_ns"] / wall, "ns/s",
                              f"{first['sim_ns']:.4f} simulated ns per command"),
        "setup_s": (setup, "s", f"{setup_note} interpreters"),
        "peak_rss_mb": (rss_mb, "MiB", "ru_maxrss of this process"),
    }


PER_LAYER_UNITS = {
    "engine.transient_calls": "count",
    "engine.accepted_points": "count",
    "engine.busy_s": "s",
    "engine.host_us_per_point": "us",
    "engine.transient_p50_s": "s",
    "engine.transient_p90_s": "s",
    "engine.csv_s": "s",
    "engine.kcl_check_s": "s",
    "accuracy.kcl_ratio_max": "ratio",
    "experiments.transients_per_result": "count",
    "experiments.self_s": "s",
    "netlist.build_calls": "count",
    "netlist.build_s": "s",
    "measure.calls": "count",
    "measure.busy_s": "s",
    "cli.render_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
    "host.ref_slice_s": "s",
}
EXACT_COUNTS = ("engine.transient_calls", "engine.accepted_points",
                "netlist.build_calls", "measure.calls")


def per_layer(session: Session, args, start: float, first: dict, walls: list[list]) -> dict:
    tracer = Tracer()
    layers, spans = [], []

    def traced():
        with tracer.installed():
            times = session.command(lambda a: tracer.call("cli", session.main, a),
                                    "traced command")
        taken = tracer.take()
        if times is not None:
            spans.extend(taken)
            layers.append(command_layers(taken))
        return times

    timed_loop(start, args.seconds,
               [lambda: session.command(session.main, "command"), traced], walls)
    walls, traced_walls = ([raw for raw, _ in w] for w in walls)
    if session.failures:
        return {}
    # every traced command repeats the first traced one, and the first timed
    # (captured, untraced) command where both count the same thing
    counts = {key: layers[0][key] for key in EXACT_COUNTS}
    counts.update({key: first["counts"][key] for key in EXACT_COUNTS
                   if key in first["counts"]})
    for i, layer in enumerate(layers, 1):
        for key in EXACT_COUNTS:
            if layer[key] != counts[key]:
                session.fail(f"traced command {i}",
                             f"{key} {layer[key]}, expected {counts[key]}")
    p50, p90 = transient_quantiles(spans)
    values = {key: statistics.median(layer[key] for layer in layers)
              for key in layers[0]}
    values.update({key: counts[key] for key in EXACT_COUNTS})
    values.update({
        "engine.transient_p50_s": p50,
        "engine.transient_p90_s": p90,
        "engine.kcl_check_s": first["kcl_s"],
        "accuracy.kcl_ratio_max": first["kcl"],
        "experiments.transients_per_result": counts["engine.transient_calls"],
        "cli.out_bytes": first["out_bytes"],
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls),
        "host.ref_slice_s": statistics.median(session.speed.slices),
    })
    note = f"traced n={len(traced_walls)}, untraced n={len(walls)} commands"
    return {key: (values[key], unit, note) for key, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    cli, engine, experiments = _import_pfdsim()
    make_case, check = WORKLOADS[args.workload]
    case = make_case(args.seed)
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    session = Session(cli.main, case, check, out, inside=not args.trace)
    print(f"# {args.workload} seed {args.seed}: pfdsim {' '.join(case.argv)}")
    print("# closed loop, 1 client, --jobs 1, fresh process, "
          f"{'traced' if args.trace else 'untraced'}")
    results = {}
    try:
        session.warm_up()
        if not session.failures:
            start = time.perf_counter()
            times, first = first_command(session, engine, experiments)
        if not session.failures:
            check_counts(session, args.workload, args.seed, first["counts"])
            print(f"# counts {json.dumps(first['counts'])}, sources {_source_digest()}")
        if not session.failures:
            walls = [[times], []] if args.trace else [[times]]
            measure = per_layer if args.trace else end_to_end
            results = measure(session, args, start, first, walls)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    metrics = {}
    for name, (value, unit, note) in results.items():
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit} ({note})")
    if session.speed.slices:
        print(f"# host: reference slice median {statistics.median(session.speed.slices):.5f} s, "
              f"{_spread(session.speed.slices)} slices")
    failed = len(session.failures)
    print(f"fail_ratio {failed}/{session.attempted} attempts")
    print(json.dumps({"correct": not session.failures,
                      "attempted": max(1, session.attempted),
                      "failed": failed, "metrics": metrics}))
    return 1 if session.failures else 0


if __name__ == "__main__":
    sys.exit(main())
