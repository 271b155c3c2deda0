"""Simulation-speed trajectory: simulated ops/sec across the topology grid.

Drives the command scheduler directly (timing only — no BCH math, no
page data), so what is measured is exactly the DES hot loop: event-list
push/pop, the flat dispatch core's burst handler and resource
reservation.

Three workload shapes per topology (1x1 up to 8x8 channels x dies):

* ``reads-closed`` / ``writes-closed`` — homogeneous closed batches at
  queue depth 32 through :meth:`SsdSession.execute` on a fresh session
  (built outside the measured window): the die-striped FTL's
  bread-and-butter pattern;
* ``mixed-open`` — an open-loop 70/30 read/program stream with paced
  2 us arrivals through a 256-deep in-flight window
  (:meth:`SchedulerCore.submit_stream`), transfer-heavy phase shapes
  (bus-saturated).

Each row reports simulated ops/s (best of N wall-clock runs) next to the
counted cost of one run: events processed, event-list pushes and pops,
and Python-level calls into ``src/repro`` — the counters of
``tests/ssd/test_cost_budget.py``, whose budgets pin the 4x4 rows at the
``--quick`` size.  The benchmark asserts that every command completes
and that every run of a row agrees on the simulated makespan
bit-for-bit; it enforces no wall-clock ratio.  The wall-clock guard for
the DES is the end-to-end ``des_stream`` workload (``benchmarks/e2e``).

Results append to ``benchmarks/out/BENCH_sim_speed.json`` — the
sim-speed trajectory.  Older records compare paths that no longer exist
(a frozen replica of the first engine, generator workers, a calendar
event list); ROADMAP describes them.

Run standalone (``python benchmarks/bench_sim_speed.py [--quick]``) or
through pytest; ``--quick`` shrinks streams and skips the 8x8 point.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import append_trajectory  # noqa: E402
from repro.sim.engine import SimEngine  # noqa: E402
from repro.ssd import SsdDevice, SsdSession  # noqa: E402
from repro.ssd.scheduler import PipelineConfig, SchedulerCore  # noqa: E402
from repro.ssd.topology import SsdTopology  # noqa: E402
from tests.ssd.test_cost_budget import (  # noqa: E402  (path bootstrap above)
    COUNTERS,
    build_stream,
    count_costs,
)

#: (channels, dies_per_channel) grid; 8x8 is skipped under --quick.
TOPOLOGIES = ((1, 1), (2, 2), (4, 4), (8, 8))

#: Commands per (topology, shape) measurement.
OPS = 12_000
QUICK_OPS = 3_000

#: Mixed-open stream parameters: in-flight window and arrival spacing.
OPEN_WINDOW = 256
OPEN_ARRIVAL_S = 2e-6

#: Closed-batch queue depth.
CLOSED_QD = 32

OUT_PATH = Path(__file__).parent / "out" / "BENCH_sim_speed.json"


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _run_open(topology: SsdTopology, commands, measure):
    """(measure(DES run), makespan) for one mixed-open stream."""
    engine = SimEngine()
    core = SchedulerCore(engine, topology, PipelineConfig.full())
    core.start()
    engine.run()  # park the resident dispatchers before the stream
    core.submit_stream(commands, window=OPEN_WINDOW, arrival_s=OPEN_ARRIVAL_S)
    measured = measure(lambda: engine.run())
    if len(core.completions) != len(commands):
        raise AssertionError(
            f"completed {len(core.completions)} of {len(commands)} commands"
        )
    return measured, engine.now_s


def _run_closed(topology: SsdTopology, commands, measure):
    """(measure(SsdSession.execute), makespan) for one closed batch."""
    session = SsdSession(
        ssd=SsdDevice(topology, seed=0, pipeline=PipelineConfig.full())
    )
    results = []
    measured = measure(lambda: results.append(
        session.execute(commands, queue_depth=CLOSED_QD)
    ))
    return measured, results[0].makespan_s


def run_benchmark(quick: bool = False) -> tuple[str, dict]:
    """Measure the grid; returns (report text, metrics)."""
    ops = QUICK_OPS if quick else OPS
    repeats = 2 if quick else 3
    topologies = [t for t in TOPOLOGIES if not (quick and t == (8, 8))]
    shapes = (
        ("reads-closed", _run_closed, 1.0),
        ("writes-closed", _run_closed, 0.0),
        ("mixed-open", _run_open, 0.7),
    )
    lines = [
        "Simulation speed: simulated ops/sec and counted cost per run",
        f"(full pipeline, {ops} commands, best of {repeats}; mixed-open: "
        f"window {OPEN_WINDOW}, {OPEN_ARRIVAL_S * 1e6:.0f} us arrivals; "
        f"closed: QD {CLOSED_QD})",
        "",
        f"{'topology':>9} {'shape':>14} {'ops/s':>9} {'events':>8} "
        f"{'pushes':>8} {'pops':>8} {'calls':>8}",
    ]
    results = []
    for channels, dies_per_channel in topologies:
        topology = SsdTopology(channels=channels, dies_per_channel=dies_per_channel)
        label = f"{channels}x{dies_per_channel}"
        for shape, runner, read_fraction in shapes:
            commands = build_stream(ops, topology.dies, read_fraction)
            wall = float("inf")
            makespans = set()
            for _ in range(repeats):
                elapsed, makespan = runner(topology, commands, _timed)
                wall = min(wall, elapsed)
                makespans.add(makespan)
            counts, makespan = runner(topology, commands, count_costs)
            makespans.add(makespan)
            if len(makespans) != 1:
                raise AssertionError(
                    f"{label}/{shape}: non-deterministic makespan {makespans}"
                )
            results.append({
                "topology": label,
                "shape": shape,
                "ops_per_sec": round(ops / wall, 1),
                "makespan_s": makespan,
                **counts,
            })
            lines.append(
                f"{label:>9} {shape:>14} {ops / wall:>9.0f} "
                + " ".join(f"{counts[name]:>8}" for name in COUNTERS)
            )
    return "\n".join(lines) + "\n", {"results": results}


def _save(text: str, metrics: dict, quick: bool) -> None:
    """Append this run to the trajectory JSON and print the table."""
    append_trajectory(OUT_PATH, {"benchmark": "sim_speed"}, {
        "quick": quick,
        "results": metrics["results"],
    })
    print("\n" + text)


@pytest.mark.slow
def test_sim_speed(quick):
    """Record the sim-speed grid with its counted costs."""
    text, metrics = run_benchmark(quick=quick)
    _save(text, metrics, quick)


if __name__ == "__main__":
    is_quick = "--quick" in sys.argv
    report, run_metrics = run_benchmark(quick=is_quick)
    _save(report, run_metrics, is_quick)
