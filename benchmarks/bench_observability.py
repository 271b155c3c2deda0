"""Observability overhead: the cost of the telemetry layer, counted.

Phase-level trace hooks sit on the scheduler's hot paths, each guarded
by an ``is None`` check on a hoisted local.  This benchmark runs the
4ch x 4die mixed-open stream (the shape ``bench_sim_speed`` runs) with
the recorder off and on, repeats interleaved in one process, and
reports per mode the simulated ops/s next to the counted cost of one
run: events processed, event-list pushes and pops, and Python-level
calls into ``src/repro`` — the counters of
``tests/ssd/test_cost_budget.py``, whose budgets pin both modes at the
``--quick`` size, so "the hooks are free when off" is checked as "no
extra calls per command".  The report also prints the calls and pushes
per command that tracing adds.

Both modes must agree on the simulated makespan bit-for-bit (the hooks
may not perturb the simulation), and the traced run's per-resource span
totals must reconcile with the scheduler's own busy accumulators to
float tolerance.  No wall-clock ratio is enforced.

The traced run's Chrome trace is exported to
``benchmarks/out/trace_observability.json`` (load it in Perfetto);
results append to ``benchmarks/out/BENCH_observability.json`` — the
observability-overhead trajectory.  Older records compare against a
frozen copy of the scheduler from before the telemetry layer, which no
longer exists.

Run standalone (``python benchmarks/bench_observability.py [--quick]``)
or through pytest; ``--quick`` shrinks the stream and repeat count.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import append_trajectory  # noqa: E402
from repro.obs import TraceRecorder  # noqa: E402
from repro.sim.engine import SimEngine  # noqa: E402
from repro.ssd.scheduler import PipelineConfig, SchedulerCore  # noqa: E402
from repro.ssd.topology import SsdTopology  # noqa: E402
from tests.ssd.test_cost_budget import (  # noqa: E402  (path bootstrap above)
    COUNTERS,
    build_stream,
    count_costs,
)

#: Absolute reconciliation tolerance (seconds) between trace-span
#: totals and the scheduler's busy accumulators: fsum over spans vs
#: running addition of identical intervals stays at epsilon scale.
RECONCILE_TOL_S = 1e-9

#: The topology and stream shape (bench_sim_speed's mixed-open).
TOPOLOGY = (4, 4)
OPS = 12_000
QUICK_OPS = 3_000
OPEN_WINDOW = 256
OPEN_ARRIVAL_S = 2e-6

OUT_PATH = Path(__file__).parent / "out" / "BENCH_observability.json"
TRACE_PATH = Path(__file__).parent / "out" / "trace_observability.json"

MODES = ("off", "traced")


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _reconcile(recorder: TraceRecorder, core) -> None:
    """Assert span totals match the busy accumulators per resource."""
    totals = recorder.busy_totals()
    for name, accumulators in (
        ("die", core.die_busy_s),
        ("channel", core.channel_busy_s),
        ("ecc", core.ecc_busy_s),
    ):
        for index, (span_s, busy_s) in enumerate(
            zip(totals[name], accumulators)
        ):
            if abs(span_s - busy_s) > RECONCILE_TOL_S:
                raise AssertionError(
                    f"{name} {index}: trace spans total {span_s!r} s but "
                    f"the scheduler accumulated {busy_s!r} s"
                )


def _run(mode: str, topology: SsdTopology, commands, measure):
    """(measure(DES run), simulated makespan, recorder) for one run."""
    recorder = TraceRecorder() if mode == "traced" else None
    engine = SimEngine()
    core = SchedulerCore(
        engine, topology, PipelineConfig.full(), recorder=recorder
    )
    core.start()
    engine.run()  # park the resident dispatchers before the stream
    core.submit_stream(commands, window=OPEN_WINDOW, arrival_s=OPEN_ARRIVAL_S)
    measured = measure(lambda: engine.run())
    if len(core.completions) != len(commands):
        raise AssertionError(
            f"{mode}: completed {len(core.completions)} of "
            f"{len(commands)} commands"
        )
    if recorder is not None:
        _reconcile(recorder, core)
    return measured, engine.now_s, recorder


def run_benchmark(quick: bool = False) -> tuple[str, dict]:
    """Measure both modes; returns (report text, metrics)."""
    ops = QUICK_OPS if quick else OPS
    repeats = 3 if quick else 5
    channels, dies_per_channel = TOPOLOGY
    topology = SsdTopology(channels=channels, dies_per_channel=dies_per_channel)
    commands = build_stream(ops, topology.dies, 0.7)
    # Interleave repeats across modes so clock drift hits both alike.
    walls = {mode: float("inf") for mode in MODES}
    makespans: dict[str, set] = {mode: set() for mode in MODES}
    for _ in range(repeats):
        for mode in MODES:
            wall, makespan, _ = _run(mode, topology, commands, _timed)
            walls[mode] = min(walls[mode], wall)
            makespans[mode].add(makespan)
    counts = {}
    recorder = None
    for mode in MODES:
        counts[mode], makespan, recorder = _run(
            mode, topology, commands, count_costs
        )
        makespans[mode].add(makespan)
    if any(len(seen) != 1 for seen in makespans.values()):
        raise AssertionError(f"non-deterministic makespan: {makespans}")
    if makespans["off"] != makespans["traced"]:
        raise AssertionError(
            f"modes disagree on makespan: {makespans} — the trace hooks "
            "perturbed the simulation"
        )
    TRACE_PATH.parent.mkdir(exist_ok=True)
    recorder.export_chrome_trace(TRACE_PATH)
    label = f"{channels}x{dies_per_channel}"
    lines = [
        "Observability overhead: mixed-open stream, recorder off vs on",
        f"({label} topology, {ops} commands, window {OPEN_WINDOW}, "
        f"{OPEN_ARRIVAL_S * 1e6:.0f} us arrivals, best of {repeats})",
        "",
        f"{'mode':>9} {'ops/s':>9} {'events':>8} {'pushes':>8} "
        f"{'pops':>8} {'calls':>8}",
    ]
    results = []
    for mode in MODES:
        (makespan,) = makespans[mode]
        results.append({
            "mode": mode,
            "ops_per_sec": round(ops / walls[mode], 1),
            "makespan_s": makespan,
            **counts[mode],
        })
        lines.append(
            f"{mode:>9} {ops / walls[mode]:>9.0f} "
            + " ".join(f"{counts[mode][name]:>8}" for name in COUNTERS)
        )
    extra_calls = (counts["traced"]["calls"] - counts["off"]["calls"]) / ops
    extra_pushes = (
        counts["traced"]["pushes"] - counts["off"]["pushes"]
    ) / ops
    lines += [
        "",
        f"spans recorded (traced): {len(recorder)}; trace exported "
        f"to {TRACE_PATH.name}",
        f"tracing adds {extra_calls:.2f} calls and {extra_pushes:.2f} "
        "event-list pushes per command",
    ]
    metrics = {"spans": len(recorder), "results": results}
    return "\n".join(lines) + "\n", metrics


def _save(text: str, metrics: dict, quick: bool) -> None:
    """Append this run to the trajectory JSON and print the table."""
    append_trajectory(OUT_PATH, {"benchmark": "observability"}, {
        "quick": quick,
        "spans": metrics["spans"],
        "results": metrics["results"],
    })
    print("\n" + text)


@pytest.mark.slow
def test_observability_overhead(quick):
    """Record the overhead trajectory with its counted costs."""
    text, metrics = run_benchmark(quick=quick)
    _save(text, metrics, quick)


if __name__ == "__main__":
    is_quick = "--quick" in sys.argv
    report, run_metrics = run_benchmark(quick=is_quick)
    _save(report, run_metrics, is_quick)
