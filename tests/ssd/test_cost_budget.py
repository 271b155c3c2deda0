"""Counted cost budgets of the DES dispatch core.

Wall-clock ratios are noisy on shared runners, and a ratio needs a
second implementation to divide by.  This test counts instead, the way
instruction-count benchmarking (Cachegrind) does.  For fixed command
streams it counts

* ``events`` — the engine's ``events_processed``;
* ``pushes`` / ``pops`` — calls of the event list's ``push`` and
  ``pop``, wrapped as each engine's ``run`` starts;
* ``calls`` — Python-level calls into ``src/repro`` (``sys.setprofile``
  ``"call"`` events).  Code names starting with ``<`` (comprehensions,
  generator expressions, lambdas) are skipped, so comprehension
  inlining (PEP 709, Python 3.12) cannot move the count.

The counts are exact on any machine, so each budget below is a
committed integer.  A count over budget fails and names the shape and
the counter.  A count under budget fails as stale and prints the new
value: budgets only ratchet down, like ``lint-baseline.txt``.  Each
shape is counted on its second run, so the phase-plan caches are warm
and test order cannot change a number, on disarmed engines, so
``pytest --sanitize`` cannot change one either.  The cyclic garbage
collector is off while counting (after a full collection): collecting
a suspended generator left behind by earlier code resumes it to close
it, which would count as a call.

The shapes are those of ``benchmarks/bench_sim_speed.py`` at its quick
size (4ch x 4die, full pipeline, 3,000 commands): the mixed-open stream
(70/30 reads/programs, window 256, 2 us arrivals) with the trace
recorder off and on, and closed read and write batches at queue depth
32, each through a fresh session's
:meth:`~repro.ssd.session.SsdSession.execute` (the session is built
outside the counted window: its constructor's parking turns are set-up,
not batch).  The benchmarks import :func:`count_costs` to print these
counts next to their ops/s.
"""

from __future__ import annotations

import gc
import os
import random
import sys

import pytest

import repro
from repro.nand.timing import NandTimingModel
from repro.obs import TraceRecorder
from repro.sim.engine import SimEngine
from repro.ssd import SsdDevice, SsdSession
from repro.ssd.scheduler import (
    CommandKind,
    DieCommand,
    PipelineConfig,
    SchedulerCore,
)
from repro.ssd.topology import SsdTopology

SRC_DIR = os.path.dirname(repro.__file__) + os.sep
COUNTERS = ("events", "pushes", "pops", "calls")

OPS = 3_000
OPEN_WINDOW = 256
OPEN_ARRIVAL_S = 2e-6
CLOSED_QD = 32
_TIMING = NandTimingModel()
READ_PHASES = _TIMING.read_phases(30e-6, 60e-6, 110e-6, 28e-6)
PROGRAM_PHASES = _TIMING.program_phases(200e-6, 60e-6, 25e-6)
CACHE_BUSY_S = 3e-6

#: Exact counts per shape; see the module docstring for the ratchet.
BUDGETS = {
    "mixed-open":
        {"events": 26558, "pushes": 13446, "pops": 13448, "calls": 1437},
    "mixed-open-traced":
        {"events": 26558, "pushes": 16128, "pops": 16130, "calls": 4437},
    "reads-closed":
        {"events": 27088, "pushes": 13678, "pops": 13680, "calls": 4328},
    "writes-closed":
        {"events": 15516, "pushes": 8995, "pops": 8997, "calls": 3245},
}


def count_costs(run) -> dict[str, int]:
    """Call ``run()``; count the DES work of every engine it runs."""
    counts = dict.fromkeys(COUNTERS, 0)
    original_run = SimEngine.run

    def counted_run(engine, *args, **kwargs):
        queue = engine._queue
        push, pop = queue.push, queue.pop

        def counted_push(entry):
            counts["pushes"] += 1
            push(entry)

        def counted_pop():
            counts["pops"] += 1
            return pop()

        queue.push, queue.pop = counted_push, counted_pop
        before = engine.events_processed
        try:
            return original_run(engine, *args, **kwargs)
        finally:
            queue.push, queue.pop = push, pop
            counts["events"] += engine.events_processed - before

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(SRC_DIR)
                    and not code.co_name.startswith("<")):
                counts["calls"] += 1

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    SimEngine.run = counted_run
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        SimEngine.run = original_run
        if collecting:
            gc.enable()
    return counts


def build_stream(
    n: int, dies: int, read_fraction: float, seed: int = 7
) -> list[DieCommand]:
    """The sim-speed stream: seeded die/plane reads and programs."""
    rng = random.Random(seed)
    commands = []
    for tag in range(n):
        die, plane = rng.randrange(dies), rng.randrange(2)
        if rng.random() < read_fraction:
            commands.append(DieCommand.from_phases(
                CommandKind.READ, die, tag, READ_PHASES,
                plane=plane, cache_busy_s=CACHE_BUSY_S,
            ))
        else:
            commands.append(DieCommand.from_phases(
                CommandKind.PROGRAM, die, tag, PROGRAM_PHASES, plane=plane,
            ))
    return commands


def _mixed_open(traced: bool) -> dict[str, int]:
    topology = SsdTopology(channels=4, dies_per_channel=4)
    commands = build_stream(OPS, topology.dies, 0.7)
    for _ in range(2):
        engine = SimEngine(sanitize=False)
        core = SchedulerCore(
            engine, topology, PipelineConfig.full(),
            recorder=TraceRecorder() if traced else None,
        )
        core.start()
        engine.run()
        core.submit_stream(
            commands, window=OPEN_WINDOW, arrival_s=OPEN_ARRIVAL_S
        )
        counts = count_costs(lambda: engine.run())
        assert len(core.completions) == OPS
    return counts


def _closed(read_fraction: float) -> dict[str, int]:
    topology = SsdTopology(channels=4, dies_per_channel=4)
    commands = build_stream(OPS, topology.dies, read_fraction)
    for _ in range(2):
        session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=PipelineConfig.full()),
            engine=SimEngine(sanitize=False),
        )
        counts = count_costs(
            lambda: session.execute(commands, queue_depth=CLOSED_QD)
        )
    return counts


SHAPES = {
    "mixed-open": lambda: _mixed_open(traced=False),
    "mixed-open-traced": lambda: _mixed_open(traced=True),
    "reads-closed": lambda: _closed(1.0),
    "writes-closed": lambda: _closed(0.0),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_counts_match_budget(shape):
    observed = SHAPES[shape]()
    budget = BUDGETS[shape]
    over = [
        f"{name} {observed[name]} > {budget[name]}"
        for name in COUNTERS if observed[name] > budget[name]
    ]
    stale = [
        f"{name} {observed[name]} < {budget[name]}"
        for name in COUNTERS if observed[name] < budget[name]
    ]
    assert not over, (
        f"{shape}: over budget: {', '.join(over)} (observed {observed})"
    )
    assert not stale, (
        f"{shape}: stale budget, ratchet it down: {', '.join(stale)} "
        f"(observed {observed})"
    )
