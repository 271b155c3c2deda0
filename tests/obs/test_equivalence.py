"""Trace-on/trace-off equivalence: recording must not perturb the sim.

The instrumentation contract: every hook sits behind a ``recorder is
None`` check and records *at* the scheduler's existing accounting
points, changing no event ordering, sequence allocation or float
arithmetic.  This test enforces it — makespans, completion tuples and
busy accumulators must be bit-identical with and without a recorder.
The golden digests in ``tests/ssd/test_dispatch_golden.py`` pin traced
schedules and their span lists across the whole scheduler grid.
"""

import random

from repro.nand.timing import NandTimingModel
from repro.obs import TraceRecorder
from repro.sim.engine import SimEngine
from repro.ssd.scheduler import (
    CommandKind,
    DieCommand,
    PipelineConfig,
    SchedulerCore,
)
from repro.ssd.topology import SsdTopology

_TIMING = NandTimingModel()
READ_PHASES = _TIMING.read_phases(30e-6, 60e-6, 110e-6, 28e-6)
PROGRAM_PHASES = _TIMING.program_phases(200e-6, 60e-6, 25e-6)


def _stream(n: int, dies: int, seed: int = 7) -> list[DieCommand]:
    rng = random.Random(seed)
    commands = []
    for tag in range(n):
        die, plane = rng.randrange(dies), rng.randrange(2)
        if rng.random() < 0.7:
            commands.append(DieCommand.from_phases(
                CommandKind.READ, die, tag, READ_PHASES,
                plane=plane, cache_busy_s=3e-6,
            ))
        else:
            commands.append(DieCommand.from_phases(
                CommandKind.PROGRAM, die, tag, PROGRAM_PHASES, plane=plane,
            ))
    return commands


def _run(traced: bool):
    """One mixed-open run; returns its full observable outcome."""
    recorder = TraceRecorder() if traced else None
    engine = SimEngine()
    topology = SsdTopology(channels=2, dies_per_channel=2)
    core = SchedulerCore(
        engine, topology, PipelineConfig.full(), recorder=recorder
    )
    completions = []
    core.on_finish.append(lambda completion: completions.append(
        tuple(completion)
    ))
    core.start()
    engine.run()
    core.submit_stream(_stream(400, topology.dies), window=64,
                       arrival_s=2e-6)
    makespan = engine.run()
    return {
        "makespan": makespan,
        "completions": completions,
        "die_busy": list(core.die_busy_s),
        "channel_busy": list(core.channel_busy_s),
        "ecc_busy": list(core.ecc_busy_s),
        "recorder": recorder,
    }


def test_traced_run_is_bit_identical_to_untraced():
    untraced = _run(traced=False)
    traced = _run(traced=True)
    # Bit-identical, not approx: the hooks must not touch the sim.
    assert traced["makespan"] == untraced["makespan"]
    assert traced["completions"] == untraced["completions"]
    assert traced["die_busy"] == untraced["die_busy"]
    assert traced["channel_busy"] == untraced["channel_busy"]
    assert traced["ecc_busy"] == untraced["ecc_busy"]
    assert len(traced["recorder"]) > 0
