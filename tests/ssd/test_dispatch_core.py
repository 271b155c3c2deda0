"""Flat dispatch core: the admission surface and the engine hooks it uses.

The core's timelines themselves (closed batches, resident sessions,
open-loop streams, tie-heavy arrivals) are pinned by golden digests in
``tests/ssd/test_dispatch_golden.py``; these tests cover the contracts
around them: one admission (stream or batch) per core, argument checks
before anything is installed, the engine's flat-frame entry points and
its deadlock count of parked frames.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.nand.timing import NandTimingModel
from repro.sim.engine import SimEngine
from repro.ssd import PipelineConfig, SsdDevice, SsdSession, SsdTopology
from repro.ssd.scheduler import CommandKind, DieCommand, SchedulerCore

READ_PHASES = NandTimingModel.read_phases(
    sense_s=50e-6, transfer_s=20e-6, decode_s=40e-6, decode_hold_s=25e-6
)
PROGRAM_PHASES = NandTimingModel.program_phases(
    program_s=200e-6, transfer_s=20e-6, encode_s=15e-6
)
ERASE_PHASES = NandTimingModel.erase_phases(2e-3)

ALL_KINDS = (CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE)


def _mixed_stream(
    n: int, dies: int, seed: int, kinds=ALL_KINDS, first_tag: int = 0
) -> list[DieCommand]:
    """Random mixed-kind die/plane stream (reads, programs, erases)."""
    rng = random.Random(seed)
    phases = {
        CommandKind.READ: READ_PHASES,
        CommandKind.PROGRAM: PROGRAM_PHASES,
        CommandKind.ERASE: ERASE_PHASES,
    }
    return [
        DieCommand.from_phases(
            kind, die=rng.randrange(dies), tag=first_tag + i,
            phases=phases[kind], plane=rng.randrange(2),
            cache_busy_s=3e-6 if kind is CommandKind.READ else 0.0,
        )
        for i, kind in enumerate(
            kinds[rng.randrange(len(kinds))] for _ in range(n)
        )
    ]


def _stream_core(pipeline) -> SchedulerCore:
    """A started, parked scheduler core on a drained engine."""
    engine = SimEngine()
    topology = SsdTopology(channels=2, dies_per_channel=2)
    core = SchedulerCore(engine, topology, pipeline)
    core.start()
    engine.run()
    return core


class TestOpenLoopStreams:
    def test_one_stream_at_a_time(self):
        core = _stream_core(PipelineConfig.full())
        commands = _mixed_stream(24, core.topology.dies, seed=59)
        core.submit_stream(commands, window=2, arrival_s=1e-6)
        with pytest.raises(SimulationError, match="one stream at a time"):
            core.submit_stream(commands, window=2, arrival_s=1e-6)
        core.engine.run()
        # Drained: a follow-up stream is accepted and runs to the end.
        follow = _mixed_stream(
            24, core.topology.dies, seed=61, first_tag=100
        )
        core.submit_stream(follow, window=4, arrival_s=2e-6)
        core.engine.run()
        assert len(core.completions) == 48


class TestSubmitStreamValidation:
    @pytest.mark.parametrize(
        "window,arrival_s",
        [(0, 1e-6), (-2, 1e-6), (4, -1e-6), (4, float("nan"))],
    )
    def test_bad_stream_rejected_before_install(self, window, arrival_s):
        core = _stream_core(PipelineConfig.full())
        commands = _mixed_stream(10, core.topology.dies, seed=4)
        with pytest.raises(SimulationError):
            core.submit_stream(commands, window=window, arrival_s=arrival_s)
        assert core.engine.idle
        # Nothing half-installed: a valid stream still runs to the end.
        core.submit_stream(commands, window=4, arrival_s=1e-6)
        core.engine.run()
        assert len(core.completions) == len(commands)


class TestSubmitBatchValidation:
    @pytest.mark.parametrize("queue_depth", [0, -3])
    def test_bad_queue_depth_rejected_before_install(self, queue_depth):
        core = _stream_core(PipelineConfig.full())
        commands = _mixed_stream(10, core.topology.dies, seed=4)
        with pytest.raises(SimulationError, match="queue depth"):
            core.submit_batch(commands, queue_depth)
        assert core.engine.idle
        core.submit_batch(commands, 4)
        core.engine.run()
        assert len(core.completions) == len(commands)

    def test_batch_waits_for_the_stream_to_admit(self):
        core = _stream_core(PipelineConfig.full())
        core.submit_stream(
            _mixed_stream(24, core.topology.dies, seed=59),
            window=2, arrival_s=1e-6,
        )
        batch = _mixed_stream(8, core.topology.dies, seed=61, first_tag=100)
        with pytest.raises(SimulationError, match="one stream at a time"):
            core.submit_batch(batch, 4)
        core.engine.run()
        core.submit_batch(batch, 4)
        core.engine.run()
        assert len(core.completions) == 32


class TestEngineFlatSurface:
    def test_attach_flat_twice_raises(self):
        engine = SimEngine()
        engine.attach_flat(lambda event, until_s: (None, 1))
        with pytest.raises(SimulationError, match="already attached"):
            engine.attach_flat(lambda event, until_s: (None, 1))

    def test_schedule_at_past_raises(self):
        topology = SsdTopology(channels=1, dies_per_channel=1)
        engine = SimEngine()
        core = SchedulerCore(engine, topology, PipelineConfig.full())
        core.start()
        engine.run()
        core.submit_stream(
            _mixed_stream(4, topology.dies, seed=2), arrival_s=1e-6
        )
        engine.run()
        with pytest.raises(SimulationError, match="into the past"):
            engine.schedule_at(engine.now_s - 1e-6, [0])


class TestHostFrames:
    def test_zero_delay_step_runs_behind_the_wakes_it_caused(self):
        # A host step's enqueues wake two parked dispatchers at the
        # current instant; the step after a zero delay was allocated
        # later at the same instant, so both dispatchers pop first.
        engine = SimEngine()
        core = SchedulerCore(
            engine, SsdTopology(channels=1, dies_per_channel=2),
            PipelineConfig.full(),
        )
        core.start()
        engine.run()
        queues = [die_frames[0][4] for die_frames in core._frames]
        seen = []

        def host():
            for die in (0, 1):
                core.enqueue(DieCommand.from_phases(
                    CommandKind.ERASE, die=die, tag=die, phases=ERASE_PHASES,
                ))
            seen.append([len(queue) for queue in queues])
            yield 0.0
            seen.append([len(queue) for queue in queues])

        core.spawn(host())
        engine.run()
        assert seen == [[1, 1], [0, 0]]
        assert sorted(c.tag for c in core.completions) == [0, 1]


class TestDeadlockDetection:
    def test_execute_counts_every_parked_waiter(self):
        # 1 channel x 2 dies, four programs at QD 2: each program opens
        # with its bus section, so the two dies contend for the bus.
        topology = SsdTopology(channels=1, dies_per_channel=2)
        session = SsdSession(ssd=SsdDevice(topology, seed=0))
        commands = [
            DieCommand.from_phases(
                CommandKind.PROGRAM, die=tag % 2, tag=tag,
                phases=PROGRAM_PHASES,
            )
            for tag in range(4)
        ]
        first = session.execute(commands, queue_depth=2)
        done = {c.tag: c.done_s for c in first.completions}
        section_s = sum(p.duration_s for p in PROGRAM_PHASES[:-1])
        # Die 1 waited on the bus for die 0's section; that park, and the
        # admission's parks on the full window, balanced.
        assert done[1] - done[0] == pytest.approx(section_s)
        assert len(done) == 4
        # Hold the bus behind the core's back: both frames park on it,
        # the admission parks on the full window, and nothing is left
        # to run.
        session.core._buses[0][0] = True
        with pytest.raises(SimulationError, match=r"deadlock: 3 "):
            session.execute(commands, queue_depth=2)

    def test_parks_around_host_steps_count_toward_deadlock(self):
        # Host steps enqueue one program per step on a channel whose bus
        # is held behind the core's back: the die-0 park made between
        # the steps survives the second step, and the deadlock error is
        # also a RuntimeError.
        engine = SimEngine()
        core = SchedulerCore(
            engine, SsdTopology(channels=1, dies_per_channel=2),
            PipelineConfig.full(),
        )
        core.start()
        engine.run()
        core._buses[0][0] = True

        def host():
            for die in (0, 1):
                core.enqueue(DieCommand.from_phases(
                    CommandKind.PROGRAM, die=die, tag=die,
                    phases=PROGRAM_PHASES,
                ))
                yield 1e-6

        core.spawn(host())
        with pytest.raises(RuntimeError, match=r"deadlock: 2 ") as err:
            engine.run()
        assert isinstance(err.value, SimulationError)
        assert engine._parked == 2

    def test_parks_balance_across_runs(self):
        """A resumed park leaves no count behind for the engine's next run."""
        topology = SsdTopology(channels=1, dies_per_channel=2)
        session = SsdSession(ssd=SsdDevice(topology, seed=0))
        core, engine = session.core, session.core.engine

        def programs(first_tag):
            return [
                DieCommand.from_phases(
                    CommandKind.PROGRAM, die=tag % 2, tag=first_tag + tag,
                    phases=PROGRAM_PHASES,
                )
                for tag in range(4)
            ]

        def tick():
            yield 1.0

        # A stream at window 1 parks its admission on the window after
        # every admit; a batch at QD 2 parks a frame on the bus too.
        core.submit_stream(programs(0), window=1, arrival_s=1e-6)
        engine.run()
        assert engine._parked == 0
        session.execute(programs(10), queue_depth=2)
        assert engine._parked == 0
        start_s = engine.now_s
        core.spawn(tick())
        assert engine.run() == pytest.approx(start_s + 1.0)  # no stale deadlock
        # The stream form counts its window park like the batch form.
        core._buses[0][0] = True
        core.submit_stream(programs(20), window=2, arrival_s=1e-6)
        with pytest.raises(SimulationError, match=r"deadlock: 3 "):
            engine.run()
