"""Flat dispatch core: bit-exact equivalence tests.

The flat core (``SchedulerCore(flat=True)`` driving ``_flat_burst``) is
a transliteration of the generator workers onto coroutine-free
state-machine frames; these tests pin the contract that it is
*bit-exact*, not merely close: identical completion order, identical
timestamps, identical busy accounting and makespan, for every pipeline
configuration, command kind (homogeneous and mixed), queue depth and
topology — on the fresh :class:`CommandScheduler` surface, the resident
:meth:`SsdSession.execute` surface, and the open-loop
:meth:`SchedulerCore.submit_stream` stream (mid-flight admission,
window backpressure and tie-heavy arrival regimes included), on both
event-list backends.

The last section is the replay contract for the event-list backends: a
full open-loop session (FTL data path, ECC, error injection, backlog,
doorbell) must produce byte-identical completions whether the engine
runs on the reference heap or the calendar queue.
"""

import random

import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import SimulationError
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTimingModel
from repro.sim.engine import SimEngine
from repro.ssd import (
    DieStripedFtl,
    IoCommand,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.ssd.scheduler import (
    CommandKind,
    CommandScheduler,
    DieCommand,
    SchedulerCore,
    open_admission,
)
from repro.workloads.traces import TraceOpKind

# Neat-number phase shapes: durations are exact multiples of 5 us so
# independent command chains collide on identical timestamps constantly
# — the regime where a tie-break divergence between the fast path and
# the generator path would surface immediately.
READ_PHASES = NandTimingModel.read_phases(
    sense_s=50e-6, transfer_s=20e-6, decode_s=40e-6, decode_hold_s=25e-6
)
PROGRAM_PHASES = NandTimingModel.program_phases(
    program_s=200e-6, transfer_s=20e-6, encode_s=15e-6
)
ERASE_PHASES = NandTimingModel.erase_phases(2e-3)

PIPELINES = [
    PipelineConfig.serial(),
    PipelineConfig(cache_read=True),
    PipelineConfig(pipelined_ecc=True),
    PipelineConfig.full(),
]


def _stream(kind: CommandKind, n: int, dies: int, seed: int) -> list[DieCommand]:
    """Homogeneous random die/plane stream of one command kind."""
    rng = random.Random(seed)
    phases = {
        CommandKind.READ: READ_PHASES,
        CommandKind.PROGRAM: PROGRAM_PHASES,
        CommandKind.ERASE: ERASE_PHASES,
    }[kind]
    cache_busy_s = 3e-6 if kind is CommandKind.READ else 0.0
    return [
        DieCommand.from_phases(
            kind, die=rng.randrange(dies), tag=tag, phases=phases,
            plane=rng.randrange(2), cache_busy_s=cache_busy_s,
        )
        for tag in range(n)
    ]


def _assert_identical(fast, slow) -> None:
    """Every observable of a ScheduleResult, compared bit-for-bit."""
    assert fast.completions == slow.completions
    assert fast.makespan_s == slow.makespan_s
    assert fast.die_busy_s == slow.die_busy_s
    assert fast.channel_busy_s == slow.channel_busy_s
    assert fast.ecc_busy_s == slow.ecc_busy_s


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    @pytest.mark.parametrize(
        "kind", [CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE]
    )
    @pytest.mark.parametrize("channels,dies_per_channel,queue_depth,seed", [
        (1, 1, None, 3),
        (2, 2, 4, 11),
        (4, 2, 32, 23),
    ])
    def test_fresh_run_bit_exact(
        self, pipeline, kind, channels, dies_per_channel, queue_depth, seed
    ):
        topology = SsdTopology(
            channels=channels, dies_per_channel=dies_per_channel
        )
        commands = _stream(kind, 48, topology.dies, seed)
        fast = CommandScheduler(
            topology, pipeline=pipeline, fast_batch=True
        ).run(commands, queue_depth)
        slow = CommandScheduler(
            topology, pipeline=pipeline, fast_batch=False
        ).run(commands, queue_depth)
        _assert_identical(fast, slow)

    def test_mixed_batch_runs_flat_and_matches(self):
        # Mixed-kind batches used to fall back to the generator
        # workers; the flat core replays heterogeneous phase plans
        # directly and must still match the generators bit-for-bit.
        topology = SsdTopology(channels=2, dies_per_channel=2)
        rng = random.Random(5)
        commands = []
        for tag in range(40):
            kind = rng.choice([CommandKind.READ, CommandKind.PROGRAM])
            commands.append(_stream(kind, 1, topology.dies, tag)[0])
        commands = [
            DieCommand.from_phases(
                c.kind, die=c.die, tag=tag, phases=c.phases, plane=c.plane,
                cache_busy_s=c.cache_busy_s,
            )
            for tag, c in enumerate(commands)
        ]
        fast = CommandScheduler(
            topology, pipeline=PipelineConfig.full(), fast_batch=True
        ).run(commands, queue_depth=8)
        slow = CommandScheduler(
            topology, pipeline=PipelineConfig.full(), fast_batch=False
        ).run(commands, queue_depth=8)
        _assert_identical(fast, slow)


class TestSessionEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    @pytest.mark.parametrize(
        "kind", [CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE]
    )
    def test_resident_execute_bit_exact(self, pipeline, kind):
        # Back-to-back batches through one resident session, checked
        # against a fast_batch=False twin AND a fresh scheduler — the
        # rebase()/reset_accounting() reuse path must not drift.
        topology = SsdTopology(channels=2, dies_per_channel=2)
        fast_session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=pipeline),
            fast_batch=True,
        )
        slow_session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=pipeline),
            fast_batch=False,
        )
        for round_seed in (7, 41):
            commands = _stream(kind, 32, topology.dies, round_seed)
            fast = fast_session.execute(list(commands), queue_depth=6)
            slow = slow_session.execute(list(commands), queue_depth=6)
            _assert_identical(fast, slow)
            fresh = CommandScheduler(
                topology, pipeline=pipeline, fast_batch=False
            ).run(list(commands), queue_depth=6)
            _assert_identical(fast, fresh)


# ---------------------------------------------------------------------------
# Open-loop streams: the flat core vs the generator oracle, bit-for-bit.
# ---------------------------------------------------------------------------

BACKENDS = ["heap", "calendar"]

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


def _stream_core(flat: bool, backend: str, pipeline) -> SchedulerCore:
    """A started, parked scheduler core on a drained engine."""
    engine = SimEngine(event_list=backend)
    topology = SsdTopology(channels=2, dies_per_channel=2)
    core = SchedulerCore(engine, topology, pipeline, flat=flat)
    core.start()
    engine.run()
    return core


def _observe(core: SchedulerCore):
    """Every observable of a drained open-loop run, bit-comparable."""
    return (
        core.engine.now_s,
        list(core.completions),
        core.engine.events_processed,
        list(core.die_busy_s),
        list(core.channel_busy_s),
        list(core.ecc_busy_s),
    )


class TestOpenLoopEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_open_stream_bit_exact(self, pipeline, backend):
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, backend, pipeline)
            commands = _mixed_stream(64, core.topology.dies, seed=17)
            core.submit_stream(commands, window=8, arrival_s=5e-6)
            core.engine.run()
            results[flat] = _observe(core)
            if flat:
                assert core.fast_commands == len(commands)
                assert core.fallback_commands == 0
            else:
                assert core.fallback_commands == len(commands)
                assert core.fast_commands == 0
        assert results[True] == results[False]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_flight_enqueue_bit_exact(self, backend):
        # New commands admitted while the stream is mid-flight (the
        # engine paused at an arbitrary instant) must replay exactly.
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, backend, PipelineConfig.full())
            commands = _mixed_stream(40, core.topology.dies, seed=29)
            core.submit_stream(commands, window=16, arrival_s=4e-6)
            core.engine.run(until_s=120e-6)
            assert core.in_flight > 0  # genuinely mid-flight
            for extra in _mixed_stream(
                6, core.topology.dies, seed=31, first_tag=1000
            ):
                core.enqueue(extra, submit_s=core.engine.now_s)
            core.engine.run()
            results[flat] = _observe(core)
        assert results[True] == results[False]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_window_backpressure_bit_exact(self, backend):
        # A tiny in-flight window forces the admission stream to park
        # on the completion doorbell between almost every command.
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, backend, PipelineConfig.full())
            commands = _mixed_stream(48, core.topology.dies, seed=43)
            core.submit_stream(commands, window=2, arrival_s=1e-6)
            makespan = core.engine.run()
            results[flat] = _observe(core)
            # Backpressure genuinely engaged: the stream took far
            # longer than the unimpeded arrival schedule.
            assert makespan > len(commands) * 1e-6 * 2
        assert results[True] == results[False]

    def test_submit_stream_matches_manual_oracle(self):
        # On a generator core, submit_stream is sugar for spawning the
        # open_admission oracle — pin that they allocate identically.
        sugar = _stream_core(False, "heap", PipelineConfig.full())
        commands = _mixed_stream(32, sugar.topology.dies, seed=53)
        sugar.submit_stream(commands, window=4, arrival_s=3e-6)
        sugar.engine.run()
        manual = _stream_core(False, "heap", PipelineConfig.full())
        manual.engine.spawn(
            open_admission(manual, list(commands), 4, 3e-6)
        )
        manual.engine.run()
        assert _observe(sugar) == _observe(manual)

    def test_one_stream_at_a_time(self):
        core = _stream_core(True, "heap", PipelineConfig.full())
        commands = _mixed_stream(24, core.topology.dies, seed=59)
        core.submit_stream(commands, window=2, arrival_s=1e-6)
        with pytest.raises(SimulationError, match="one stream at a time"):
            core.submit_stream(commands, window=2, arrival_s=1e-6)
        core.engine.run()
        # Drained: a follow-up stream is accepted and replays exactly.
        follow = _mixed_stream(
            24, core.topology.dies, seed=61, first_tag=100
        )
        core.submit_stream(follow, window=4, arrival_s=2e-6)
        core.engine.run()
        assert len(core.completions) == 48


class TestSubmitStreamValidation:
    @pytest.mark.parametrize("flat", (True, False), ids=("flat", "generator"))
    @pytest.mark.parametrize(
        "window,arrival_s",
        [(0, 1e-6), (-2, 1e-6), (4, -1e-6), (4, float("nan"))],
    )
    def test_bad_stream_rejected_before_install(
        self, flat, window, arrival_s
    ):
        core = _stream_core(flat, "calendar", PipelineConfig.full())
        commands = _mixed_stream(10, core.topology.dies, seed=4)
        with pytest.raises(SimulationError):
            core.submit_stream(commands, window=window, arrival_s=arrival_s)
        assert core.engine.idle
        # Nothing half-installed: a valid stream still runs to the end.
        core.submit_stream(commands, window=4, arrival_s=1e-6)
        core.engine.run()
        assert len(core.completions) == len(commands)


class TestTieHeavyDeterminism:
    """Completion-order determinism when everything collides.

    Same-instant arrivals (``arrival_s=0``) with neat-multiple phase
    durations put dozens of frames on identical timestamps — the regime
    where the flat core's deferred-wake and strict-minimum elisions
    would surface any sequence-order divergence from the generators.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [3, 19, 71])
    def test_same_instant_arrivals_deterministic_and_exact(
        self, backend, seed
    ):
        traces = {}
        for flat in (True, False):
            runs = []
            for _ in range(2):
                core = _stream_core(flat, backend, PipelineConfig.full())
                commands = _mixed_stream(56, core.topology.dies, seed=seed)
                core.submit_stream(commands, window=None, arrival_s=0.0)
                core.engine.run()
                runs.append(_observe(core))
            assert runs[0] == runs[1]  # deterministic replay
            traces[flat] = runs[0]
        assert traces[True] == traces[False]  # and oracle-exact

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    def test_zero_arrival_window_one_serialises_exactly(self, pipeline):
        # Window 1 under same-instant arrivals: every admission waits
        # on the previous completion — pure doorbell traffic.
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, "heap", pipeline)
            commands = _mixed_stream(20, core.topology.dies, seed=83)
            core.submit_stream(commands, window=1, arrival_s=0.0)
            core.engine.run()
            results[flat] = _observe(core)
        assert results[True] == results[False]


class TestSessionFastPathStats:
    def test_flat_session_counts_fast_commands(self):
        topology = SsdTopology(channels=2, dies_per_channel=2)
        session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=PipelineConfig.full()),
            fast_batch=True,
        )
        commands = _stream(CommandKind.READ, 24, topology.dies, 5)
        session.execute(list(commands), queue_depth=4)
        stats = session.fast_path_stats
        assert stats.fast == 24
        assert stats.fallback == 0
        assert stats.total == 24

    def test_generator_session_counts_fallback_commands(self):
        topology = SsdTopology(channels=2, dies_per_channel=2)
        session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=PipelineConfig.full()),
            fast_batch=False,
        )
        commands = _stream(CommandKind.READ, 24, topology.dies, 5)
        session.execute(list(commands), queue_depth=4)
        stats = session.fast_path_stats
        assert stats.fast == 0
        assert stats.fallback == 24
        assert stats.total == 24


class TestEngineFlatSurface:
    def test_attach_flat_twice_raises(self):
        engine = SimEngine()
        engine.attach_flat(lambda event, until_s: (None, 1))
        with pytest.raises(SimulationError, match="already attached"):
            engine.attach_flat(lambda event, until_s: (None, 1))

    def test_schedule_at_past_raises(self):
        topology = SsdTopology(channels=1, dies_per_channel=1)
        engine = SimEngine()
        core = SchedulerCore(
            engine, topology, PipelineConfig.full(), flat=True
        )
        core.start()
        engine.run()
        core.submit_stream(
            _mixed_stream(4, topology.dies, seed=2), arrival_s=1e-6
        )
        engine.run()
        with pytest.raises(SimulationError, match="into the past"):
            engine.schedule_at(engine.now_s - 1e-6, [0])


# ---------------------------------------------------------------------------
# Event-list backend replay: full open-loop sessions, byte-identical.
# ---------------------------------------------------------------------------


def _build_ftl(pipeline, seed=2012, wear=10_000):
    topology = SsdTopology(
        channels=2,
        dies_per_channel=2,
        geometry=NandGeometry(blocks=8, pages_per_block=8),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=seed, pipeline=pipeline
    )
    for controller in ssd.controllers:
        controller.device.array._wear[:] = wear
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=float(wear))
    return DieStripedFtl(ssd)


def _open_loop_trace(backend: str):
    """One full open-loop session on the given backend; returns its trace."""
    ftl = _build_ftl(PipelineConfig.full())
    page = ftl.geometry.page_data_bytes
    rng = random.Random(99)
    ftl.write_many([(lpn, bytes([lpn]) * page) for lpn in range(8)])
    session = SsdSession(
        ftl, engine=SimEngine(event_list=backend), queue_depth=4
    )
    ops = []
    for _ in range(48):
        if rng.random() < 0.6:
            ops.append(IoCommand(TraceOpKind.READ, rng.randrange(8)))
        else:
            ops.append(IoCommand(
                TraceOpKind.WRITE, rng.randrange(8), rng.randbytes(page)
            ))

    def arrivals():
        for io in ops:
            session.submit(io)
            yield 15e-6  # fast arrivals: keeps the backlog exercised

    session.engine.spawn(arrivals())
    session.drain()
    completions = session.take_completions()
    assert len(completions) == len(ops)
    return (
        [
            (c.tag, c.kind, c.lpn, c.data, c.submit_s, c.dispatch_s, c.done_s)
            for c in completions
        ],
        session.engine.now_s,
        session.engine.events_processed,
    )


class TestBackendReplay:
    def test_open_loop_session_identical_on_heap_and_calendar(self):
        assert _open_loop_trace("calendar") == _open_loop_trace("heap")
