"""Phase-scheduler tests: PR 3 equivalence, pipeline modes, determinism.

The reference implementation below is a verbatim copy of the PR 3
two-scalar scheduler (one die process per die, fused transfer+ECC bus
section), except that it reads its two scalars off each command's phases.
With every pipeline flag disabled, the phase scheduler must reproduce
its timelines *exactly* — same completion order, same
per-command completion times, same final clock — on arbitrary command
mixes.  The oracle runs on a generator DES of its own
(:class:`OracleEngine`), not on the engine under test.  The pipelined
modes are then checked against closed-form makespans and for
run-to-run determinism.  Every batch drains through a fresh session's
:meth:`~repro.ssd.session.SsdSession.execute`.
"""

import heapq
from typing import Generator

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.controller.core import pipeline_elapsed_s
from repro.nand.geometry import NandGeometry
from repro.nand.timing import CommandPhase, NandTimingModel, PhaseResource
from repro.ssd import SsdDevice, SsdSession
from repro.ssd.scheduler import CommandKind, DieCommand, PipelineConfig
from repro.ssd.topology import SsdTopology


# ---------------------------------------------------------------------------
# The oracle's DES, independent of repro.sim.engine.
# ---------------------------------------------------------------------------

#: An oracle process: a generator yielding delays or an OracleSignal.
Process = Generator


class OracleSignal:
    """Wake-all signal: :meth:`fire` resumes every waiter, park order."""

    def __init__(self, engine: "OracleEngine"):
        self.engine = engine
        self.waiters: list = []

    def fire(self) -> None:
        waiters, self.waiters = self.waiters, []
        for process in waiters:
            self.engine.spawn(process)


class OracleEngine:
    """The oracle's own generator DES.

    Events are ``(time, seq)``-ordered on one heap (time-major, FIFO
    within a timestamp); a process that yields a delay resumes at
    ``now + delay``, and one that yields an :class:`OracleSignal` parks
    on it until the signal fires.
    """

    def __init__(self):
        self.now_s = 0.0
        self._heap: list = []
        self._seq = 0

    def spawn(self, process: Process) -> None:
        heapq.heappush(self._heap, (self.now_s, self._seq, process))
        self._seq += 1

    def signal(self) -> OracleSignal:
        return OracleSignal(self)

    def run(self) -> float:
        heap = self._heap
        while heap:
            self.now_s, _, process = heapq.heappop(heap)
            try:
                delay = next(process)
            except StopIteration:
                continue
            if isinstance(delay, OracleSignal):
                delay.waiters.append(process)
            else:
                heapq.heappush(heap, (self.now_s + delay, self._seq, process))
                self._seq += 1
        return self.now_s


# ---------------------------------------------------------------------------
# Reference: the PR 3 scheduler, kept verbatim as the equivalence oracle.
# ---------------------------------------------------------------------------


class _Pr3Bus:
    def __init__(self, engine: OracleEngine):
        self.busy = False
        self.freed = engine.signal()


def _two_scalars(command) -> tuple[float, float]:
    """The oracle's ``(die_s, channel_s)``, read off a command's phases.

    ``die_s`` sums the array (plane) phases and ``channel_s`` every
    other phase (transfer plus ECC, the fused bus section), each in
    phase order: the sums the two-scalar commands were built with.
    """
    die_s = sum(
        p.duration_s for p in command.phases
        if p.resource is PhaseResource.PLANE
    )
    channel_s = sum(
        p.duration_s for p in command.phases
        if p.resource is not PhaseResource.PLANE
    )
    return die_s, channel_s


class Pr3Scheduler:
    """The pre-phase two-scalar scheduler (PR 3), used as an oracle."""

    def __init__(self, topology: SsdTopology):
        self.topology = topology

    def run(self, commands, queue_depth=None):
        topology = self.topology
        engine = OracleEngine()
        completions = []
        buses = [_Pr3Bus(engine) for _ in range(topology.channels)]
        queues = [[] for _ in range(topology.dies)]
        work = [engine.signal() for _ in range(topology.dies)]
        completed = engine.signal()
        state = {"in_flight": 0, "closed": False}
        admit_s = {}

        def hold_bus(bus, duration_s) -> Process:
            while bus.busy:
                yield bus.freed
            bus.busy = True
            yield duration_s
            bus.busy = False
            bus.freed.fire()

        def admission() -> Process:
            limit = len(commands) if queue_depth is None else queue_depth
            for command in commands:
                while state["in_flight"] >= limit:
                    yield completed
                state["in_flight"] += 1
                admit_s[command.tag] = engine.now_s
                queues[command.die].append(command)
                work[command.die].fire()
            state["closed"] = True
            for signal in work:
                signal.fire()

        def die_process(die: int) -> Process:
            channel = topology.channel_of(die)
            bus = buses[channel]
            while True:
                while not queues[die]:
                    if state["closed"]:
                        return
                    yield work[die]
                command = queues[die].pop(0)
                die_s, channel_s = _two_scalars(command)
                if command.kind is CommandKind.READ:
                    yield die_s
                    yield from hold_bus(bus, channel_s)
                elif command.kind is CommandKind.PROGRAM:
                    yield from hold_bus(bus, channel_s)
                    yield die_s
                else:
                    yield die_s
                completions.append(
                    (command.tag, admit_s[command.tag], engine.now_s)
                )
                state["in_flight"] -= 1
                completed.fire()

        engine.spawn(admission())
        for die in range(topology.dies):
            engine.spawn(die_process(die))
        makespan = engine.run()
        return completions, makespan


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _topology(channels, dies_per_channel, planes=2):
    return SsdTopology(
        channels=channels,
        dies_per_channel=dies_per_channel,
        geometry=NandGeometry(blocks=4, pages_per_block=8, planes=planes),
    )


def _session(topology, pipeline=None):
    """A fresh session; closed batches drain through its ``execute``."""
    return SsdSession(ssd=SsdDevice(topology, seed=0, pipeline=pipeline))


def _random_commands(rng, count, dies):
    """Mixed random command list; tags are submission order."""
    commands = []
    for tag in range(count):
        die = int(rng.integers(dies))
        plane = int(rng.integers(2))
        kind = (CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE)[
            int(rng.integers(3))
        ]
        die_s = float(rng.uniform(20e-6, 600e-6))
        transfer_s = float(rng.uniform(5e-6, 20e-6))
        ecc_s = float(rng.uniform(20e-6, 160e-6))
        hold_s = ecc_s * float(rng.uniform(0.3, 1.0))
        if kind is CommandKind.READ:
            commands.append(DieCommand.from_phases(
                kind, die, tag,
                NandTimingModel.read_phases(die_s, transfer_s, ecc_s, hold_s),
                plane=plane,
            ))
        elif kind is CommandKind.PROGRAM:
            commands.append(DieCommand.from_phases(
                kind, die, tag,
                NandTimingModel.program_phases(die_s, transfer_s, ecc_s, hold_s),
                plane=plane,
            ))
        else:
            commands.append(DieCommand.from_phases(
                kind, die, tag, NandTimingModel.erase_phases(die_s),
                plane=plane,
            ))
    return commands


def _reads(count, dies, sense=100e-6, transfer=10e-6, decode=100e-6,
           hold=60e-6, cache_busy=0.0):
    return [
        DieCommand.from_phases(
            CommandKind.READ,
            dies[i % len(dies)],
            i,
            NandTimingModel.read_phases(sense, transfer, decode, hold),
            cache_busy_s=cache_busy,
        )
        for i in range(count)
    ]


def _programs(count, plane_of, program=600e-6, transfer=10e-6,
              encode=50e-6, hold=40e-6, die=0):
    return [
        DieCommand.from_phases(
            CommandKind.PROGRAM,
            die,
            i,
            NandTimingModel.program_phases(program, transfer, encode, hold),
            plane=plane_of(i),
        )
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# PR 3 equivalence (the refactor's safety net)
# ---------------------------------------------------------------------------


class TestPr3Equivalence:
    @pytest.mark.parametrize("channels,dies_per_channel", [
        (1, 1), (1, 4), (2, 2), (4, 1), (2, 4),
    ])
    @pytest.mark.parametrize("queue_depth", [None, 1, 3, 8])
    def test_serial_config_matches_pr3_exactly(
        self, channels, dies_per_channel, queue_depth
    ):
        topology = _topology(channels, dies_per_channel)
        rng = np.random.default_rng(channels * 100 + dies_per_channel)
        commands = _random_commands(rng, 40, topology.dies)
        reference, ref_makespan = Pr3Scheduler(topology).run(
            commands, queue_depth
        )
        result = _session(topology, PipelineConfig.serial()).execute(
            commands, queue_depth
        )
        assert [
            (c.tag, c.admit_s, c.done_s) for c in result.completions
        ] == reference
        assert result.makespan_s == ref_makespan

    def test_serial_mode_ignores_planes(self):
        # Same commands on different planes: serial config serialises on
        # the die anyway (the single-page-buffer hazard).
        topology = _topology(1, 1)
        spread = _programs(4, lambda i: i % 2)
        stacked = _programs(4, lambda i: 0)
        session = _session(topology)
        assert session.execute(spread).makespan_s == pytest.approx(
            session.execute(stacked).makespan_s
        )


# ---------------------------------------------------------------------------
# Cache reads
# ---------------------------------------------------------------------------


class TestCacheRead:
    def test_sense_overlaps_transfer(self):
        # Double-buffered: makespan = first sense + N x channel section
        # when the channel section dominates the sense.
        session = _session(
            _topology(1, 1), PipelineConfig(cache_read=True)
        )
        result = session.execute(_reads(4, [0], sense=100e-6))
        assert result.makespan_s == pytest.approx(100e-6 + 4 * 110e-6)

    def test_matches_pipelined_fsm_recurrence(self):
        rng = np.random.default_rng(3)
        stages = [
            (float(rng.uniform(50e-6, 150e-6)),
             float(rng.uniform(50e-6, 150e-6)))
            for _ in range(12)
        ]
        commands = [
            DieCommand.from_phases(
                CommandKind.READ, 0, i,
                NandTimingModel.read_phases(a, b, 0.0),
            )
            for i, (a, b) in enumerate(stages)
        ]
        session = _session(
            _topology(1, 1), PipelineConfig(cache_read=True)
        )
        result = session.execute(commands)
        assert result.makespan_s == pytest.approx(pipeline_elapsed_s(stages))

    def test_cache_busy_charged_on_handoff(self):
        plain = _session(
            _topology(1, 1), PipelineConfig(cache_read=True)
        ).execute(_reads(4, [0]))
        with_busy = _session(
            _topology(1, 1), PipelineConfig(cache_read=True)
        ).execute(_reads(4, [0], cache_busy=3e-6))
        assert with_busy.makespan_s > plain.makespan_s

    def test_serial_mode_unaffected_by_cache_fields(self):
        session = _session(_topology(1, 1))
        result = session.execute(_reads(4, [0], cache_busy=3e-6))
        assert result.makespan_s == pytest.approx(4 * 210e-6)


# ---------------------------------------------------------------------------
# Multi-plane
# ---------------------------------------------------------------------------


class TestMultiPlane:
    def test_programs_overlap_across_planes(self):
        config = PipelineConfig(multi_plane=True)
        alternating = _session(_topology(1, 1), config).execute(
            _programs(4, lambda i: i % 2)
        )
        stacked = _session(_topology(1, 1), config).execute(
            _programs(4, lambda i: 0)
        )
        serial = _session(_topology(1, 1)).execute(
            _programs(4, lambda i: i % 2)
        )
        assert stacked.makespan_s == pytest.approx(serial.makespan_s)
        # Two planes halve the array-bound section of the makespan.
        assert alternating.makespan_s < 0.6 * serial.makespan_s

    def test_reads_overlap_sensing_across_planes(self):
        config = PipelineConfig(multi_plane=True)
        commands = [
            DieCommand.from_phases(
                CommandKind.READ, 0, i,
                NandTimingModel.read_phases(100e-6, 10e-6, 40e-6),
                plane=i % 2,
            )
            for i in range(6)
        ]
        overlapped = _session(_topology(1, 1), config).execute(commands)
        serial = _session(_topology(1, 1)).execute(commands)
        assert overlapped.makespan_s < serial.makespan_s

    def test_die_busy_accounting_covers_both_planes(self):
        config = PipelineConfig(multi_plane=True)
        result = _session(_topology(1, 1), config).execute(
            _programs(4, lambda i: i % 2)
        )
        assert result.die_busy_s[0] == pytest.approx(4 * 600e-6)


# ---------------------------------------------------------------------------
# Pipelined ECC
# ---------------------------------------------------------------------------


class TestPipelinedEcc:
    def test_engine_interval_sets_the_channel_ceiling(self):
        # 8 reads over 4 dies on one channel: the serial fused section is
        # transfer+decode per page; pipelined, the bus holds only the
        # transfer and the engine accepts a page every hold interval.
        topology = _topology(1, 4)
        commands = _reads(8, [0, 1, 2, 3])
        serial = _session(topology).execute(commands)
        pipelined = _session(
            topology, PipelineConfig(cache_read=True, pipelined_ecc=True)
        ).execute(commands)
        assert serial.makespan_s == pytest.approx(8 * 110e-6 + 100e-6)
        # Steady state: one page per 60 us engine interval, after the
        # first sense; the last page pays its decode drain + transfer.
        assert pipelined.makespan_s == pytest.approx(
            100e-6 + 8 * 60e-6 + 40e-6 + 10e-6
        )

    def test_ecc_busy_accounted_separately(self):
        topology = _topology(1, 2)
        result = _session(
            topology, PipelineConfig(pipelined_ecc=True)
        ).execute(_reads(6, [0, 1]))
        assert result.channel_busy_s[0] == pytest.approx(6 * 10e-6)
        assert result.ecc_busy_s[0] == pytest.approx(6 * 60e-6)
        serial = _session(topology).execute(_reads(6, [0, 1]))
        assert serial.channel_busy_s[0] == pytest.approx(6 * 110e-6)
        assert serial.ecc_busy_s[0] == 0.0

    def test_encode_pipelines_on_writes(self):
        topology = _topology(1, 4)
        programs = [
            DieCommand.from_phases(
                CommandKind.PROGRAM, die, die,
                NandTimingModel.program_phases(600e-6, 10e-6, 50e-6, 40e-6),
            )
            for die in range(4)
        ]
        serial = _session(topology).execute(programs)
        pipelined = _session(
            topology, PipelineConfig(pipelined_ecc=True)
        ).execute(programs)
        # Serial: 4 fused 60 us bus sections + the last 600 us program.
        assert serial.makespan_s == pytest.approx(4 * 60e-6 + 600e-6)
        assert pipelined.makespan_s < serial.makespan_s


# ---------------------------------------------------------------------------
# Determinism + validation
# ---------------------------------------------------------------------------


class TestDeterminismAndValidation:
    @pytest.mark.parametrize("config", [
        PipelineConfig(cache_read=True),
        PipelineConfig(multi_plane=True),
        PipelineConfig(pipelined_ecc=True),
        PipelineConfig.full(),
    ])
    def test_same_inputs_same_timeline(self, config):
        topology = _topology(2, 2)
        rng = np.random.default_rng(23)
        commands = _random_commands(rng, 48, topology.dies)
        session = _session(topology, config)
        first = session.execute(commands, queue_depth=6)
        second = session.execute(commands, queue_depth=6)
        assert first.completion_order() == second.completion_order()
        assert first.makespan_s == second.makespan_s
        assert [c.done_s for c in first.completions] == [
            c.done_s for c in second.completions
        ]

    @pytest.mark.parametrize("config", [
        PipelineConfig.serial(), PipelineConfig.full(),
    ])
    def test_every_command_completes_once(self, config):
        topology = _topology(2, 4)
        rng = np.random.default_rng(5)
        commands = _random_commands(rng, 64, topology.dies)
        result = _session(topology, config).execute(
            commands, queue_depth=5
        )
        assert sorted(result.completion_order()) == list(range(64))

    def test_pipelining_never_hurts_makespan(self):
        topology = _topology(1, 4)
        rng = np.random.default_rng(41)
        commands = _random_commands(rng, 40, topology.dies)
        serial = _session(topology).execute(commands).makespan_s
        full = _session(
            topology, PipelineConfig(multi_plane=True, pipelined_ecc=True)
        ).execute(commands).makespan_s
        assert full <= serial + 1e-12

    def test_duplicate_tags_rejected(self):
        session = _session(_topology(1, 1))
        phases = NandTimingModel.read_phases(10e-6, 10e-6)
        duplicate = [
            DieCommand(kind=CommandKind.READ, die=0, tag=4, phases=phases),
            DieCommand(kind=CommandKind.READ, die=0, tag=4, phases=phases),
        ]
        with pytest.raises(SimulationError, match="duplicate command tag"):
            session.execute(duplicate)

    def test_invalid_phase_fields_rejected(self):
        phases = NandTimingModel.read_phases(1e-6, 0.0)
        with pytest.raises(SimulationError):
            DieCommand(kind=CommandKind.READ, die=0, tag=0,
                       phases=phases, plane=-1)
        with pytest.raises(SimulationError):
            DieCommand(kind=CommandKind.READ, die=0, tag=0,
                       phases=phases, cache_busy_s=-1e-6)
        with pytest.raises(SimulationError):
            CommandPhase(PhaseResource.ECC, 10e-6, hold_s=20e-6)

    def test_describe_labels(self):
        assert PipelineConfig.serial().describe() == "serial"
        assert PipelineConfig(cache_read=True).describe() == "cache"
        assert PipelineConfig.full().describe() == "cache+mplane+ecc"
