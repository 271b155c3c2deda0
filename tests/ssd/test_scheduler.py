"""DES command scheduler tests: arbitration, overlap, determinism.

Every batch drains through a fresh session's
:meth:`~repro.ssd.session.SsdSession.execute`.
"""

import pytest

from repro.errors import SimulationError
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTimingModel
from repro.ssd import SsdDevice, SsdSession
from repro.ssd.scheduler import CommandKind, DieCommand
from repro.ssd.topology import SsdTopology


def _reads(count: int, dies: list[int], sense_s=100e-6, transfer_s=50e-6):
    phases = NandTimingModel.read_phases(sense_s, transfer_s)
    return [
        DieCommand(
            kind=CommandKind.READ,
            die=dies[i % len(dies)],
            tag=i,
            phases=phases,
        )
        for i in range(count)
    ]


def _topology(channels: int, dies_per_channel: int) -> SsdTopology:
    return SsdTopology(
        channels=channels,
        dies_per_channel=dies_per_channel,
        geometry=NandGeometry(blocks=2, pages_per_block=8),
    )


def _session(topology: SsdTopology) -> SsdSession:
    """A fresh session; closed batches drain through its ``execute``."""
    return SsdSession(ssd=SsdDevice(topology, seed=0))


class TestSingleDie:
    def test_serialises_phases(self):
        session = _session(_topology(1, 1))
        result = session.execute(_reads(4, [0]))
        # One die, one bus: sense and transfer never overlap.
        assert result.makespan_s == pytest.approx(4 * 150e-6)
        assert result.completion_order() == [0, 1, 2, 3]
        assert result.die_busy_s[0] == pytest.approx(4 * 100e-6)
        assert result.channel_busy_s[0] == pytest.approx(4 * 50e-6)

    def test_program_order_is_bus_then_die(self):
        session = _session(_topology(1, 1))
        command = DieCommand(
            kind=CommandKind.PROGRAM, die=0, tag=0,
            phases=NandTimingModel.program_phases(600e-6, 60e-6),
        )
        result = session.execute([command])
        assert result.makespan_s == pytest.approx(660e-6)

    def test_erase_skips_the_bus(self):
        session = _session(_topology(1, 1))
        command = DieCommand(
            kind=CommandKind.ERASE, die=0, tag=0,
            phases=NandTimingModel.erase_phases(2.5e-3),
        )
        result = session.execute([command])
        assert result.makespan_s == pytest.approx(2.5e-3)
        assert result.channel_busy_s[0] == 0.0


class TestParallelism:
    def test_dies_on_separate_channels_scale_linearly(self):
        serial = _session(_topology(1, 1)).execute(_reads(8, [0]))
        spread = _session(_topology(4, 1)).execute(
            _reads(8, [0, 1, 2, 3])
        )
        assert spread.makespan_s == pytest.approx(serial.makespan_s / 4)

    def test_dies_behind_one_bus_saturate_the_channel(self):
        # Sense overlaps, but every transfer serialises on the bus: the
        # makespan floor is the total bus time plus the first sense.
        result = _session(_topology(1, 4)).execute(
            _reads(8, [0, 1, 2, 3])
        )
        total_bus = 8 * 50e-6
        assert result.makespan_s == pytest.approx(total_bus + 100e-6)

    def test_channel_utilisation_reported(self):
        result = _session(_topology(1, 2)).execute(_reads(6, [0, 1]))
        (utilisation,) = result.channel_utilisation()
        assert 0.0 < utilisation <= 1.0

    def test_programs_overlap_across_dies(self):
        programs = [
            DieCommand(
                kind=CommandKind.PROGRAM, die=die, tag=die,
                phases=NandTimingModel.program_phases(600e-6, 60e-6),
            )
            for die in range(4)
        ]
        result = _session(_topology(1, 4)).execute(programs)
        # Transfers serialise (4 x 60us); programs run concurrently.
        assert result.makespan_s == pytest.approx(4 * 60e-6 + 600e-6)


class TestQueueDepth:
    def test_queue_depth_one_serialises_everything(self):
        result = _session(_topology(4, 1)).execute(
            _reads(8, [0, 1, 2, 3]), queue_depth=1
        )
        assert result.makespan_s == pytest.approx(8 * 150e-6)

    def test_deeper_queue_is_never_slower(self):
        session = _session(_topology(2, 2))
        commands = _reads(12, [0, 1, 2, 3])
        makespans = [
            session.execute(commands, queue_depth=depth).makespan_s
            for depth in (1, 2, 4, 8, None)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(makespans, makespans[1:]))

    def test_invalid_queue_depth_rejected(self):
        with pytest.raises(SimulationError):
            _session(_topology(1, 1)).execute(_reads(1, [0]), queue_depth=0)


class TestDeterminism:
    def test_same_inputs_same_timeline(self):
        session = _session(_topology(2, 2))
        commands = _reads(16, [0, 1, 2, 3], sense_s=75e-6, transfer_s=170e-6)
        first = session.execute(commands, queue_depth=4)
        second = session.execute(commands, queue_depth=4)
        assert first.completion_order() == second.completion_order()
        assert first.makespan_s == second.makespan_s
        assert [c.done_s for c in first.completions] == [
            c.done_s for c in second.completions
        ]

    def test_every_command_completes_once(self):
        result = _session(_topology(2, 4)).execute(
            _reads(32, list(range(8))), queue_depth=5
        )
        assert sorted(result.completion_order()) == list(range(32))

    def test_latencies_include_queueing(self):
        result = _session(_topology(1, 1)).execute(
            _reads(3, [0]), queue_depth=3
        )
        latencies = result.latency_by_tag()
        # All admitted at t=0 on one die: each waits behind the previous.
        assert latencies[0] == pytest.approx(150e-6)
        assert latencies[1] == pytest.approx(300e-6)
        assert latencies[2] == pytest.approx(450e-6)


class TestValidation:
    def test_die_outside_topology_rejected(self):
        with pytest.raises(SimulationError):
            _session(_topology(1, 1)).execute(_reads(1, [3]))

    def test_negative_phase_rejected(self):
        with pytest.raises(SimulationError):
            DieCommand(
                kind=CommandKind.READ, die=0, tag=0,
                phases=NandTimingModel.read_phases(-1.0, 0.0),
            )

    def test_nan_cache_busy_rejected(self):
        # NaN phase durations are CommandPhase cases (test_timing.py).
        with pytest.raises(SimulationError):
            DieCommand(
                kind=CommandKind.READ, die=0, tag=0,
                phases=NandTimingModel.read_phases(1e-6, 0.0),
                cache_busy_s=float("nan"),
            )

    def test_empty_batch(self):
        result = _session(_topology(2, 2)).execute([])
        assert result.makespan_s == 0.0
        assert result.completions == []
