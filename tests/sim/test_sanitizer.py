"""Runtime DES sanitizer tests: injected violations and bit-exactness.

Two halves.  The violation half deliberately injects each breakage
class — backwards time, double release, leaked lock, leaked in-flight
accounting, negative phase, busy over-accumulation — against stub
objects or real scheduler cores and asserts the sanitizer raises
:class:`SanitizerError` *naming the offending resource, tag or
timestamp*.  The equivalence half proves that arming the sanitizer
changes no observable behaviour: armed and disarmed runs produce
byte-identical completion timelines (the golden digests in
``tests/ssd/test_dispatch_golden.py`` check the same across the whole
scheduler grid).
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTimingModel
from repro.sim import engine as engine_mod
from repro.sim.engine import SimEngine
from repro.sim.sanitizer import DesSanitizer, SanitizerError
from repro.ssd.scheduler import (
    CommandKind,
    DieCommand,
    PipelineConfig,
    SchedulerCore,
)
from repro.ssd.topology import SsdTopology


def _topology(channels: int = 2, dies_per_channel: int = 2) -> SsdTopology:
    return SsdTopology(
        channels=channels,
        dies_per_channel=dies_per_channel,
        geometry=NandGeometry(blocks=4, pages_per_block=16),
    )


def _mixed_batch(count: int = 24) -> list[DieCommand]:
    kinds = (CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE)
    plans = (
        NandTimingModel.read_phases(100e-6, 50e-6),
        NandTimingModel.program_phases(600e-6, 60e-6),
        NandTimingModel.erase_phases(2.5e-3),
    )
    commands = []
    for i in range(count):
        commands.append(DieCommand(
            kind=kinds[i % 3],
            die=i % 4,
            tag=i,
            phases=plans[i % 3],
        ))
    return commands


def _run(sanitize: bool, pipeline: PipelineConfig | None = None,
         queue_depth: int | None = 4):
    """One closed-batch run; returns (makespan, completions, sanitizer)."""
    engine = SimEngine(sanitize=sanitize)
    core = SchedulerCore(engine, _topology(), pipeline)
    core.submit_batch(_mixed_batch(), queue_depth)
    core.start()
    makespan = engine.run()
    if engine.sanitizer is not None:
        engine.sanitizer.check_drain(core, makespan)
    return makespan, core.completions, engine.sanitizer


# -- arming --------------------------------------------------------------------------


class TestArming:
    def test_default_is_disarmed(self, monkeypatch):
        # Pin the module default: under ``pytest --sanitize`` it is
        # flipped process-wide, which is exactly what this test is not
        # about.
        monkeypatch.setattr(engine_mod, "SANITIZE_DEFAULT", False)
        assert SimEngine().sanitizer is None

    def test_sanitize_true_arms(self):
        assert isinstance(SimEngine(sanitize=True).sanitizer, DesSanitizer)

    def test_module_default_arms_none(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "SANITIZE_DEFAULT", True)
        assert SimEngine().sanitizer is not None
        # Explicit False beats the process-wide default — the
        # equivalence tests below rely on this under ``pytest --sanitize``.
        assert SimEngine(sanitize=False).sanitizer is None

    def test_armed_run_performs_checks(self):
        _, _, sanitizer = _run(sanitize=True)
        assert sanitizer.checks > 0


# -- backwards time ------------------------------------------------------------------


def _host_frame_behind_clock(sanitize: bool) -> SimEngine:
    """An engine whose clock is already past its one host frame.

    A healthy event list can never produce this — pops are
    (time, seq)-ordered — so the state is corrupted by hand: the host
    frame is scheduled at 2.0, then the clock is moved to 5.0.
    """
    engine = SimEngine(sanitize=sanitize)
    core = SchedulerCore(engine, _topology())
    engine.now_s = 2.0

    def proc():
        yield 1.0

    core.spawn(proc())
    engine.now_s = 5.0
    return engine


class TestBackwardsTime:
    def test_event_behind_clock_names_both_timestamps(self):
        engine = _host_frame_behind_clock(sanitize=True)
        with pytest.raises(SanitizerError, match="backwards time") as exc:
            engine.run()
        assert "2.0" in str(exc.value)
        assert "5.0" in str(exc.value)

    def test_disarmed_engine_does_not_police_order(self):
        # The disarmed engine trusts its event list (zero-cost-off);
        # only the armed one pays for the monotonicity check.
        engine = _host_frame_behind_clock(sanitize=False)
        engine.run()  # no error


# -- lock discipline -----------------------------------------------------------------


class TestLockDiscipline:
    def test_release_of_a_free_bus_mid_run_names_it(self):
        # Free a held bus behind the core's back between two run()
        # calls: its release arm must catch the double release instead
        # of waking a second waiter.
        engine = SimEngine(sanitize=True)
        core = SchedulerCore(engine, _topology())
        core.submit_batch(_mixed_batch(), 4)
        core.start()
        engine.run(until_s=30e-6)  # programs hold their bus until 60 us
        held = [index for index, bus in enumerate(core._buses) if bus[0]]
        assert held
        core._buses[held[0]][0] = False
        with pytest.raises(
            SanitizerError, match=rf"double release of bus\[{held[0]}\]"
        ):
            engine.run()

    def test_flat_release_check_names_the_resource(self):
        # The flat dispatch core's release arms pass the live busy value;
        # a free lock at a release site is a double release.
        san = DesSanitizer()
        with pytest.raises(SanitizerError, match=r"double release of ecc\[1\]"):
            san.release_check(("ecc", 1), False)

    def test_flat_release_check_passes_when_held(self):
        san = DesSanitizer()
        san.release_check(("bus", 0), True)
        assert san.checks == 1


# -- phase sanity --------------------------------------------------------------------


class _StubPhase:
    def __init__(self, duration_s: float, occupancy_s: float | None = None):
        self.duration_s = duration_s
        self.occupancy_s = (
            duration_s if occupancy_s is None else occupancy_s
        )


class _StubCommand:
    """Minimal admission-hook target.

    ``CommandPhase.__post_init__`` (rightly) rejects negative durations
    at construction, so forging a broken phase plan needs a stand-in —
    the sanitizer only reads ``tag`` and ``phases``.
    """

    def __init__(self, tag: int, phases):
        self.tag = tag
        self.die = 0
        self.plane = 0
        self.phases = tuple(phases)


class TestPhaseSanity:
    def test_negative_duration_names_tag_and_index(self):
        command = _StubCommand(42, [_StubPhase(1e-4), _StubPhase(-5e-6)])
        with pytest.raises(SanitizerError, match="command tag 42") as exc:
            DesSanitizer().check_command(command)
        assert "phase 1" in str(exc.value)
        assert "negative duration" in str(exc.value)

    def test_occupancy_exceeding_duration(self):
        command = _StubCommand(7, [_StubPhase(1e-4, occupancy_s=2e-4)])
        with pytest.raises(SanitizerError, match="command tag 7") as exc:
            DesSanitizer().check_command(command)
        assert "occupancy" in str(exc.value)

    def test_clean_plan_passes(self):
        command = _StubCommand(0, [_StubPhase(1e-4, occupancy_s=5e-5)])
        DesSanitizer().check_command(command)

    def test_armed_enqueue_rejects_broken_plan(self):
        engine = SimEngine(sanitize=True)
        core = SchedulerCore(engine, _topology())
        with pytest.raises(SanitizerError, match="command tag 9"):
            core.enqueue(_StubCommand(9, [_StubPhase(-1e-6)]))


# -- drain audit ---------------------------------------------------------------------


class TestDrainAudit:
    def test_leaked_locks_named(self):
        engine = SimEngine(sanitize=True)
        core = SchedulerCore(engine, _topology())
        core._buses[1][0] = True
        core._eccs[0][0] = True
        core._caches[2][0][0] = 1
        with pytest.raises(
            SanitizerError, match=r"leaked lock\(s\) at drain"
        ) as exc:
            engine.sanitizer.check_drain(core)
        for name in ("bus[1]", "ecc[0]", "cache[2/0]"):
            assert name in str(exc.value)

    def test_in_flight_accounting_mismatch_named(self):
        engine = SimEngine(sanitize=True)
        core = SchedulerCore(engine, _topology())
        core._meta[13] = (0.0, None)
        with pytest.raises(
            SanitizerError, match="in-flight accounting mismatch"
        ) as exc:
            engine.sanitizer.check_drain(core)
        assert "count 0 vs 1" in str(exc.value)

    def test_busy_conservation_names_resource(self):
        engine = SimEngine(sanitize=True)
        core = SchedulerCore(engine, _topology())
        core.channel_busy_s[1] = 2.0
        with pytest.raises(
            SanitizerError, match="busy conservation violated"
        ) as exc:
            engine.sanitizer.check_drain(core, elapsed_s=1.0)
        assert "channel 1" in str(exc.value)

    def test_busy_within_float_tolerance_passes(self):
        engine = SimEngine(sanitize=True)
        core = SchedulerCore(engine, _topology())
        core.die_busy_s[0] = 1.0 + 1e-13
        engine.sanitizer.check_drain(core, elapsed_s=1.0)

    def test_quiescent_core_passes(self):
        engine = SimEngine(sanitize=True)
        core = SchedulerCore(engine, _topology())
        engine.sanitizer.check_drain(core, elapsed_s=0.0)


# -- bit-exactness of armed runs -----------------------------------------------------


PIPELINES = [
    pytest.param(None, id="default"),
    pytest.param(PipelineConfig.full(), id="cached"),
]


class TestArmedEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_armed_matches_disarmed_bit_exactly(self, pipeline):
        base_span, base_done, _ = _run(sanitize=False, pipeline=pipeline)
        span, done, sanitizer = _run(sanitize=True, pipeline=pipeline)
        # Exact float equality, not approx: the sanitizer only observes.
        assert span == base_span
        assert done == base_done
        assert sanitizer.checks > 0
