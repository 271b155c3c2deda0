"""Discrete-event engine tests, driven through host frames.

The engine runs no event itself: a scheduler core attaches the handler
that runs every event, and :meth:`SchedulerCore.spawn` starts a host
frame — an iterator of delays — on the engine's clock.
"""

import re

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimEngine
from repro.ssd.scheduler import SchedulerCore
from repro.ssd.topology import SsdTopology


def _core(engine: SimEngine) -> SchedulerCore:
    """A scheduler core (1 channel x 1 die) to run host frames on."""
    return SchedulerCore(engine, SsdTopology(channels=1, dies_per_channel=1))


#: Host-frame delays: (value, whether a host frame may yield it).
DELAYS = {
    "negative": (-1.0, False),
    "none": (None, False),
    "object": (object(), False),
    "text": ("1.0", False),
    "nan": (float("nan"), False),
    "numpy-nan": (np.float64("nan"), False),
    "int": (2, True),
    "numpy-int": (np.int64(2), True),
    "numpy-float": (np.float64(2.0), True),
}


class TestEngine:
    def test_single_process_advances_clock(self):
        log = []

        def process():
            log.append("a")
            yield 5.0
            log.append("b")
            yield 2.0
            log.append("c")

        engine = SimEngine()
        _core(engine).spawn(process())
        final = engine.run()
        assert log == ["a", "b", "c"]
        assert final == pytest.approx(7.0)

    def test_two_processes_interleave(self):
        log = []

        def make(name, delay):
            def process():
                for i in range(3):
                    log.append((name, i))
                    yield delay
            return process()

        engine = SimEngine()
        core = _core(engine)
        core.spawn(make("fast", 1.0))
        core.spawn(make("slow", 2.5))
        engine.run()
        # fast's second step (t=1) precedes slow's second step (t=2.5).
        assert log.index(("fast", 1)) < log.index(("slow", 1))

    def test_run_until_bounds_virtual_time(self):
        def process():
            while True:
                yield 1.0

        engine = SimEngine()
        _core(engine).spawn(process())
        final = engine.run(until_s=10.0)
        assert final == pytest.approx(10.0)
        assert engine.events_processed <= 11
        assert not engine.idle  # the next step stays scheduled

    @pytest.mark.parametrize("horizon", (3.0, float("nan")))
    def test_horizon_behind_the_clock_rejected(self, horizon):
        steps = []

        def process():
            yield 10.0
            steps.append(engine.now_s)

        engine = SimEngine()
        _core(engine).spawn(process())
        assert engine.run(until_s=5.0) == 5.0
        with pytest.raises(SimulationError, match=r"until_s=(3\.0|nan)"):
            engine.run(until_s=horizon)
        assert engine.now_s == 5.0
        assert len(engine._queue) == 1 and steps == []
        # The step due at 10.0 is still scheduled and runs there.
        assert engine.run() == 10.0
        assert steps == [10.0]

    def test_horizon_is_inclusive(self):
        # A step due exactly at the horizon runs, whether its frame
        # reruns inline (alone) or its event is popped behind another's.
        log = []

        def ticker(name, delay):
            while True:
                log.append((name, engine.now_s))
                yield delay

        engine = SimEngine()
        core = _core(engine)
        core.spawn(ticker("a", 1.0))
        assert engine.run(until_s=3.0) == 3.0
        assert log == [("a", 0.0), ("a", 1.0), ("a", 2.0), ("a", 3.0)]
        core.spawn(ticker("b", 2.0))
        assert engine.run(until_s=5.0) == 5.0
        assert log[4:] == [("b", 3.0), ("a", 4.0), ("b", 5.0), ("a", 5.0)]
        assert engine.events_processed == 8

    def test_run_stopped_at_horizon_resumes(self):
        # Splitting a run at a horizon loses and repeats no step, and
        # the resumed steps keep the unsplit run's float arithmetic.
        def ticker(engine, done):
            for _ in range(30):
                yield 1e-6
            done.append(engine.now_s)

        whole, whole_done = SimEngine(), []
        _core(whole).spawn(ticker(whole, whole_done))
        whole.run()

        split, split_done = SimEngine(), []
        _core(split).spawn(ticker(split, split_done))
        assert split.run(until_s=10.5e-6) == 10.5e-6
        assert not split_done and not split.idle
        split.run()
        assert split_done == whole_done
        assert split_done[0] == pytest.approx(30e-6)
        assert split.events_processed == whole.events_processed == 31

    def test_events_processed_accumulates_across_runs(self):
        def tick(n):
            for _ in range(n):
                yield 1.0

        engine = SimEngine()
        core = _core(engine)
        for runs in range(1, 5):
            core.spawn(tick(59))  # 59 delays, then the exhausting step
            engine.run()
            assert engine.events_processed == runs * 60

    def test_spawn_starts_at_the_current_instant(self):
        log = []
        engine = SimEngine()
        core = _core(engine)

        def child(name):
            log.append((name, engine.now_s))
            yield 1.0
            log.append((name, engine.now_s))

        def parent():
            yield 2.0
            core.spawn(child("nested"))  # from inside a host step
            log.append(("parent", engine.now_s))

        core.spawn(parent())
        assert engine.run() == 3.0
        core.spawn(child("after"))  # on an idle engine
        assert engine.run() == 4.0
        assert log == [
            ("parent", 2.0), ("nested", 2.0), ("nested", 3.0),
            ("after", 3.0), ("after", 4.0),
        ]

    def test_failed_host_step_leaves_the_engine_resumable(self):
        # A step that raises stops the run with the engine state written
        # back; the other frames stay scheduled and a later run ends them.
        done = []
        engine = SimEngine()
        core = _core(engine)

        def failing():
            yield 1.0
            raise ValueError("host step failed")

        def ticker():
            for _ in range(3):
                yield 1.0
            done.append(engine.now_s)

        core.spawn(failing())
        core.spawn(ticker())
        with pytest.raises(ValueError, match="host step failed"):
            engine.run()
        assert engine.now_s == 1.0
        assert not engine.idle
        assert engine.run() == 3.0
        assert done == [3.0]

    def test_deterministic_tie_breaking(self):
        log = []

        def make(name):
            def process():
                log.append(name)
                yield 1.0
                log.append(name)
            return process()

        engine = SimEngine()
        core = _core(engine)
        core.spawn(make("first"))
        core.spawn(make("second"))
        engine.run()
        assert log == ["first", "second", "first", "second"]

    @pytest.mark.parametrize("name", sorted(DELAYS))
    def test_host_frame_delays(self, name):
        # A numpy scalar in the clock would leak into every timestamp
        # and change its repr, so valid delays leave a Python float.
        delay, valid = DELAYS[name]

        def process():
            yield delay

        engine = SimEngine()
        _core(engine).spawn(process())
        if valid:
            assert engine.run() == 2.0
            assert type(engine.now_s) is float
        else:
            named = "invalid delay " + re.escape(repr(delay))
            with pytest.raises(SimulationError, match=named):
                engine.run()

    def test_nan_schedule_time_rejected(self):
        engine = SimEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), [0])
        assert engine.idle


class TestRebase:
    def test_rebase_resets_idle_clock(self):
        def tick():
            yield 3.5

        engine = SimEngine()
        core = _core(engine)
        core.spawn(tick())
        assert engine.run() == 3.5
        assert engine.idle
        engine.rebase()
        assert engine.now_s == 0.0
        core.spawn(tick())
        assert engine.run() == 3.5  # fresh-engine float arithmetic

    def test_rebase_with_pending_events_rejected(self):
        engine = SimEngine()
        _core(engine).spawn(iter(()))
        assert not engine.idle
        with pytest.raises(SimulationError, match="rebase"):
            engine.rebase()
