"""Discrete-event engine tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimEngine


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
        engine.spawn(process())
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
        engine.spawn(make("fast", 1.0))
        engine.spawn(make("slow", 2.5))
        engine.run()
        # fast's second step (t=1) precedes slow's second step (t=2.5).
        assert log.index(("fast", 1)) < log.index(("slow", 1))

    def test_run_until_bounds_virtual_time(self):
        def process():
            while True:
                yield 1.0

        engine = SimEngine()
        engine.spawn(process())
        final = engine.run(until_s=10.0, max_events=1000)
        assert final == pytest.approx(10.0)
        assert engine.events_processed <= 11

    def test_deterministic_tie_breaking(self):
        log = []

        def make(name):
            def process():
                log.append(name)
                yield 1.0
                log.append(name)
            return process()

        engine = SimEngine()
        engine.spawn(make("first"))
        engine.spawn(make("second"))
        engine.run()
        assert log == ["first", "second", "first", "second"]

    def test_runaway_guard(self):
        def process():
            while True:
                yield 0.0

        engine = SimEngine()
        engine.spawn(process())
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_invalid_yield(self):
        def process():
            yield -1.0

        engine = SimEngine()
        engine.spawn(process())
        with pytest.raises(SimulationError):
            engine.run()

    @pytest.mark.parametrize("value", (None, object(), "1.0"))
    def test_non_numeric_yield_rejected(self, value):
        # A process yields delays only; it has nothing else to park on.
        def process():
            yield value

        engine = SimEngine()
        engine.spawn(process())
        with pytest.raises(SimulationError, match="invalid delay"):
            engine.run()

    def test_negative_spawn_delay(self):
        engine = SimEngine()
        with pytest.raises(SimulationError):
            engine.spawn(iter(()), delay_s=-1.0)

    @pytest.mark.parametrize("nan", (float("nan"), np.float64("nan")))
    def test_nan_yield_rejected(self, nan):
        def process():
            yield nan

        engine = SimEngine()
        engine.spawn(process())
        with pytest.raises(SimulationError, match="invalid delay"):
            engine.run()

    def test_nan_spawn_delay_rejected(self):
        engine = SimEngine()
        with pytest.raises(SimulationError):
            engine.spawn(iter(()), delay_s=float("nan"))
        assert engine.idle

    def test_nan_schedule_time_rejected(self):
        engine = SimEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), [0])
        assert engine.idle


class TestRebaseAndRunGuard:
    def test_rebase_resets_idle_clock(self):
        def tick():
            yield 3.5

        engine = SimEngine()
        engine.spawn(tick())
        assert engine.run() == 3.5
        assert engine.idle
        engine.rebase()
        assert engine.now_s == 0.0
        engine.spawn(tick())
        assert engine.run() == 3.5  # fresh-engine float arithmetic

    def test_rebase_with_pending_events_rejected(self):
        engine = SimEngine()
        engine.spawn(iter([]), delay_s=1.0)
        assert not engine.idle
        with pytest.raises(SimulationError, match="rebase"):
            engine.rebase()

    def test_max_events_guard_is_per_run_not_lifetime(self):
        def tick(n):
            for _ in range(n):
                yield 1.0

        engine = SimEngine()
        for _ in range(4):  # 4 runs x 60 events: fine at max_events=100
            engine.spawn(tick(59))
            engine.run(max_events=100)
        assert engine.events_processed == 4 * 60
        engine.spawn(tick(150))
        with pytest.raises(SimulationError, match="exceeded"):
            engine.run(max_events=100)
