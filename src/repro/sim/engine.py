"""Discrete-event simulation engine: one event list, one clock.

The engine keeps the time base of a simulation: the event list, the
clock, the sequence counter that breaks timestamp ties and a count of
parked frames.  It interprets no event itself.  Every event is a
``(time_s, sequence, frame)`` tuple whose frame is a plain ``list`` with
an integer program counter in slot 0, and the component that owns the
frames — the SSD scheduler core — registers the one handler that runs
them via :meth:`SimEngine.attach_flat`.

Event list
----------

Events live on one binary heap (:class:`HeapEventList`), ordered
lexicographically; ``sequence`` comes from a monotone counter, so the
total order is *time-major, FIFO within a timestamp*.  Every run is
therefore a deterministic function of its inputs: the scheduler
timelines pinned in ``tests/ssd/test_dispatch_golden.py`` depend on
exactly this order.

Running
-------

:meth:`SimEngine.run` pops the first event and hands it to the handler,
which *bursts*: it keeps popping events from the shared list with its
locals bound until the list drains or the next event lies beyond the
time horizon, and hands that event back.  A run is one handler call.
Work that is not a scheduler command — the open-loop host that submits
I/O at trace timestamps — runs as a *host frame* on the same list (see
:meth:`~repro.ssd.scheduler.SchedulerCore.spawn`), so every event of a
run takes its place in the one global ``(time_s, sequence)`` order.
:meth:`SimEngine.schedule_at` schedules a frame at an absolute time.

Synchronisation lives in the frames too: a frame that waits (for a bus,
an ECC engine, a cache register or room in an admission window) is
*parked* — it has no scheduled event — until another frame's turn
schedules it again.  The handler keeps the engine's park counter
(``SimEngine._parked``) equal to the number of frames parked that way;
a frame parked idle on an empty command queue is not counted.  If the
event list drains while the counter is nonzero, nothing is left to wake
those frames: :meth:`SimEngine.run` raises a deadlock
:class:`~repro.errors.SimulationError` naming how many are parked.

A *persistent* session (one that outlives any one batch of work, like
the SSD session) keeps its engine between runs.
:meth:`SimEngine.rebase` resets the clock of an *idle* engine to zero.
Parked frames carry no scheduled times, so an idle engine's clock is
an arbitrary offset; rebasing lets a resident session replay a closed
batch with the exact float arithmetic of a fresh engine
(``t0 + a + b - t0`` and ``a + b`` differ in floating point).
"""

from __future__ import annotations

import heapq
from functools import partial

from repro.errors import SimulationError
from repro.sim.sanitizer import DesSanitizer

#: Process-wide default for ``SimEngine(sanitize=None)``.  Flipped to
#: True by ``pytest --sanitize`` (root conftest) so every engine a test
#: constructs comes up armed without threading a flag through helpers.
SANITIZE_DEFAULT = False


class HeapEventList:
    """The event list: one global binary heap of event tuples.

    ``push``/``pop`` are per-instance `functools.partial` bindings of
    the C ``heappush``/``heappop`` with the heap pre-bound, so the burst
    handler calls straight into C with no Python wrapper frame.  ``pop``
    on an empty list raises ``IndexError`` (the handler's drain
    sentinel).
    """

    __slots__ = ("_heap", "push", "pop")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, list]] = []
        self.push = partial(heapq.heappush, self._heap)
        self.pop = partial(heapq.heappop, self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimEngine:
    """Single clock over one :class:`HeapEventList`.

    ``sanitize`` arms a :class:`~repro.sim.sanitizer.DesSanitizer` on
    :attr:`sanitizer` (``None`` = follow :data:`SANITIZE_DEFAULT`).
    The handler of an armed engine validates event-list time
    monotonicity, and components that find ``engine.sanitizer``
    non-None (the SSD scheduler core) arm their own lock/drain/phase
    checks.  Armed runs are bit-identical to disarmed ones — the
    sanitizer only observes.
    """

    __slots__ = (
        "_queue", "_seq", "now_s", "events_processed", "_parked", "_flat",
        "sanitizer",
    )

    def __init__(self, sanitize: bool | None = None) -> None:
        self._queue = HeapEventList()
        self._seq = 0
        self.now_s = 0.0
        self.events_processed = 0
        self._parked = 0
        self._flat = None
        if sanitize is None:
            sanitize = SANITIZE_DEFAULT
        self.sanitizer = DesSanitizer() if sanitize else None

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_at(self, time_s: float, frame: list) -> None:
        """Schedule a frame at an absolute time.

        No delay arithmetic and no validation beyond monotonicity — the
        event list itself orders arbitrarily many frames pushed back to
        back.
        """
        if not time_s >= self.now_s:  # NaN included
            raise SimulationError("cannot schedule into the past")
        self._queue.push((time_s, self._next_seq(), frame))

    def attach_flat(self, handler) -> None:
        """Register the handler that runs every event (one per engine).

        ``handler(event, until_s)`` receives the first popped event of a
        run; it must process that event and every later one up to the
        horizon ``until_s`` (``None``: none), and return
        ``(leftover_event_or_None, n_processed)``.  A leftover event is
        one the handler popped but must not process because it lies
        beyond ``until_s``; ``None`` means the event list drained.
        """
        if self._flat is not None:
            raise SimulationError(
                "a flat dispatch handler is already attached to this engine"
            )
        self._flat = handler

    @property
    def idle(self) -> bool:
        """True when no events are scheduled (parked frames may remain)."""
        return not self._queue

    def rebase(self) -> None:
        """Reset the clock of an idle engine to zero.

        Only legal with no scheduled events — parked frames carry no
        times, so the reset cannot reorder anything.  Lets a resident
        session reproduce a fresh engine's float arithmetic exactly when
        it starts a new closed batch.
        """
        if self._queue:
            raise SimulationError(
                "cannot rebase the clock with scheduled events pending"
            )
        self.now_s = 0.0

    def run(self, until_s: float | None = None) -> float:
        """Drain the event list; returns the final simulation time.

        ``until_s`` bounds virtual time: events beyond it stay scheduled
        and the clock stops at ``until_s``.  Stopping at a horizon behind
        the clock (or at NaN) would move it backwards, so with an event
        pending such a horizon raises :class:`SimulationError` and
        leaves the clock and the event as they were; with nothing
        scheduled the run returns the clock unchanged.
        :attr:`events_processed` accumulates over the engine's lifetime.
        Draining the event list with frames still parked raises a
        deadlock :class:`SimulationError` naming how many.
        """
        queue = self._queue
        try:
            event = queue.pop()
        except IndexError:
            event = None
        if event is not None:
            if until_s is None or event[0] <= until_s:
                event, processed = self._flat(event, until_s)
                self.events_processed += processed
            if event is not None:
                # Beyond the horizon: back on the list, sequence intact.
                queue.push(event)
                if not until_s >= self.now_s:  # NaN included
                    raise SimulationError(
                        f"run(until_s={until_s!r}) lies behind the clock "
                        f"at {self.now_s!r}"
                    )
                self.now_s = until_s
                return until_s
        if self._parked:
            raise SimulationError(
                f"deadlock: {self._parked} frame(s) parked with an empty "
                "event queue"
            )
        return self.now_s
