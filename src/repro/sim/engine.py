"""Generator-based discrete-event simulation engine.

Processes are Python generators that ``yield`` delays in seconds; the
engine interleaves them on a single virtual clock.  Small by design,
but a real DES: multiple concurrent processes, event ordering,
deterministic tie-breaking and a bounded run horizon.

Event list
----------

Events are plain ``(time_s, sequence, process)`` tuples on one binary
heap (:class:`HeapEventList`), ordered lexicographically; ``sequence``
comes from a monotone counter, so the total order is *time-major, FIFO
within a timestamp*.  Every run is therefore a deterministic function
of its inputs: the scheduler timelines pinned in
``tests/ssd/test_dispatch_golden.py`` depend on exactly this order.

Flat dispatch (coroutine-free processes)
----------------------------------------

Generators are the engine's general programming model, but the SSD
scheduler's steady state is a fixed per-command control flow — pure
interpretation overhead when run as coroutines.  The engine therefore
admits a second kind of process: a **flat frame**, any plain ``list``
scheduled as an event's process slot.  A component that owns flat
frames registers one handler via :meth:`SimEngine.attach_flat`; when the
run loop pops an event whose process is a list it hands the event to
that handler, which may *burst*: keep popping consecutive flat events
from the shared queue (locals bound, no per-event dispatch) until it
meets a generator event, the time horizon, or the drained queue, and
return the leftover event for the normal loop to process.  Flat frames
share the queue, the clock and the sequence counter with generator
processes, so their events interleave in exactly the global
``(time_s, sequence)`` order.  :meth:`SimEngine.schedule_at` is the
bulk entry point for scheduling frames at absolute times;
:meth:`SimEngine.run` remains the run-until-quiescent drain.

Synchronisation lives in the flat frames too: a frame that waits (for a
bus, an ECC engine, a cache register or room in an admission window) is
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
from typing import Generator

from repro.errors import SimulationError
from repro.sim.sanitizer import DesSanitizer

#: A simulation process: a generator yielding delays (seconds).
Process = Generator[float, None, None]

#: Process-wide default for ``SimEngine(sanitize=None)``.  Flipped to
#: True by ``pytest --sanitize`` (root conftest) so every engine a test
#: constructs comes up armed without threading a flag through helpers.
SANITIZE_DEFAULT = False


class HeapEventList:
    """The event list: one global binary heap of event tuples.

    ``push``/``pop`` are per-instance `functools.partial` bindings of
    the C ``heappush``/``heappop`` with the heap pre-bound, so the run
    loop calls straight into C with no Python wrapper frame.  ``pop``
    on an empty list raises ``IndexError`` (the run loop's drain
    sentinel).
    """

    __slots__ = ("_heap", "push", "pop")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Process]] = []
        self.push = partial(heapq.heappush, self._heap)
        self.pop = partial(heapq.heappop, self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimEngine:
    """Single-clock event loop over one :class:`HeapEventList`.

    ``sanitize`` arms a :class:`~repro.sim.sanitizer.DesSanitizer` on
    :attr:`sanitizer` (``None`` = follow :data:`SANITIZE_DEFAULT`).  An
    armed engine validates event-list time monotonicity, and components
    that find ``engine.sanitizer`` non-None (the SSD scheduler core)
    arm their own lock/drain/phase checks.  Armed runs are bit-identical
    to disarmed ones — the sanitizer only observes.
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

    def spawn(self, process: Process, delay_s: float = 0.0) -> None:
        """Register a process to start after ``delay_s``."""
        if not delay_s >= 0:  # NaN included
            raise SimulationError("delay must be non-negative")
        self._queue.push((self.now_s + delay_s, self._next_seq(), process))

    def schedule_at(self, time_s: float, process) -> None:
        """Schedule a process (or flat frame) at an absolute time.

        The bulk entry point for flat dispatch cores: no delay
        arithmetic, no validation beyond monotonicity — the event list
        itself orders arbitrarily many frames pushed back to back.
        """
        if not time_s >= self.now_s:  # NaN included
            raise SimulationError("cannot schedule into the past")
        self._queue.push((time_s, self._next_seq(), process))

    def attach_flat(self, handler) -> None:
        """Register the flat-frame handler (one per engine).

        ``handler(event, until_s)`` receives a popped event whose
        process slot is a ``list``; it must process that event — and may
        burst through consecutive flat events — and return
        ``(leftover_event_or_None, n_processed)``.  A leftover event is
        one the handler popped but must not process: a generator event,
        or any event beyond ``until_s``.
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

    def run(self, until_s: float | None = None, max_events: int = 10**7) -> float:
        """Drain the event queue; returns the final simulation time.

        ``until_s`` bounds virtual time (events beyond it stay unprocessed);
        ``max_events`` is a runaway guard for *this* call — a persistent
        engine (e.g. behind an :class:`~repro.ssd.session.SsdSession`)
        may legitimately process far more over its lifetime, tracked in
        :attr:`events_processed`.  Exhausting the guard raises
        :class:`SimulationError` (a ``RuntimeError``) naming the number
        of events still pending.  Draining the event list with frames
        still parked raises a deadlock :class:`SimulationError` naming
        how many.
        """
        queue = self._queue
        queue_pop = queue.pop
        queue_push = queue.push
        flat = self._flat
        san = self.sanitizer
        processed = 0
        try:
            # Pop-driven loop: draining is detected by the IndexError
            # from popping an empty list, so the steady state pays no
            # per-event emptiness check.  The rare exits (time horizon,
            # event guard) push the popped event back — sequence intact,
            # so the order is untouched.
            while True:
                try:
                    event = queue_pop()
                except IndexError:
                    break
                time_s = event[0]
                if until_s is not None and time_s > until_s:
                    queue_push(event)
                    self.now_s = until_s
                    return until_s
                if processed >= max_events:
                    queue_push(event)
                    raise SimulationError(
                        f"exceeded {max_events} events in one run() call "
                        f"with {len(queue)} event(s) still pending"
                    )
                process = event[2]
                if flat is not None and type(process) is list:
                    # Flat frame: hand to the attached handler, which
                    # bursts through consecutive flat events and hands
                    # back the first one it cannot process (a generator
                    # event or one beyond the horizon).  The burst is
                    # counted against max_events wholesale — the guard
                    # stays a runaway brake, not an exact budget.
                    event, burst = flat(event, until_s)
                    processed += burst
                    if event is None:
                        continue
                    time_s = event[0]
                    if until_s is not None and time_s > until_s:
                        queue_push(event)
                        self.now_s = until_s
                        return until_s
                    process = event[2]
                if san is not None and time_s < self.now_s:
                    san.backwards_time(time_s, self.now_s)
                self.now_s = time_s
                processed += 1
                try:
                    delay = process.send(None)
                except StopIteration:
                    continue
                if type(delay) is float:
                    # Same single compare as ``delay < 0.0``, but NaN
                    # fails it too.
                    if not delay >= 0.0:
                        raise SimulationError(
                            f"process yielded invalid delay {delay!r}"
                        )
                    seq = self._seq
                    self._seq = seq + 1
                    queue_push((time_s + delay, seq, process))
                    continue
                # Slow path: int / numpy scalar delays, or garbage.  Text
                # that ``float`` would parse is garbage too.
                try:
                    delay_f = float(delay)
                except (TypeError, ValueError):
                    delay_f = -1.0
                if (
                    delay is None
                    or isinstance(delay, (str, bytes, bytearray))
                    or not delay_f >= 0.0
                ):
                    raise SimulationError(
                        f"process yielded invalid delay {delay!r}"
                    )
                seq = self._seq
                self._seq = seq + 1
                queue_push((time_s + delay_f, seq, process))
        finally:
            self.events_processed += processed
        if self._parked:
            raise SimulationError(
                f"deadlock: {self._parked} frame(s) parked with an empty "
                "event queue"
            )
        return self.now_s
