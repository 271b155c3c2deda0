"""Generator-based discrete-event simulation engine.

Processes are Python generators that ``yield`` delays in seconds; the
engine interleaves them on a single virtual clock.  Small by design,
but a real DES: multiple concurrent processes, event ordering,
deterministic tie-breaking and a bounded run horizon.

Besides a float delay, a process may yield a :class:`Signal` to park
until another process fires it — the synchronisation primitive behind
resource arbitration (channel buses, queue-depth admission) in the SSD
command scheduler.  Parked processes resume at the firing instant in
park order, so runs stay deterministic.

Event-list design
-----------------

Events are plain ``(time_s, sequence, process)`` tuples ordered
lexicographically; ``sequence`` comes from a monotone counter, so the
total order is *time-major, FIFO within a timestamp*.  Two
interchangeable event-list backends implement that order:

* ``"heap"`` — a single binary heap (`heapq`), the classic textbook
  structure and the bit-exact reference backend;
* ``"calendar"`` (default) — a calendar queue tuned to the NAND phase
  spectrum (µs-scale bus transfers up to ms-scale erases).  Events
  hash into buckets by ``int(time_s * inv_width)``; each bucket is a
  small binary heap, and a second heap orders the live bucket indices.
  Pops cost ``O(log b)`` in the *bucket* size (typically a handful of
  co-scheduled phases) instead of ``O(log n)`` in the whole event
  population.

Determinism contract
--------------------

Both backends produce the *identical* pop sequence: the bucket index
``int(t * inv_width)`` is monotone non-decreasing in ``t`` and equal
times map to equal indices, so ordering buckets by index and entries
within a bucket by ``(time_s, sequence)`` is exactly the global
``(time_s, sequence)`` order.  Every equivalence oracle from earlier
PRs therefore holds bit-for-bit regardless of backend, and a property
test (``tests/sim/test_event_lists.py``) checks the orderings agree on
randomized schedules including same-timestamp FIFO ties.

Signals come in two wake disciplines:

* **wake-all** (default) — :meth:`Signal.fire` resumes every waiter at
  the firing instant in park order; the reference semantics.
* **handoff** (``engine.signal(handoff=True)``) — fire resumes only the
  *head* waiter.  This is an optimisation for mutex-style signals whose
  waiters all sit in a re-check loop (``while busy: yield freed``): under
  wake-all the losers immediately re-park in their wake order, so waking
  them is pure event churn.  Handoff keeps the losers parked and splices
  the waiter list back into the exact wake-all park order if the woken
  head loses a same-instant race and re-parks (see :meth:`Signal._park`).
  It is *only* observably equivalent for re-check-loop waiters — do not
  use it for one-shot doorbell signals.

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
``(time_s, sequence)`` order — a flat transliteration of a generator
process that allocates sequence numbers at the same points produces
bit-identical schedules (the SSD scheduler's fast path is equivalence-
tested on exactly this contract).  :meth:`SimEngine.schedule_at` is the
bulk entry point for scheduling frames at absolute times;
:meth:`SimEngine.run` remains the run-until-quiescent drain.

Two features exist for *persistent* sessions (long-lived worker
processes that outlive any one batch of work, e.g. the SSD session's
per-plane dispatch workers):

* a **daemon** signal (``engine.signal(daemon=True)``) marks an idle
  park as intentional — a worker parked on its daemon work signal does
  not count toward deadlock detection, so :meth:`SimEngine.run` can
  drain to an idle state and return while the workers stay resident;
* :meth:`SimEngine.rebase` resets the clock of an *idle* engine to
  zero.  Parked processes carry no scheduled times, so an idle engine's
  clock is an arbitrary offset; rebasing lets a resident session replay
  a closed batch with the exact float arithmetic of a fresh engine
  (``t0 + a + b - t0`` and ``a + b`` differ in floating point).
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Generator, Union

from repro.errors import SimulationError
from repro.sim.sanitizer import DesSanitizer

#: A simulation process: a generator yielding delays (seconds) or Signals.
Process = Generator[Union[float, "Signal"], None, None]

#: Process-wide default for ``SimEngine(sanitize=None)``.  Flipped to
#: True by ``pytest --sanitize`` (root conftest) so every engine a test
#: constructs comes up armed without threading a flag through helpers.
SANITIZE_DEFAULT = False

#: Default calendar bucket width: 64 µs spans a typical co-scheduled
#: phase cluster (bus transfers, ECC sections) without collapsing the
#: whole run into one bucket.
DEFAULT_BUCKET_WIDTH_S = 64e-6


class Signal:
    """Wake-up channel between processes on one :class:`SimEngine`.

    A process that yields the signal is parked (no event scheduled) until
    some other process calls :meth:`fire`, which resumes parked processes
    at the current simulation time in the order they parked.

    ``daemon`` signals mark an *expected-idle* park: processes parked on
    them are excluded from deadlock detection, so resident workers can
    sit on their wake-up signal across :meth:`SimEngine.run` calls.

    ``handoff`` signals wake only the head waiter per fire — valid only
    when every waiter re-checks its condition in a park loop (see the
    module docstring's determinism contract).
    """

    __slots__ = ("_engine", "_daemon", "_handoff", "_waiters", "_pending")

    def __init__(
        self,
        engine: "SimEngine",
        daemon: bool = False,
        handoff: bool = False,
    ):
        self._engine = engine
        self._daemon = daemon
        self._handoff = handoff
        self._waiters: list[Process] = []
        # Handoff bookkeeping: (head, n_waiters_behind) while the woken
        # head is in flight, so a losing head can re-park in the exact
        # position wake-all semantics would have produced.
        self._pending: tuple[Process, int] | None = None

    def fire(self) -> int:
        """Resume parked process(es) now; returns how many woke up.

        Wake-all signals resume every waiter in park order.  Handoff
        signals resume only the head waiter (the rest stay parked and
        are accounted as woken=1).  Firing with no waiters is a no-op.
        """
        waiters = self._waiters
        if not waiters:
            return 0
        # Inlined seq allocation + event push: fire() runs once per
        # resource release, making it the hottest non-generator call in
        # a simulation — worth skipping the SimEngine helper frames.
        engine = self._engine
        push = engine._queue.push
        now = engine.now_s
        seq = engine._seq
        if self._handoff:
            head = waiters.pop(0)
            self._pending = (head, len(waiters))
            if not self._daemon:
                engine._parked -= 1
            engine._seq = seq + 1
            push((now, seq, head))
            return 1
        woken = len(waiters)
        if not self._daemon:
            engine._parked -= woken
        engine._seq = seq + woken
        for process in waiters:
            push((now, seq, process))
            seq += 1
        waiters.clear()
        return woken

    def _park(self, process: Process) -> None:
        pending = self._pending
        if pending is not None and pending[0] is process:
            # The woken head lost a same-instant race (an earlier-seq
            # arrival stole the resource) and is re-parking.  Under
            # wake-all semantics every waiter would have woken and
            # re-parked in wake order, producing [losers..., head,
            # then any first-time parkers that arrived since the fire].
            # Splice the list back into exactly that order.
            self._pending = None
            waiters = self._waiters
            rest = pending[1]
            if rest:
                wave = waiters[:rest]
                del waiters[:rest]
                waiters.append(process)
                waiters.extend(wave)
            else:
                waiters.append(process)
        else:
            self._waiters.append(process)
        if not self._daemon:
            self._engine._parked += 1


class HeapEventList:
    """Reference event list: one global binary heap of event tuples.

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

    def peek_time(self) -> float:
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class CalendarEventList:
    """Calendar queue: dict of per-bucket heaps plus a live-index heap.

    Bucket index is ``int(time_s * inv_width)`` — monotone in time and
    equal for equal times, so (bucket index, in-bucket ``(time, seq)``
    heap order) reproduces the global ``(time, seq)`` order exactly.
    """

    __slots__ = ("_buckets", "_order", "_inv_width", "_head", "push", "pop")

    def __init__(self, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S) -> None:
        if bucket_width_s <= 0:
            raise SimulationError("bucket width must be positive")
        buckets: dict[int, list[tuple[float, int, Process]]] = {}
        order: list[int] = []
        inv_width = 1.0 / bucket_width_s
        #: The current (smallest-index) bucket, held out of the dict as
        #: a ``[index, bucket]`` cell: the clock lives inside one bucket
        #: for many events in a row, so the steady-state pop touches
        #: only this cell (no dict or index-heap traffic), and pushes at
        #: the current instant (signal wakes) hit the index-equality
        #: fast path.  Invariant: every index in ``order`` is greater
        #: than ``head[0]``, so a non-empty head bucket always holds the
        #: global minimum.
        head: list = [-1, None]
        self._buckets = buckets
        self._order = order
        self._inv_width = inv_width
        self._head = head
        bucket_get = buckets.get
        heappush = heapq.heappush
        heappop = heapq.heappop

        # push/pop close over the structures directly: closure loads
        # beat self-attribute lookups in the two calls the run loop
        # makes per event.  Built once per event list — not per-event
        # churn.
        def push(entry: tuple[float, int, Process]) -> None:
            index = int(entry[0] * inv_width)
            if index == head[0]:
                heappush(head[1], entry)
                return
            if index < head[0]:
                # Only reachable with a stale head (e.g. pushing after
                # a drain-and-rebase): demote whatever the head held
                # and restart it at the new index.
                old = head[1]
                if old:
                    buckets[head[0]] = old
                    heappush(order, head[0])
                head[0] = index
                head[1] = [entry]
                return
            bucket = bucket_get(index)
            if bucket is None:
                buckets[index] = [entry]
                heappush(order, index)
            else:
                heappush(bucket, entry)

        def pop() -> tuple[float, int, Process]:
            bucket = head[1]
            if bucket:
                return heappop(bucket)
            index = heappop(order)  # IndexError here == drained
            bucket = buckets.pop(index)
            head[0] = index
            head[1] = bucket
            return heappop(bucket)

        self.push = push
        self.pop = pop

    def peek_time(self) -> float:
        head_bucket = self._head[1]
        if head_bucket:
            return head_bucket[0][0]
        return self._buckets[self._order[0]][0][0]

    def __len__(self) -> int:
        in_buckets = sum(len(bucket) for bucket in self._buckets.values())
        head_bucket = self._head[1]
        return in_buckets + (len(head_bucket) if head_bucket else 0)

    def __bool__(self) -> bool:
        return bool(self._head[1]) or bool(self._order)


class SimEngine:
    """Single-clock event loop.

    ``event_list`` selects the backend: ``"calendar"`` (default) or
    ``"heap"``.  Both produce bit-identical runs (see module docstring);
    heap is kept as the reference for cross-backend equivalence tests.

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

    def __init__(
        self,
        event_list: str = "calendar",
        bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S,
        sanitize: bool | None = None,
    ) -> None:
        if event_list == "calendar":
            self._queue: CalendarEventList | HeapEventList = CalendarEventList(
                bucket_width_s
            )
        elif event_list == "heap":
            self._queue = HeapEventList()
        else:
            raise SimulationError(
                f"unknown event list backend {event_list!r} "
                "(expected 'calendar' or 'heap')"
            )
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

    def signal(self, daemon: bool = False, handoff: bool = False) -> Signal:
        """Create a :class:`Signal` bound to this engine.

        ``daemon`` signals exempt their parked processes from deadlock
        detection; ``handoff`` signals wake one waiter per fire (valid
        only for re-check-loop waiters — see :class:`Signal`).
        """
        return Signal(self, daemon=daemon, handoff=handoff)

    @property
    def idle(self) -> bool:
        """True when no events are scheduled (parked processes may remain)."""
        return not self._queue

    def rebase(self) -> None:
        """Reset the clock of an idle engine to zero.

        Only legal with no scheduled events — parked processes carry no
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
        of events still pending.
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
                if isinstance(delay, Signal):
                    delay._park(process)
                    continue
                # Slow path: int / numpy scalar delays, or garbage.
                try:
                    delay_f = float(delay)
                except (TypeError, ValueError):
                    delay_f = -1.0
                if delay is None or not delay_f >= 0.0:
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
                f"deadlock: {self._parked} process(es) parked on signals "
                "with an empty event queue"
            )
        return self.now_s
