"""DES-driven SSD command scheduler over a phase/resource model.

Each :class:`DieCommand` is an explicit sequence of
:class:`~repro.nand.timing.CommandPhase` stages, and the scheduler
executes those phases against four kinds of serially-reusable resource:

* **array planes** — sense / ISPP program / erase busy time.  One
  dispatch frame per plane drains that plane's queue, so multi-plane
  commands overlap ISPP (and sensing) inside one die;
* **channel buses** — page transfers.  Each bus serves the dies behind
  it in the order they queued for it;
* **per-channel ECC engines** — BCH encode / decode.  A pipelined engine
  is held only for its initiation interval (``CommandPhase.hold_s``)
  while the page still takes the full duration end to end;
* **per-plane cache registers** — the double buffer behind cache reads:
  after sensing, a page parks in the cache register and streams out
  while the plane already senses the next page.

Which overlaps are allowed is governed by :class:`PipelineConfig`:

* ``PipelineConfig()`` (all pipelining off) is the **paper-faithful**
  single-page-buffer controller FSM — every command serialises sense /
  (transfer + ECC as one fused bus section) per die, reproducing the
  PR 3 scheduler's timelines *exactly* (same completion order, same
  clock);
* ``cache_read`` lets reads sense page i+1 under the transfer of page i;
* ``multi_plane`` lets array phases of different planes overlap;
* ``pipelined_ecc`` splits the fused bus section: the bus is held only
  for the transfer while the ECC engine decodes page i as the bus
  streams page i+1, lifting the per-channel read ceiling.

The execution machinery is one **incremental** resource-reservation
core (:class:`SchedulerCore`): resident per-(die, plane) dispatchers
accept :meth:`SchedulerCore.enqueue` calls at any simulation time,
while earlier commands are still in flight — the substrate behind the
open-loop :class:`~repro.ssd.session.SsdSession`.  The dispatchers are
the **flat dispatch core**: coroutine-free state-machine frames
scheduled directly on the engine's event list and advanced by one
burst handler with one arm per mechanism, shared by every pipeline
configuration (see the "flat dispatch core" section below).  It is the
only implementation; its timelines are pinned by golden digests in
``tests/ssd/test_dispatch_golden.py``.

Work reaches the dispatchers one way besides a single ``enqueue``: the
**admission frame**, one more flat frame that admits a command list in
order under an in-flight window.  :meth:`SchedulerCore.submit_stream`
installs it as an open-loop stream (one arrival per turn, paced in
simulated time); :meth:`SchedulerCore.submit_batch` installs it as a
closed batch (everything submitted at once, as many admits per turn as
the queue-depth window has room for — the NVMe-style host queue), which
is how :meth:`~repro.ssd.session.SsdSession.execute` drains a batch to
its makespan.  A window-full admission frame parks until a completion
wakes it.  Host code that must act at simulated instants — the
open-loop runner submitting I/O at trace timestamps — runs as a **host
frame** (:meth:`SchedulerCore.spawn`): an iterator of delays that the
same burst handler advances, so the core's handler is the only code
that runs an engine event.  Everything is deterministic: the same
command list, topology, pipeline config and queue depth produce the
same completion order and the same final clock.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf
from numbers import Real
from typing import NamedTuple

from repro.errors import SimulationError
from repro.nand.timing import CommandPhase, PhaseResource
from repro.sim.engine import SimEngine
from repro.ssd.topology import SsdTopology


class CommandKind(enum.Enum):
    """Host-visible NAND command classes."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


class CommandOrigin(enum.Enum):
    """Who issued a command — its scheduling priority class.

    ``HOST`` commands carry host I/O; ``GC`` commands are garbage
    collection's migration reads/programs and victim erases placed on
    the same timeline.  A core constructed with ``host_priority=True``
    lets a queued host command jump queued GC work on its plane (GC
    stays strictly background); origins also split the trace-span kind
    space, so Perfetto shows GC-vs-host plane contention directly.
    """

    HOST = "host"
    GC = "gc"


@dataclass(frozen=True)
class PipelineConfig:
    """Which overlaps the command pipeline may exploit.

    The default (everything off) is the paper's non-pipelined
    single-page-buffer controller; :meth:`full` enables every overlap a
    MT29F-class part plus a section-pipelined BCH engine offers.
    """

    cache_read: bool = False
    multi_plane: bool = False
    pipelined_ecc: bool = False

    @classmethod
    def serial(cls) -> "PipelineConfig":
        """Paper-faithful non-pipelined configuration."""
        return cls()

    @classmethod
    def full(cls) -> "PipelineConfig":
        """Every modelled overlap enabled."""
        return cls(cache_read=True, multi_plane=True, pipelined_ecc=True)

    def describe(self) -> str:
        """Short label, e.g. ``serial`` or ``cache+ecc``."""
        parts = [
            name
            for name, on in (
                ("cache", self.cache_read),
                ("mplane", self.multi_plane),
                ("ecc", self.pipelined_ecc),
            )
            if on
        ]
        return "+".join(parts) if parts else "serial"


@dataclass(frozen=True)
class DieCommand:
    """One scheduled command against one die.

    A command is its phase plan: ``phases`` is the stage sequence from
    :class:`~repro.nand.timing.NandTimingModel` (``read_phases``,
    ``program_phases`` or ``erase_phases``), each phase naming the
    resource it holds (the plane's array, the channel bus or the ECC
    engine) and for how long.  ``tag`` is the host's submission index —
    completions map back to host operations through it.  ``plane`` is
    the array plane the command lands on.
    """

    kind: CommandKind
    die: int
    tag: int
    phases: tuple[CommandPhase, ...]
    plane: int = 0
    cache_busy_s: float = 0.0
    #: Priority class (see :class:`CommandOrigin`): GC-origin commands
    #: yield to queued host work on a ``host_priority`` core and emit
    #: ``gc-*`` trace-span kinds.
    origin: CommandOrigin = CommandOrigin.HOST

    def __post_init__(self) -> None:
        if self.plane < 0:
            raise SimulationError("plane must be non-negative")
        # ``not x >= 0`` also rejects NaN, which ``x < 0`` lets through.
        if not self.cache_busy_s >= 0:
            raise SimulationError("cache busy time must be non-negative")

    @classmethod
    def from_phases(
        cls,
        kind: CommandKind,
        die: int,
        tag: int,
        phases: tuple[CommandPhase, ...],
        plane: int = 0,
        cache_busy_s: float = 0.0,
        origin: CommandOrigin = CommandOrigin.HOST,
    ) -> "DieCommand":
        """Build a command from an explicit phase sequence."""
        return cls(
            kind=kind, die=die, tag=tag, phases=tuple(phases), plane=plane,
            cache_busy_s=cache_busy_s, origin=origin,
        )


class CommandCompletion(NamedTuple):
    """Timestamped completion of one command.

    ``submit_s`` is when the host handed the command to the session
    (submission-queue time); ``admit_s`` is when the in-flight window
    admitted (dispatched) it.  Closed-batch schedules submit everything
    at the batch start, so for them ``admit_s - submit_s`` is exactly
    the queue-depth admission wait.

    A named tuple rather than a dataclass: the dispatch core constructs
    one per command on its hottest path, and tuple construction skips
    ``__init__``/``__setattr__`` entirely.
    """

    tag: int
    die: int
    channel: int
    admit_s: float
    done_s: float
    submit_s: float | None = None

    @property
    def latency_s(self) -> float:
        """Dispatch-to-completion latency (queueing behind the die/bus)."""
        return self.done_s - self.admit_s

    @property
    def queue_s(self) -> float:
        """Submission-to-dispatch wait in the host queue."""
        return 0.0 if self.submit_s is None else self.admit_s - self.submit_s

    @property
    def total_latency_s(self) -> float:
        """Submission-to-completion latency, host queueing included."""
        base = self.admit_s if self.submit_s is None else self.submit_s
        return self.done_s - base


@dataclass
class ScheduleResult:
    """Outcome of one scheduler run."""

    completions: list[CommandCompletion] = field(default_factory=list)
    makespan_s: float = 0.0
    die_busy_s: list[float] = field(default_factory=list)
    channel_busy_s: list[float] = field(default_factory=list)
    ecc_busy_s: list[float] = field(default_factory=list)

    def latency_by_tag(self) -> dict[int, float]:
        """Per-command latency keyed by submission tag."""
        return {c.tag: c.latency_s for c in self.completions}

    def completion_order(self) -> list[int]:
        """Submission tags in completion order."""
        return [c.tag for c in self.completions]

    def channel_utilisation(self) -> list[float]:
        """Busy fraction of each channel bus over the makespan.

        Under the serial configuration the ECC encode/decode occupies the
        bus (fused section) and is counted here; under ``pipelined_ecc``
        it is accounted separately in :attr:`ecc_busy_s`.
        """
        if self.makespan_s <= 0:
            return [0.0 for _ in self.channel_busy_s]
        return [busy / self.makespan_s for busy in self.channel_busy_s]

    def latencies(self) -> list[float]:
        """Per-command latencies in completion order."""
        return [c.latency_s for c in self.completions]


@lru_cache(maxsize=4096)
def _split_plan(plan: tuple[CommandPhase, ...]) -> tuple[
    tuple[float, ...],
    tuple[tuple[bool, float, float], ...],
    tuple[tuple[bool, float, float], ...],
]:
    """Pre-decompose a phase plan for the dispatch hot loop.

    Returns ``(array_durations, section_ops, fused_ops)``: the plane
    (array) phase durations, the channel-section phases flattened to
    ``(is_channel, duration_s, occupancy_s)`` triples (so the burst
    handler touches plain floats, not dataclass attributes), and the
    section the non-pipelined configuration runs instead: one bus phase
    for the section total, summed in phase order (present even when the
    plan has no channel phase).

    Cached: the pages of a die-striped batch overwhelmingly share
    identical phase tuples, so the split (and its tuple allocations)
    happens once per distinct plan instead of once per command.
    """
    array = tuple(
        p.duration_s for p in plan if p.resource is PhaseResource.PLANE
    )
    channel = tuple(
        p for p in plan if p.resource is not PhaseResource.PLANE
    )
    ops = tuple(
        (p.resource is PhaseResource.CHANNEL, p.duration_s, p.occupancy_s)
        for p in channel
    )
    fused = sum(p.duration_s for p in channel)
    return array, ops, ((True, fused, fused),)


#: Identity front-cache for :func:`_split_plan`.  ``lru_cache`` hashes
#: the whole phase tuple (three generated dataclass ``__hash__`` calls
#: per lookup) on every command; commands built by the striped FTL share
#: literal tuple objects, so an ``id()`` probe answers most lookups with
#: one dict hit.  Entries keep the plan alive, so a live entry's ``id``
#: cannot be recycled; after an eviction the ``is`` check rejects any
#: stale match.
_split_memo: dict[int, tuple] = {}


def _split_plan_fast(plan: tuple[CommandPhase, ...]):
    """`_split_plan` behind an identity probe (see ``_split_memo``)."""
    entry = _split_memo.get(id(plan))
    if entry is not None and entry[0] is plan:
        return entry[1]
    split = _split_plan(plan)
    if len(_split_memo) >= 4096:
        _split_memo.clear()
    _split_memo[id(plan)] = (plan, split)
    return split


def validate_batch(
    topology: SsdTopology,
    commands: list[DieCommand],
    queue_depth: int | None,
) -> None:
    """Reject out-of-range dies, duplicate tags and bad queue depths.

    Duplicate submission tags would silently corrupt the completion map,
    so they are an error within one scheduled batch.
    """
    seen_tags: set[int] = set()
    for command in commands:
        if not 0 <= command.die < topology.dies:
            raise SimulationError(
                f"command die {command.die} outside topology "
                f"({topology.dies} dies)"
            )
        if command.tag in seen_tags:
            raise SimulationError(
                f"duplicate command tag {command.tag}: tags must be "
                "unique within one scheduled batch"
            )
        seen_tags.add(command.tag)
    if queue_depth is not None and queue_depth < 1:
        raise SimulationError("queue depth must be >= 1")


# -- flat dispatch core ------------------------------------------------------
#
# The steady-state control flow per command is fixed: pop, array
# phases, channel section, finish.  Each (die, plane) dispatcher is a
# plain-list frame with an integer program counter, scheduled directly
# on the engine's shared event list and advanced by one burst handler
# (:meth:`SchedulerCore._flat_burst`), which the engine calls once per
# run and which drains the event list with its locals bound.  A cached
# read streams out through a one-shot drain frame, so its plane senses
# the next page meanwhile.  One admission frame feeds the dispatchers,
# for an open-loop stream or a closed batch alike, and host frames run
# host code between them.  Every scheduled turn takes one sequence
# number from the engine's shared counter, so all frames interleave in
# the engine's global ``(time, seq)`` order.
#
# Each mechanism has one arm.  A frame that finds a lock taken parks at
# the arm that tried to take it and re-runs that arm when a release
# wakes it: the section cursor still names the phase that waits for the
# bus or ECC engine, and the array cursor sits at the end while a read
# waits for its cache register.  The non-pipelined configuration runs
# its fused section as a one-phase section (one bus hold for the total),
# so the bus arms serve both configurations.

# Dispatcher/drain program counters (resume points after a scheduled
# event or a lock park).
_P_POP = 0        # fetch the next queued command (or park until woken)
_P_ARRAY = 1      # an array phase elapsed (cache-register waits resume)
_P_TRCBSY = 2     # the tRCBSY cache handoff elapsed: spawn the drain frame
_P_SECTION = 3    # next section phase (drains start, bus/ECC waits resume)
_P_BUSREL = 4     # the bus hold just elapsed: release and account
_P_ECCREL = 5     # the ECC occupancy just elapsed: release and account
_P_FINISH = 6     # complete the command (drain frames then end)
_P_ADMIT = 7      # admission frame: admit what the window has room for
_P_HOST = 8       # host frame: advance its delay iterator one step

# Dispatcher/drain frame layout (plain lists):
# [0] pc  [1] die  [2] slot  [3] channel  [4] queue (deque of
# DieCommand; None for one-shot drain frames)  [5] parked-idle flag
# [6] current command  [7] array phase cursor  [8] section phase cursor
# [9] cache lock to release mid-section (drain frames), or None
# [10] array durations  [11] section ops (is_channel, duration,
# occupancy): the plan's channel phases under ``pipelined_ecc``, else
# the fused one-phase section  [12] the plan's channel phases (a read
# with none has nothing to stream through the cache register)
# [13] is-read  [14] is-program  [15] channel bus lock  [16] channel ECC
# lock  [17] plane cache lock  [18] len(array)  [19] len(section ops)
# [20] span kind code (KIND_NAMES index, +3 for GC-origin commands;
# refreshed per pop)
#
# Admission frame layout (an open-loop stream or a closed batch):
# [0] pc (_P_ADMIT)  [1] next command index  [2] command list  [3] list
# length  [4] in-flight window limit  [5] parked-on-window flag
# [6] inter-arrival pacing (seconds) of a stream, None for a batch
# [7] install time (a batch's submit time)
#
# Host frame layout: [0] pc (_P_HOST)  [1] the delay iterator
#
# Lock layout (a bus, an ECC engine or a cache register, which holds
# one page):
# [0] busy  [1] waiters (frames, park order)  [2] the woken head, until
# it runs  [3] waiters left behind that head
#
# A release wakes the head waiter only, and an uncontended release
# allocates no sequence number; releases are inlined in the burst
# handler.  A woken head that finds the lock taken again at the same
# instant re-parks through :func:`_flat_lock_park`, which puts it back
# where re-checking every waiter would have left it: behind frames that
# parked since the release, ahead of the waiters that were behind it.
# The caller accounts each park toward the engine's deadlock counter,
# as the admission frame does for its window parks; idle dispatchers
# are not counted.


#: What a host frame's exhausted delay iterator returns from ``next``.
_HOST_DONE = object()


def _host_delay(delay) -> float:
    """A host frame's delay as a ``float``; SimulationError if invalid.

    The burst calls this only off its fast path (a ``float >= 0``): an
    ``int`` or numpy scalar becomes a Python float, so no numpy scalar
    reaches the clock, and anything that is not a real number ``>= 0``
    (NaN, ``None`` and text included) is rejected by name.
    """
    value = float(delay) if isinstance(delay, Real) else -1.0
    if not value >= 0.0:  # NaN included
        raise SimulationError(f"host frame yielded invalid delay {delay!r}")
    return value


def _flat_lock_park(lock: list, frame: list) -> None:
    """Park ``frame`` on ``lock``, splicing a re-parking woken head.

    The caller adds the park to the engine's deadlock counter, so a
    frame left parked when the event list drains is a deadlock.
    """
    if lock[2] is frame:
        lock[2] = None
        rest = lock[3]
        waiters = lock[1]
        if rest:
            wave = waiters[:rest]
            del waiters[:rest]
            waiters.append(frame)
            waiters.extend(wave)
        else:
            waiters.append(frame)
    else:
        lock[1].append(frame)


class SchedulerCore:
    """Incremental resource-reservation core over one topology.

    Owns the serially-reusable resources (planes, channel buses, ECC
    engines, per-plane cache registers) and one resident dispatch frame
    per (die, plane), parked idle while its queue is empty.
    :meth:`enqueue` accepts a command at any simulation time — including
    while earlier commands are still in flight — making the core the
    substrate of :class:`~repro.ssd.session.SsdSession`, for its
    open-loop submissions and its closed ``execute`` batches alike.

    Commands arrive one at a time through :meth:`enqueue`, or through
    the admission frame that :meth:`submit_stream` (an open-loop
    stream) and :meth:`submit_batch` (a closed batch) install.
    Completions are appended to :attr:`completions`, and synchronous
    ``on_finish`` callbacks let a session route completions without a
    reaper of its own.  Host code runs at simulated instants as a host
    frame started by :meth:`spawn`.  The frames live on the engine's
    event list, advanced by the burst handler the core attaches via
    :meth:`SimEngine.attach_flat`, which runs every event of the engine.
    """

    def __init__(
        self,
        engine: SimEngine,
        topology: SsdTopology,
        pipeline: PipelineConfig | None = None,
        recorder=None,
        host_priority: bool = False,
    ):
        self.engine = engine
        self.topology = topology
        self.pipeline = pipeline or PipelineConfig()
        self.planes = (
            topology.geometry.planes if self.pipeline.multi_plane else 1
        )
        self.completions: list[CommandCompletion] = []
        self.die_busy_s = [0.0] * topology.dies
        self.channel_busy_s = [0.0] * topology.channels
        self.ecc_busy_s = [0.0] * topology.channels
        self.on_finish: list = []
        self.in_flight = 0
        #: Per-die enqueued-but-incomplete command counts.  A die with
        #: zero is idle (no queued or executing work on any plane) —
        #: the admission-frame idleness signal background GC keys off.
        self.die_inflight = [0] * topology.dies
        #: When set, a plane's pop prefers the first queued HOST-origin
        #: command over queued GC work (see :class:`CommandOrigin`).
        #: Off by default — pure FIFO pop, the historical order.
        self.host_priority = host_priority
        #: Optional :class:`~repro.obs.trace.TraceRecorder`.  Every
        #: trace hook sits behind a ``recorder is None`` check on a
        #: local, and recording changes no event ordering, sequence
        #: allocation or float arithmetic — traced runs are
        #: bit-identical to untraced ones (the span intervals are read
        #: off the same accounting the busy accumulators already do).
        self.recorder = recorder
        if recorder is not None:
            recorder.attach(self)
        #: Armed :class:`~repro.sim.sanitizer.DesSanitizer` inherited
        #: from the engine, or None.  Same zero-cost-off discipline as
        #: the recorder: every hook sits behind an ``is None`` check on
        #: a local, and armed runs stay bit-identical.
        self._san = engine.sanitizer
        channels = topology.channels
        self._buses = [[False, [], None, 0] for _ in range(channels)]
        self._eccs = [[False, [], None, 0] for _ in range(channels)]
        self._caches = [
            [[False, [], None, 0] for _ in range(self.planes)]
            for _ in range(topology.dies)
        ]
        self._frames = [
            [
                [
                    _P_POP, die, slot, topology.channel_of(die),
                    deque(), False, None, 0, 0, None,
                    (), (), (), False, False,
                    self._buses[topology.channel_of(die)],
                    self._eccs[topology.channel_of(die)],
                    self._caches[die][slot],
                    0, 0, 0,
                ]
                for slot in range(self.planes)
            ]
            for die in range(topology.dies)
        ]
        self._admit: list | None = None
        engine.attach_flat(self._flat_burst)
        #: In-flight bookkeeping: tag -> (admit_s, submit_s).  One dict
        #: (one hash per enqueue / one per finish) also doubles as the
        #: live-tag set for duplicate detection.
        self._meta: dict[int, tuple[float, float | None]] = {}
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the resident dispatchers ((die, plane) order).

        Schedules each frame's start event at the current instant; a
        frame's first turn pops queued work or parks idle.
        """
        if self._started:
            raise SimulationError("scheduler core already started")
        self._started = True
        now = self.engine.now_s
        for die_frames in self._frames:
            for frame in die_frames:
                self.engine.schedule_at(now, frame)

    @property
    def idle(self) -> bool:
        """True when no command is queued or executing."""
        return self.in_flight == 0

    def reset_accounting(self) -> None:
        """Zero the busy accumulators (only legal while idle)."""
        if not self.idle:
            raise SimulationError(
                "cannot reset accounting with commands in flight"
            )
        self.die_busy_s = [0.0] * self.topology.dies
        self.channel_busy_s = [0.0] * self.topology.channels
        self.ecc_busy_s = [0.0] * self.topology.channels

    # -- submission --------------------------------------------------------------

    def enqueue(
        self, command: DieCommand, submit_s: float | None = None
    ) -> None:
        """Admit one command into the in-flight set at the current time.

        ``submit_s`` optionally records when the host originally
        submitted the command (for queueing-time accounting); the admit
        (dispatch) time is always the current simulation time.  The tag
        must be unique among commands currently in flight.
        """
        if not 0 <= command.die < self.topology.dies:
            raise SimulationError(
                f"command die {command.die} outside topology "
                f"({self.topology.dies} dies)"
            )
        if command.tag in self._meta:
            raise SimulationError(
                f"duplicate command tag {command.tag}: tags must be "
                "unique among in-flight commands"
            )
        if self._san is not None:
            self._san.check_command(command)
        self.in_flight += 1
        self.die_inflight[command.die] += 1
        self._meta[command.tag] = (self.engine.now_s, submit_s)
        frame = self._frames[command.die][command.plane % self.planes]
        frame[4].append(command)
        if frame[5]:
            # The frame is parked idle: schedule its wake at the current
            # instant (one sequence number; a busy frame needs none).
            frame[5] = False
            engine = self.engine
            seq = engine._seq
            engine._seq = seq + 1
            engine._queue.push((engine.now_s, seq, frame))

    def submit_stream(
        self,
        commands: list[DieCommand],
        window: int | None = None,
        arrival_s: float = 0.0,
    ) -> None:
        """Install an open-loop arrival stream on the admission frame.

        Admits ``commands`` in order, one every ``arrival_s`` simulated
        seconds, stalling while ``window`` commands are in flight
        (``None`` leaves the stream unwindowed); each command is
        submitted as it arrives.  A ``window`` below 1 or an
        ``arrival_s`` that is not ``>= 0`` (NaN included) raises
        :class:`SimulationError` before anything is installed.
        """
        if window is not None and window < 1:
            raise SimulationError(f"stream window must be >= 1, not {window}")
        if not arrival_s >= 0.0:
            raise SimulationError(
                f"arrival spacing must be >= 0, not {arrival_s!r}"
            )
        self._install_admission(commands, window, arrival_s)

    def submit_batch(
        self, commands: list[DieCommand], queue_depth: int | None = None
    ) -> None:
        """Install a closed batch on the admission frame.

        Every command is submitted now and admitted in list order while
        fewer than ``queue_depth`` are in flight (``None`` admits the
        whole batch at once), as many per turn as the window has room
        for.  The first turn queues the initial window before it wakes
        the parked frames that received work, in (die, plane) order, so
        the batch timeline does not depend on which frame went idle last
        and no idle plane takes a no-op turn.  A ``queue_depth`` below 1
        raises :class:`SimulationError` before anything is installed.
        """
        if queue_depth is not None and queue_depth < 1:
            raise SimulationError("queue depth must be >= 1")
        self._install_admission(commands, queue_depth, None)

    def _install_admission(
        self,
        commands: list[DieCommand],
        window: int | None,
        arrival_s: float | None,
    ) -> None:
        """Schedule the admission frame now (``arrival_s`` None: a batch).

        A core runs one admission at a time; the next may be installed
        once the previous one has admitted everything.
        """
        admit = self._admit
        if admit is not None and admit[1] < admit[3]:
            raise SimulationError(
                "a core admits one stream at a time: the previous "
                "stream or batch is still admitting"
            )
        if self._san is not None:
            # The admission frame inlines enqueue, so phase plans are
            # validated up front.
            for command in commands:
                self._san.check_command(command)
        n = len(commands)
        now = self.engine.now_s
        frame = [
            _P_ADMIT, 0, list(commands), n, n if window is None else window,
            False, arrival_s, now,
        ]
        self._admit = frame
        self.engine.schedule_at(now, frame)

    def spawn(self, process) -> None:
        """Start a host frame that runs ``process`` at the current instant.

        ``process`` is an iterator of delays in seconds, usually a
        generator.  The burst handler advances it one step per turn:
        now, then each time the delay it yielded has elapsed, until it
        is exhausted.  Each step runs with the engine state written
        back, so it may read ``engine.now_s`` and call :meth:`enqueue`
        or :meth:`SsdSession.submit <repro.ssd.session.SsdSession.submit>`.
        An ``int`` or numpy scalar delay becomes a Python ``float``;
        anything that is not a real number ``>= 0`` (NaN, ``None`` and
        text included) raises :class:`SimulationError` naming it.
        """
        self.engine.schedule_at(self.engine.now_s, [_P_HOST, process])

    # -- flat dispatch -----------------------------------------------------------

    def _flat_burst(self, event, until_s):
        """Run the engine's events; the handler every run calls once.

        Runs the state machine for ``event``'s frame, then keeps popping
        and running events with all hot state bound as locals — one
        handler call retires a whole run.  Returns ``(leftover, count)``
        where ``leftover`` is the first event beyond ``until_s`` (None
        once the event list drains) and ``count`` is the number of turns
        run.

        The frames run on integer program counters, one arm per
        mechanism: ``P_POP`` pops, ``P_ARRAY`` accounts the array phases
        and takes the cache register, ``P_TRCBSY`` spawns the drain
        frame, ``P_SECTION`` takes the bus or ECC engine for the next
        section phase, ``P_BUSREL`` / ``P_ECCREL`` release them and
        ``P_FINISH`` completes every command; ``P_ADMIT`` runs the
        admission frame, and the last arm, ``P_HOST``, advances a host
        frame's delay iterator.  See the layout comments above
        :func:`_flat_lock_park`.  The engine's sequence counter,
        deadlock counter and clock live in locals (``seq`` / ``parked``
        / ``now``) and are written back only around calls that leave the
        burst — the ``on_finish`` callbacks, a host frame's step, a
        rejected admission's ``enqueue`` — and at burst exit.

        Two queue-elision paths keep the global ``(time, seq)`` order
        exact while skipping the event list, both resting on the same
        invariant: sequence
        numbers are allocated in strictly increasing order, so events
        already queued at the current instant always order before
        anything allocated now, and relative order among deferred
        allocations is their allocation order.

        * ``nxt_t`` — a timed self-transition (the last allocation of
          its turn).  If it is strictly earlier than every queued event
          it is the unique global minimum — by time alone, before
          tie-breaks — and runs inline without a push/pop round-trip.
        * ``dws`` — same-instant wakes (lock releases, drain spawns,
          admission wakes).  They are FIFO in allocation order and
          order after every queued event at ``now`` (all of which hold
          smaller sequence numbers), so they drain inline once the
          queue's head moves strictly past ``now``.  The deque is
          flushed into the real queue before any external call or
          burst exit, so code outside this method never observes it.

        Every turn — queued, deferred or inline — bumps ``count``, so
        ``events_processed`` counts turns, not event-list round trips.
        """
        engine = self.engine
        queue = engine._queue
        pop = queue.pop
        push = queue.push
        heap = queue._heap
        die_busy = self.die_busy_s
        channel_busy = self.channel_busy_s
        ecc_busy = self.ecc_busy_s
        split = _split_plan_fast
        memo_get = _split_memo.get
        lock_park = _flat_lock_park
        meta = self._meta
        meta_pop = meta.pop
        completions_append = self.completions.append
        completion_cls = CommandCompletion
        tuple_new = tuple.__new__
        on_finish = self.on_finish
        frames = self._frames
        planes = self.planes
        dies = self.topology.dies
        cache_mode = self.pipeline.cache_read
        pipelined_ecc = self.pipeline.pipelined_ecc
        host_prio = self.host_priority
        die_inflight = self.die_inflight
        READ = CommandKind.READ
        PROGRAM = CommandKind.PROGRAM
        GC_ORIGIN = CommandOrigin.GC
        P_POP = _P_POP
        P_ARRAY = _P_ARRAY
        P_TRCBSY = _P_TRCBSY
        P_SECTION = _P_SECTION
        P_BUSREL = _P_BUSREL
        P_ECCREL = _P_ECCREL
        P_FINISH = _P_FINISH
        P_ADMIT = _P_ADMIT
        horizon = inf if until_s is None else until_s
        seq = engine._seq
        parked = engine._parked
        count = 0
        in_flight = self.in_flight
        nxt_t = -1.0
        dws = deque()
        dws_append = dws.append
        dws_popleft = dws.popleft
        admit_frame = self._admit
        recorder = self.recorder
        # Sanitizer hooks cover the release arms only: every flat
        # acquire site is dominated by an explicit busy check a few
        # lines above it (the DET107 static walk verifies the
        # structure), so double-acquires cannot be expressed here,
        # while a double-release would silently wake a second waiter.
        san = self._san
        # Span hooks ride the same accounting points as the busy
        # accumulators; `rspan is None` on a local keeps the disabled
        # path free of attribute loads.
        rspan = None if recorder is None else recorder._spans.append
        if san is not None and event[0] < engine.now_s:
            san.backwards_time(event[0], engine.now_s)
        now, _, frame = event
        while True:
            count += 1
            pc = frame[0]
            if pc == P_ADMIT:
                index = frame[1]
                length = frame[3]
                arrival_s = frame[6]
                # A batch's first turn holds its wakes back and then
                # wakes the frames in (die, plane) order.
                hold = arrival_s is None and index == 0
                submit_s = frame[7] if arrival_s is None else now
                while index < length:
                    if in_flight >= frame[4]:
                        # Window full: park until a completion wakes
                        # the frame (a re-park allocates nothing).
                        frame[5] = True
                        parked += 1
                        break
                    command = frame[2][index]
                    die = command.die
                    tag = command.tag
                    if 0 <= die < dies and tag not in meta:
                        # `enqueue(command, submit_s)` inlined.
                        in_flight += 1
                        die_inflight[die] += 1
                        meta[tag] = (now, submit_s)
                        target = frames[die][command.plane % planes]
                        target[4].append(command)
                        if target[5] and not hold:
                            target[5] = False
                            dws_append(target)
                    else:
                        while dws:
                            push((now, seq, dws_popleft()))
                            seq += 1
                        engine._seq = seq
                        engine._parked = parked
                        engine.now_s = now
                        self.in_flight = in_flight
                        self.enqueue(command, submit_s)  # raises
                    index += 1
                    if arrival_s is not None:
                        # A stream admits one command per turn; its next
                        # arrival turn follows every admit, the last
                        # included (that turn is where the stream ends).
                        nxt_t = now + arrival_s
                        break
                frame[1] = index
                if hold:
                    for die_frames in frames:
                        for target in die_frames:
                            if target[4] and target[5]:
                                target[5] = False
                                dws_append(target)
            else:
                while True:
                    if pc == P_SECTION:
                        cursor = frame[8]
                        if cursor < frame[19]:
                            # Take the phase's lock: the channel bus for
                            # a transfer (or the fused section), else
                            # the ECC engine for its occupancy.
                            is_channel, duration, occupancy = (
                                frame[11][cursor]
                            )
                            if is_channel:
                                lock = frame[15]
                                if not lock[0]:
                                    lock[0] = True
                                    frame[0] = P_BUSREL
                                    nxt_t = now + duration
                                    break
                            else:
                                lock = frame[16]
                                if not lock[0]:
                                    lock[0] = True
                                    frame[0] = P_ECCREL
                                    nxt_t = now + occupancy
                                    break
                            # Taken: park; the release that wakes this
                            # frame re-runs this phase.
                            frame[0] = P_SECTION
                            if lock[2] is frame:
                                lock_park(lock, frame)
                            else:
                                lock[1].append(frame)
                            parked += 1
                            break
                        # Section exhausted: free a still-held cache
                        # register (the no-transfer-phase drain exit).
                        cache = frame[9]
                        if cache is not None:
                            if san is not None:
                                san.release_check(
                                    ("cache", frame[1], frame[2]), cache[0]
                                )
                            cache[0] = False
                            waiters = cache[1]
                            if waiters:
                                head = waiters.pop(0)
                                cache[2] = head
                                cache[3] = len(waiters)
                                dws_append(head)
                                parked -= 1
                            frame[9] = None
                        if not frame[14]:  # a read or its drain is done
                            pc = P_FINISH
                            continue
                        # PROGRAM: the array phases follow the section.
                        array = frame[10]
                        frame[7] = 0
                        if array:
                            frame[0] = P_ARRAY
                            nxt_t = now + array[0]
                            break
                        pc = P_ARRAY
                        continue
                    elif pc == P_POP:
                        cqueue = frame[4]
                        if not cqueue:
                            frame[0] = P_POP
                            frame[5] = True  # park idle (uncounted)
                            break
                        command = cqueue.popleft()
                        if host_prio and command.origin is GC_ORIGIN:
                            # Host-priority pop: promote the first queued
                            # host command past GC work; the GC command
                            # returns to the head for the next pop.
                            for index, candidate in enumerate(cqueue):
                                if candidate.origin is not GC_ORIGIN:
                                    del cqueue[index]
                                    cqueue.appendleft(command)
                                    command = candidate
                                    break
                        plan = command.phases
                        entry = memo_get(id(plan))
                        if entry is not None and entry[0] is plan:
                            array, ops, fused = entry[1]
                        else:
                            array, ops, fused = split(plan)
                        section = ops if pipelined_ecc else fused
                        frame[6] = command
                        frame[10] = array
                        frame[11] = section
                        frame[12] = ops
                        frame[18] = len(array)
                        frame[19] = len(section)
                        kind = command.kind
                        kc = 0 if kind is READ else (
                            1 if kind is PROGRAM else 2
                        )
                        if command.origin is GC_ORIGIN:
                            kc += 3
                        frame[20] = kc
                        if rspan is not None:
                            rspan((3, frame[1], frame[2],
                                   meta[command.tag][0], now, command.tag,
                                   kc))
                        frame[13] = kind is READ
                        frame[8] = 0
                        if kind is PROGRAM:
                            frame[14] = True
                            pc = P_SECTION
                            continue
                        frame[14] = False
                        frame[7] = 0
                        if array:
                            frame[0] = P_ARRAY
                            nxt_t = now + array[0]
                            break
                        pc = P_ARRAY  # empty array: straight through
                        continue
                    elif pc == P_ARRAY:
                        cursor = frame[7]
                        if cursor < frame[18]:
                            array = frame[10]
                            die_busy[frame[1]] += array[cursor]
                            if rspan is not None:
                                rspan((0, frame[1], frame[2],
                                       now - array[cursor], now,
                                       frame[6].tag, frame[20]))
                            cursor += 1
                            frame[7] = cursor
                            if cursor < frame[18]:
                                frame[0] = P_ARRAY
                                nxt_t = now + array[cursor]
                                break
                        # Array phases done.
                        if not frame[13]:  # PROGRAM after section, or ERASE
                            pc = P_FINISH
                            continue
                        if cache_mode and frame[12]:
                            # Cache read: the page moves to the cache
                            # register and streams out from there.
                            cache = frame[17]
                            if cache[0]:
                                # Full: park with the array cursor at
                                # the end; the release re-runs this.
                                frame[0] = P_ARRAY
                                if cache[2] is frame:
                                    lock_park(cache, frame)
                                else:
                                    cache[1].append(frame)
                                parked += 1
                                break
                            cache[0] = True
                            frame[0] = P_TRCBSY
                            trcbsy = frame[6].cache_busy_s
                            if trcbsy > 0.0:
                                nxt_t = now + trcbsy
                                break
                            pc = P_TRCBSY
                            continue
                        pc = P_SECTION
                        continue
                    elif pc == P_BUSREL:
                        bus = frame[15]
                        if san is not None:
                            san.release_check(("bus", frame[3]), bus[0])
                        bus[0] = False
                        waiters = bus[1]
                        if waiters:
                            head = waiters.pop(0)
                            bus[2] = head
                            bus[3] = len(waiters)
                            dws_append(head)
                            parked -= 1
                        cursor = frame[8]
                        duration = frame[11][cursor][1]
                        channel_busy[frame[3]] += duration
                        if rspan is not None:
                            rspan((1, frame[3], 0, now - duration, now,
                                   frame[6].tag, frame[20]))
                        # The page has left the cache register.
                        cache = frame[9]
                        if cache is not None:
                            if san is not None:
                                san.release_check(
                                    ("cache", frame[1], frame[2]), cache[0]
                                )
                            cache[0] = False
                            waiters = cache[1]
                            if waiters:
                                head = waiters.pop(0)
                                cache[2] = head
                                cache[3] = len(waiters)
                                dws_append(head)
                                parked -= 1
                            frame[9] = None
                        frame[8] = cursor + 1
                        pc = P_SECTION
                        continue
                    elif pc == P_FINISH:
                        command = frame[6]
                        tag = command.tag
                        rec = meta_pop(tag)
                        completion = tuple_new(
                            completion_cls,
                            (tag, frame[1], frame[3], rec[0], now, rec[1]),
                        )
                        completions_append(completion)
                        in_flight -= 1
                        die_inflight[frame[1]] -= 1
                        if admit_frame is not None and admit_frame[5]:
                            # A window-parked admission frame (a stream
                            # or a batch) wakes at this completion.
                            admit_frame[5] = False
                            dws_append(admit_frame)
                            parked -= 1
                        if on_finish:
                            while dws:
                                push((now, seq, dws_popleft()))
                                seq += 1
                            engine._seq = seq
                            engine._parked = parked
                            engine.now_s = now
                            self.in_flight = in_flight
                            for callback in on_finish:
                                callback(completion)
                            seq = engine._seq
                            parked = engine._parked
                            in_flight = self.in_flight
                            admit_frame = self._admit
                        if frame[4] is None:
                            break  # drain frames run once
                        pc = P_POP
                        continue
                    elif pc == P_ECCREL:
                        ecc = frame[16]
                        if san is not None:
                            san.release_check(("ecc", frame[3]), ecc[0])
                        ecc[0] = False
                        waiters = ecc[1]
                        if waiters:
                            head = waiters.pop(0)
                            ecc[2] = head
                            ecc[3] = len(waiters)
                            dws_append(head)
                            parked -= 1
                        cursor = frame[8]
                        phase = frame[11][cursor]
                        ecc_busy[frame[3]] += phase[2]
                        if rspan is not None:
                            rspan((2, frame[3], 0, now - phase[2], now,
                                   frame[6].tag, frame[20]))
                        frame[8] = cursor + 1
                        remainder = phase[1] - phase[2]
                        if remainder > 0:
                            # The engine is free again; the page still
                            # takes the rest of the phase's duration.
                            frame[0] = P_SECTION
                            nxt_t = now + remainder
                            break
                        pc = P_SECTION
                        continue
                    elif pc == P_TRCBSY:
                        # The cache handoff is over (tRCBSY elapsed, or
                        # was zero): a one-shot drain frame owns the
                        # cache register and streams the page out while
                        # this plane pops its next command.
                        trcbsy = frame[6].cache_busy_s
                        if trcbsy > 0.0:
                            die_busy[frame[1]] += trcbsy
                            if rspan is not None:
                                rspan((0, frame[1], frame[2], now - trcbsy,
                                       now, frame[6].tag, frame[20]))
                        dws_append([
                            P_SECTION, frame[1], frame[2], frame[3],
                            None, False, frame[6], 0, 0, frame[17],
                            frame[10], frame[11], frame[12], True,
                            False, frame[15], frame[16], None,
                            frame[18], frame[19], frame[20],
                        ])
                        pc = P_POP
                        continue
                    else:
                        # P_HOST: run the host code up to its next delay,
                        # with the engine state written back around the
                        # call as for the on_finish callbacks.
                        while dws:
                            push((now, seq, dws_popleft()))
                            seq += 1
                        engine._seq = seq
                        engine._parked = parked
                        engine.now_s = now
                        self.in_flight = in_flight
                        delay = next(frame[1], _HOST_DONE)
                        seq = engine._seq
                        parked = engine._parked
                        in_flight = self.in_flight
                        admit_frame = self._admit
                        if delay is _HOST_DONE:
                            break  # the iterator is exhausted
                        if type(delay) is not float or not delay >= 0.0:
                            delay = _host_delay(delay)
                        nxt_t = now + delay
                        break
            # ---- tail: pick the next turn's (now, frame) ----
            # Resolve the deferred timed self-transition first: it was
            # the turn's last allocation, so its sequence number is
            # larger than any deferred wake's or queued event's at the
            # same time — append/push keeps exact order, and the inline
            # run is only taken when it is the strict global minimum.
            if nxt_t >= 0.0:
                t = nxt_t
                nxt_t = -1.0
                if dws:
                    # `t` is `now + 0.0`-class arithmetic from this very
                    # turn; equality detects the same-instant transition
                    # the deferred-wake FIFO elides, never a tolerance.
                    if t == now:  # lint-ok: DET105
                        dws_append(frame)
                    else:
                        push((t, seq, frame))
                        seq += 1
                else:
                    m = heap[0][0] if heap else inf
                    if t < m:
                        seq += 1
                        if t > horizon:
                            engine._seq = seq
                            engine._parked = parked
                            engine.now_s = now
                            self.in_flight = in_flight
                            return (t, seq - 1, frame), count
                        now = t  # frame unchanged: rerun it inline
                        continue
                    push((t, seq, frame))
                    seq += 1
            # Deferred same-instant wakes drain inline once the queue
            # head is strictly past `now`; a queued event still at
            # `now` holds a smaller sequence number and goes first.
            if dws and (heap[0][0] if heap else inf) > now:
                frame = dws_popleft()
                continue
            try:
                event = pop()
            except IndexError:
                engine._seq = seq
                engine._parked = parked
                engine.now_s = now
                self.in_flight = in_flight
                return None, count
            if event[0] > horizon:
                while dws:
                    push((now, seq, dws_popleft()))
                    seq += 1
                engine._seq = seq
                engine._parked = parked
                engine.now_s = now
                self.in_flight = in_flight
                return event, count
            if san is not None and event[0] < now:
                engine._seq = seq
                engine._parked = parked
                engine.now_s = now
                self.in_flight = in_flight
                san.backwards_time(event[0], now)
            now, _, frame = event

