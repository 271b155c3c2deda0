"""NVMe-style queue-pair host session over the SSD command scheduler.

The batch-drain host API (``read_many``/``write_many`` running every
homogeneous batch to its makespan before the next is admitted) hides the
device's steady-state behaviour: inter-batch pipelining dies at every
batch boundary, mixed reads and writes are never in flight together, and
latency percentiles exclude host-side queueing.  :class:`SsdSession` is
the open-loop replacement — the software analogue of an NVMe submission
/ completion queue pair:

* :meth:`SsdSession.submit` checks one :class:`IoCommand` (a logical
  read or write: kind, LPN range, write length), posts it at the
  current simulation time and returns its submission **tag**.  The I/O
  is *staged* when the in-flight window admits it (at once if the
  window is open): its data path runs through the striped FTL (same
  shard controllers, same RNG streams as the batch API) and its
  command's timing joins the resident
  :class:`~repro.ssd.scheduler.SchedulerCore` — planes, channel buses,
  ECC engines and cache registers stay serially-reusable resources, and
  new submissions overlap commands already in flight;
* completions are delivered on the session's DES engine: each finished
  command appends an :class:`IoCompletion` (submit / dispatch /
  completion timestamps, so queueing and service time are separable)
  to the completion queue, which the host drains with
  :meth:`SsdSession.take_completions`;
* an optional ``queue_depth`` models the device-side in-flight window:
  submissions beyond it wait unstaged in the session's submission
  backlog and are staged, in submission order, as earlier commands
  complete (the wait is visible as ``IoCompletion.queue_s``);
* :meth:`SsdSession.trim` discards a logical page in submission order:
  it applies once every earlier submission has been staged, so a trim
  never overtakes a write still in the backlog.

:meth:`SsdSession.execute` is the one way a closed batch is
scheduled: it drains one pre-built command batch on the resident core,
re-based to a zero clock while idle, so a batch's timeline (per-command
latencies, completion order, makespan) does not depend on what the
session ran before.  ``DieStripedFtl.read_many``/``write_many`` route
through it.

A session routes logical I/O for one striped FTL, :attr:`SsdSession.ftl`,
and each :class:`~repro.ssd.striped.DieStripedFtl` builds its own
session on first use; a session may also be built over the bare
:class:`~repro.ssd.device.SsdDevice` for command streams and closed
batches that carry no logical I/O.

Every session drives the scheduler's one dispatch core on its engine's
one event list; no knob selects another implementation.  The golden
digests in ``tests/ssd/test_dispatch_golden.py`` pin the timelines of
``submit``, ``execute`` and every GC mode.

Garbage collection and the timeline — three session modes.  Every mode
stages I/O the same way, at admission; ``gc_mode`` decides only where
collections run and how they meet the host window:

* ``gc_mode="sync"`` (default): collections run synchronously inside
  the FTL data path, off the timeline — the locked bit-exact baseline.
* ``"foreground"``: every collection a submission triggers is replayed
  as GC-origin die commands on the timeline, and the host window is
  frozen while GC commands are in flight — the classic
  write-cliff-with-stalls device, and the synchronous-GC baseline for
  the sustained-write benchmark.
* ``"background"``: collections are additionally triggered by per-die
  free-block watermarks and idle dies (see
  :class:`~repro.ftl.gc.GcConfig`), GC commands *overlap* host I/O —
  they never consume the host queue-depth window, and the per-plane
  dispatch pop gives host commands priority over queued GC work.

In every mode a closed :meth:`SsdSession.execute` batch collects off
the timeline, synchronously in its data path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.controller.core import check_page_data
from repro.errors import SimulationError
from repro.ftl.gc import GcConfig, GcMigration
from repro.sim.engine import SimEngine
from repro.ssd.scheduler import (
    DieCommand,
    ScheduleResult,
    SchedulerCore,
    validate_batch,
)
from repro.workloads.traces import TraceOpKind

#: Valid ``SsdSession(gc_mode=...)`` values.
GC_MODES = ("sync", "foreground", "background")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (striped uses session)
    from repro.obs.counters import CounterRegistry
    from repro.ssd.device import SsdDevice
    from repro.ssd.striped import DieStripedFtl


@dataclass(frozen=True)
class IoCommand:
    """One host I/O against a logical page.

    ``issue_s`` is the op's arrival timestamp in an open-loop stream —
    informational here (an arrival loop uses it to pace submissions);
    the session stamps the actual submit time when :meth:`SsdSession.submit`
    is called.  Only reads and writes travel through the queue pair;
    trims go through :meth:`SsdSession.trim`.
    """

    kind: TraceOpKind
    lpn: int
    data: bytes = b""
    issue_s: float = 0.0


@dataclass(frozen=True)
class IoCompletion:
    """Completion-queue entry for one submitted I/O.

    The three timestamps decompose the end-to-end latency: ``submit_s``
    (host posted the command), ``dispatch_s`` (the in-flight window
    admitted it to the scheduler core) and ``done_s`` (data transferred
    and decoded/programmed).
    """

    tag: int
    kind: TraceOpKind
    lpn: int
    data: bytes | None
    submit_s: float
    dispatch_s: float
    done_s: float

    @property
    def latency_s(self) -> float:
        """End-to-end latency, host-side queueing included."""
        return self.done_s - self.submit_s

    @property
    def queue_s(self) -> float:
        """Submission-to-dispatch wait in the host queue."""
        return self.dispatch_s - self.submit_s

    @property
    def service_s(self) -> float:
        """Dispatch-to-completion time on the device."""
        return self.done_s - self.dispatch_s


@dataclass(frozen=True)
class _IoRecord:
    """Submission-side bookkeeping awaiting a completion."""

    kind: TraceOpKind
    lpn: int
    data: bytes | None
    submit_s: float


class SsdSession:
    """A persistent submission/completion queue pair over one SSD.

    The session routes :meth:`submit` and :meth:`trim` through one
    striped FTL, :attr:`ftl`, given at construction or assigned before
    the first submission; ``ssd`` defaults to that FTL's device.  In a
    scheduled GC mode the FTL's collectors are pointed at the session
    at construction, or by the first submit or trim after ``ftl`` is
    assigned.  Host commands and GC commands share the resident
    scheduler core, so they contend for planes, buses and ECC engines
    on one timeline.

    ``queue_depth`` bounds the device-side in-flight window for
    :meth:`submit` traffic (``None`` = unbounded, pure open loop);
    overflow waits in the session's submission backlog.

    ``gc_mode`` selects where collections run (see the module
    docstring); ``gc_config`` tunes the victim policy and the background
    watermarks.  In every mode a submission beyond the admission window
    waits *unstaged* in the backlog: its data path runs when the window
    admits it, under the FTL state and controller configuration current
    then, so GC triggers spread over the run instead of front-loading at
    submit.  Discard pages through :meth:`trim`, not the FTL's own
    ``trim``, so a discard keeps its place behind backlogged writes.
    """

    def __init__(
        self,
        ftl: "DieStripedFtl | None" = None,
        *,
        ssd: "SsdDevice | None" = None,
        engine: SimEngine | None = None,
        queue_depth: int | None = None,
        recorder=None,
        gc_mode: str = "sync",
        gc_config: GcConfig | None = None,
    ):
        if ssd is None:
            if ftl is None:
                raise SimulationError("a session needs an FTL or an SSD")
            ssd = ftl.ssd
        if queue_depth is not None and queue_depth < 1:
            raise SimulationError("queue depth must be >= 1")
        if gc_mode not in GC_MODES:
            raise SimulationError(
                f"gc_mode must be one of {GC_MODES}, not {gc_mode!r}"
            )
        self.ftl = ftl
        self.ssd = ssd
        self.engine = engine or SimEngine()
        self.queue_depth = queue_depth
        self.gc_mode = gc_mode
        self.gc_config = gc_config if gc_config is not None else GcConfig()
        #: Optional :class:`~repro.obs.trace.TraceRecorder`; spans cover
        #: every command this session dispatches (see ``repro.obs``).
        self.recorder = recorder
        self.core = SchedulerCore(
            self.engine, ssd.topology, ssd.pipeline, recorder=recorder,
            host_priority=(gc_mode == "background"),
        )
        self.core.start()
        # Park the resident dispatch frames on their idle flags so the
        # engine is idle (drained) before the first submission.
        self.engine.run()
        self.core.on_finish.append(self._on_command_finish)
        #: Completion queue (append-only, completion order).
        self.completions: list[IoCompletion] = []
        self._io: dict[int, _IoRecord] = {}
        # Unstaged submissions in order, as (io, tag, submit_s); a trim
        # waits among them as (lpn, None, None).
        self._backlog: deque[tuple] = deque()
        self._next_tag = 0
        # Scheduled-GC state: tag -> (shard GcStats, die) for in-flight
        # GC commands, per-die in-flight counts, per-die watermark
        # hysteresis flags, the capture gate that routes sink calls
        # onto the timeline (only while a submission stages or a
        # background collection runs — never inside execute()), and
        # the FTL whose collectors the session installed.
        self._gc_tags: dict[int, tuple] = {}
        self._gc_inflight = 0
        self._gc_die_inflight = [0] * ssd.topology.dies
        self._gc_active = [False] * ssd.topology.dies
        self._gc_capture = False
        self._gc_ftl: "DieStripedFtl | None" = None
        if ftl is not None:
            self._install_gc(ftl)

    # -- open-loop submission stream ---------------------------------------------

    @property
    def in_flight(self) -> int:
        """Commands dispatched to the device and not yet complete."""
        return self.core.in_flight

    @property
    def backlog(self) -> int:
        """Submissions (and trims behind them) waiting for the window."""
        return len(self._backlog)

    def submit(self, io: IoCommand) -> int:
        """Post one I/O to the submission queue; returns its tag.

        Callable from host code between engine runs or from a host
        frame on the session's core (:meth:`SchedulerCore.spawn
        <repro.ssd.scheduler.SchedulerCore.spawn>`, as the open-loop
        runner's arrivals do).  The routed :attr:`ftl` (a session with
        none raises), the kind, the LPN range and the write length are
        checked before a tag is allocated, so a rejected I/O takes no
        tag and joins no backlog.  The FTL data path (mapping,
        allocation, ECC, error injection) runs when the in-flight window
        admits the I/O — at once if it is open and nothing is
        backlogged; the command's timing is played out on the session's
        timeline and its :class:`IoCompletion` lands in the completion
        queue (:meth:`take_completions`).
        """
        ftl = self.ftl
        if ftl is not self._gc_ftl or ftl is None:
            self._install_gc(ftl)
        if io.kind is not TraceOpKind.READ and io.kind is not TraceOpKind.WRITE:
            raise SimulationError(
                f"sessions carry reads and writes only, not {io.kind}"
            )
        ftl.route(io.lpn)
        if io.kind is TraceOpKind.WRITE:
            check_page_data(io.data, ftl.geometry.page_data_bytes)
        tag = self._next_tag
        self._next_tag += 1
        self._backlog.append((io, tag, self.engine.now_s))
        self._pump()
        return tag

    def trim(self, lpn: int) -> None:
        """Discard a logical page once every earlier submission is staged.

        Applies at once when the backlog is empty; otherwise it waits
        behind the backlogged I/O, so a trim never overtakes an earlier
        write.  An unmapped page is left alone.  A trim takes no tag and
        produces no completion.
        """
        ftl = self.ftl
        if ftl is not self._gc_ftl or ftl is None:
            self._install_gc(ftl)
        ftl.route(lpn)
        self._backlog.append((lpn, None, None))
        self._pump()

    def take_completions(self) -> list[IoCompletion]:
        """Drain and return the completion queue (completion order)."""
        done = self.completions
        self.completions = []
        return done

    def drain(self) -> float:
        """Run the session engine until every in-flight I/O completes.

        Returns the simulation time reached.  The resident dispatch
        frames stay parked for the next submission.
        """
        end = self.engine.run()
        if self.core.in_flight or self._backlog:
            raise SimulationError(
                f"session drained with {self.core.in_flight} in flight and "
                f"{len(self._backlog)} backlogged"
            )
        if self.engine.sanitizer is not None:
            # The busy accumulators and the clock both measure "since
            # the last execute()" (rebase and reset always co-occur),
            # so conservation holds against the current clock.
            self.engine.sanitizer.check_drain(self.core, end)
        # IoCompletions were already routed to the session's queue; the
        # core's raw list would otherwise grow without bound.
        self.core.completions.clear()
        return end

    # -- closed-loop batch surface -------------------------------------------------

    def execute(
        self,
        commands: list[DieCommand],
        queue_depth: int | None = None,
    ) -> ScheduleResult:
        """Drain one closed batch of pre-built die commands.

        The closed-batch surface behind ``read_many``/``write_many``:
        requires an idle session (nothing in flight, empty backlog, no
        scheduled events) and a valid batch, re-bases the clock to zero,
        zeroes the busy accumulators, installs the batch on the core's
        admission frame with
        :meth:`~repro.ssd.scheduler.SchedulerCore.submit_batch` at
        ``queue_depth`` (``None`` admits it all at once) and runs the
        engine until the batch drains.  Returns the batch's completions,
        makespan and busy lists; the timelines are pinned in
        ``tests/ssd/test_dispatch_golden.py``.  A batch that cannot
        drain (a frame parked on a lock nothing will release) raises the
        engine's deadlock :class:`SimulationError`.

        The session's completion hook is detached for the batch: its
        completions route no I/O and start no background collection,
        whose session-counter tags could collide with the batch's.
        Other ``on_finish`` callbacks, a trace recorder's, still run.
        """
        if not self.core.idle or self._backlog:
            raise SimulationError(
                "execute() needs an idle session; use submit() to overlap "
                "with in-flight commands"
            )
        if not self.engine.idle:
            raise SimulationError(
                "execute() needs an idle engine (no scheduled events)"
            )
        validate_batch(self.core.topology, commands, queue_depth)
        self.engine.rebase()
        self.core.reset_accounting()
        self.core.completions.clear()
        self.core.submit_batch(commands, queue_depth)
        on_finish = self.core.on_finish
        slot = on_finish.index(self._on_command_finish)
        del on_finish[slot]
        try:
            makespan = self.engine.run()
        finally:
            on_finish.insert(slot, self._on_command_finish)
        completions = list(self.core.completions)
        if len(completions) != len(commands):
            raise SimulationError(
                f"session completed {len(completions)} of "
                f"{len(commands)} commands"
            )
        if self.engine.sanitizer is not None:
            self.engine.sanitizer.check_drain(self.core, makespan)
        return ScheduleResult(
            completions=completions,
            makespan_s=makespan,
            die_busy_s=list(self.core.die_busy_s),
            channel_busy_s=list(self.core.channel_busy_s),
            ecc_busy_s=list(self.core.ecc_busy_s),
        )

    # -- telemetry -----------------------------------------------------------------

    def metrics(self, registry=None) -> "CounterRegistry":
        """SMART-style counter snapshot of the whole device stack.

        Pulls every layer's lifetime accounting into one
        :class:`~repro.obs.counters.CounterRegistry`: media operation
        counts and per-die wear from each
        :class:`~repro.nand.device.NandFlashDevice`, corrected bits /
        decode failures / observed RBER from the BCH codec path, host
        ops, GC migrations and write amplification from the routed FTL,
        and the session's own queue-pair counters and busy totals.
        Pass an existing ``registry`` to merge (scalars accumulate).
        """
        from repro.obs.counters import CounterRegistry

        if registry is None:
            registry = CounterRegistry()
        for controller in self.ssd.controllers:
            controller.populate_counters(registry)
        bits = registry.get("ecc_bits_processed")
        if bits:
            registry.set(
                "ecc_observed_rber",
                registry.get("ecc_corrected_bits") / bits,
            )
        if self.ftl is not None:
            self.ftl.populate_counters(registry)
        registry.set("session_submissions", self._next_tag, "ios")
        registry.set("session_in_flight", self.core.in_flight, "ios")
        registry.set("session_backlog", len(self._backlog), "ios")
        registry.set("session_gc_mode", self.gc_mode)
        if self.gc_mode != "sync":
            registry.set(
                "session_gc_in_flight", self._gc_inflight, "commands"
            )
            registry.set(
                "session_gc_active_dies",
                sum(1 for flag in self._gc_active if flag),
                "dies",
            )
        registry.set("die_busy_s", list(self.core.die_busy_s), "s")
        registry.set("channel_busy_s", list(self.core.channel_busy_s), "s")
        registry.set("ecc_busy_s", list(self.core.ecc_busy_s), "s")
        return registry

    # -- internals -----------------------------------------------------------------

    def _on_command_finish(self, completion) -> None:
        gc_entry = self._gc_tags.pop(completion.tag, None)
        if gc_entry is not None:
            # A GC-origin command retired: charge its resource busy
            # time (sum of phase durations, precomputed at staging) to
            # the owning shard's scheduled-GC accounting.
            stats, die, busy_s = gc_entry
            stats.scheduled_busy_s += busy_s
            self._gc_inflight -= 1
            self._gc_die_inflight[die] -= 1
        else:
            record = self._io.pop(completion.tag, None)
            if record is not None:
                self.completions.append(IoCompletion(
                    tag=completion.tag,
                    kind=record.kind,
                    lpn=record.lpn,
                    data=record.data,
                    submit_s=record.submit_s,
                    dispatch_s=completion.admit_s,
                    done_s=completion.done_s,
                ))
        self._pump()
        if self.gc_mode == "background":
            self._maybe_background_collect()

    def _window_open(self) -> bool:
        """Whether the in-flight window admits one more host I/O.

        Foreground mode closes it while GC commands are in flight;
        otherwise GC commands are subtracted, so background collection
        never eats host depth (sync mode never has any in flight).
        """
        if self._gc_inflight and self.gc_mode == "foreground":
            return False
        if self.queue_depth is None:
            return True
        return self.core.in_flight - self._gc_inflight < self.queue_depth

    def _pump(self) -> None:
        """Stage the backlog in submission order while the window admits.

        A trim applies as soon as it reaches the head: everything
        submitted before it has been staged.
        """
        backlog = self._backlog
        while backlog:
            item, tag, submit_s = backlog[0]
            if tag is None:  # a trim: item is its LPN
                backlog.popleft()
                ftl = self.ftl
                if ftl.is_mapped(item):
                    ftl.trim(item)
            elif self._window_open():
                backlog.popleft()
                self._stage(item, tag, submit_s)
            else:
                break

    def _stage(self, io: IoCommand, tag: int, submit_s: float) -> None:
        """Run one I/O's data path and enqueue its command.

        Runs with GC capture on, so in a scheduled mode any collection
        ``_provision`` triggers is replayed as GC-origin commands
        enqueued *before* the host command that needed the space.
        """
        ftl = self.ftl
        self._gc_capture = True
        try:
            if io.kind is TraceOpKind.READ:
                datas, commands = ftl.stage_reads([io.lpn], tags=(tag,))
                data = datas[0]
            else:
                commands = ftl.stage_writes(
                    [(io.lpn, io.data)], tags=(tag,)
                )
                data = None
        finally:
            self._gc_capture = False
        self._io[tag] = _IoRecord(io.kind, io.lpn, data, submit_s)
        self.core.enqueue(commands[0], submit_s=submit_s)

    # -- scheduled-GC machinery ------------------------------------------------------

    def _install_gc(self, ftl: "DieStripedFtl | None") -> None:
        """Route through ``ftl``: point its collectors at this timeline.

        Runs on the first submit or trim (or at construction with an
        FTL).  In sync mode, whose collections stay off the timeline,
        it installs nothing.
        """
        if ftl is None:
            raise SimulationError(
                "session has no FTL: pass one at construction or set "
                "session.ftl"
            )
        self._gc_ftl = ftl
        if self.gc_mode == "sync":
            return
        for die, shard in enumerate(ftl.shards):
            shard.gc.policy = self.gc_config.policy
            shard.gc.sink = partial(self._on_gc_migration, die)

    def _on_gc_migration(self, die: int, migration: GcMigration) -> bool:
        """Shard-collector sink: replay a migration on the timeline.

        Returns False (sync accounting) outside a capture window — a
        closed ``execute()`` batch or direct FTL use stays untouched.
        """
        if not self._gc_capture:
            return False
        ftl = self._gc_ftl
        count = len(migration.reads) + len(migration.writes) + 1
        tags = range(self._next_tag, self._next_tag + count)
        commands = ftl.gc_commands(die, migration, tags)
        self._next_tag += count
        stats = ftl.shards[die].gc.stats
        submit_s = self.engine.now_s
        for command in commands:
            busy_s = sum(phase.duration_s for phase in command.phases)
            self._gc_tags[command.tag] = (stats, die, busy_s)
            self._gc_inflight += 1
            self._gc_die_inflight[die] += 1
            self.core.enqueue(command, submit_s=submit_s)
        return True

    def _maybe_background_collect(self) -> None:
        """Watermark- and idle-triggered collection, one stripe per pass.

        Hysteresis: a die turns *active* when its free-block pool drops
        to the low watermark and stays active until the pool refills to
        the high one — no thrash at the boundary.  An idle die (no
        commands in flight) also collects eagerly below the high
        watermark.  The eligible dies collect one superblock stripe, the
        same block on each (:meth:`DieStripedFtl.pick_striped_victim
        <repro.ssd.striped.DieStripedFtl.pick_striped_victim>`), so the
        collection runs die-parallel.  At most one collection is in
        flight per die.
        """
        ftl = self._gc_ftl
        if ftl is None:
            return
        config = self.gc_config
        active = self._gc_active
        die_gc = self._gc_die_inflight
        die_host = self.core.die_inflight
        eligible = []
        for die, shard in enumerate(ftl.shards):
            free = shard.allocator.free_block_count
            if free <= config.low_water_blocks:
                active[die] = True
            elif free >= config.high_water_blocks:
                active[die] = False
            if die_gc[die]:
                continue  # one collection in flight per die
            if active[die] or (
                free < config.high_water_blocks and die_host[die] == 0
            ):
                eligible.append(die)
        if not eligible:
            return
        stripe = ftl.pick_striped_victim(eligible)
        if stripe is None:
            return
        self._gc_capture = True
        try:
            for die, victim in zip(eligible, stripe):
                gc = ftl.shards[die].gc
                if gc.collect_block(victim) is not None:
                    gc.stats.background_collections += 1
        finally:
            self._gc_capture = False
