"""Host traffic driving the memory controller, FTL and SSD.

A closed-loop host issues page operations from a workload trace one
batched group at a time; operation service times come from the
controller's latency accounting, so the simulated throughput is the
end-to-end figure including OCP transfer, ECC and flash-array time.  A
closed loop has one host and nothing to interleave, so its runners
are plain loops: the host clock is the running sum of every group's
latency (or makespan) plus think time, and no DES runs.

Four hosts are modelled: :func:`run_host_workload` drives physical page
addresses straight into the controller (every run of the trace, one page
or many, goes through ``read_batch``/``write_batch`` and therefore the
device's ``read_pages``/``program_pages`` datapath), :func:`run_ftl_workload`
drives *logical* pages through a flash translation layer's
``read_many``/``write_many`` — out-of-place updates, GC and all —
:func:`run_ssd_workload` drives a die-striped multi-die SSD closed-loop
(each group drains through
:meth:`SsdSession.execute <repro.ssd.session.SsdSession.execute>`, so
its elapsed time is the *scheduled makespan*, die-parallel and
channel-arbitrated, rather than a serial latency sum), and
:func:`run_open_loop_workload` drives the SSD through its
:class:`~repro.ssd.session.SsdSession` queue pair: operations arrive at
their trace ``issue_s`` timestamps regardless of what is in flight, so
the measured behaviour is the *steady state* — sustained throughput at
the offered rate, and end-to-end latency percentiles that include
host-side queueing.  Its arrivals are a host frame on the session's
scheduler core, so they share the DES event list with the commands
they submit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.controller.controller import NandController
from repro.errors import SimulationError
from repro.ftl.ftl import FlashTranslationLayer
from repro.obs.histogram import StreamingLatencyStats
from repro.sim.stats import LatencyStats, ThroughputStats
from repro.workloads.traces import QueuedTrace, TraceOp, TraceOpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ssd uses sim)
    from repro.ssd.session import SsdSession
    from repro.ssd.striped import DieStripedFtl


@dataclass
class HostWorkload:
    """One host stream: a named sequence of trace operations.

    ``batch_pages`` groups up to that many consecutive same-kind reads
    or writes into one controller ``read_batch`` / ``write_batch`` call
    (1 issues one page per call) — the host-side analogue of a deep I/O
    queue.  The latency accounting does not depend on the grouping; the
    software encode/decode work is batched, and at RBER > 0 the read
    errors are drawn per call, so the draws do depend on it.

    ``queue_depth`` only matters to the SSD runner: it bounds how many
    page commands the command scheduler keeps in flight at once (0 means
    "as deep as the batch").  Single-device runners serialise every
    operation regardless.

    A ``batch_pages`` below 1, a negative ``queue_depth`` or a
    ``think_time_s`` that is not ``>= 0`` (NaN included) raises
    :class:`~repro.errors.SimulationError` here, before any runner
    starts.
    """

    name: str
    operations: list[TraceOp]
    think_time_s: float = 0.0
    batch_pages: int = 1
    queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.batch_pages < 1:
            raise SimulationError(
                f"batch_pages must be >= 1, not {self.batch_pages}"
            )
        if self.queue_depth < 0:
            raise SimulationError(
                f"queue depth must be >= 0, not {self.queue_depth}"
            )
        if not self.think_time_s >= 0.0:
            raise SimulationError(
                f"think time must be >= 0, not {self.think_time_s!r}"
            )

    @classmethod
    def from_trace(
        cls,
        name: str,
        trace: QueuedTrace | list[TraceOp],
        think_time_s: float = 0.0,
        batch_pages: int = 1,
    ) -> "HostWorkload":
        """Build a workload from a trace, honouring its queue depth."""
        if isinstance(trace, QueuedTrace):
            return cls(
                name,
                trace.operations,
                think_time_s=think_time_s,
                batch_pages=batch_pages,
                queue_depth=trace.queue_depth,
            )
        return cls(
            name, trace, think_time_s=think_time_s, batch_pages=batch_pages
        )


@dataclass
class WorkloadResult:
    """Outcome of a simulated workload run.

    ``queue_latency`` and ``service_latency`` decompose each operation's
    end-to-end time where the runner can see it (the SSD runners): the
    submit→dispatch wait in the host queue versus the dispatch→complete
    time on the device.  The latency collectors are exact
    :class:`~repro.sim.stats.LatencyStats` for the closed-loop runners
    and streaming histograms
    (:class:`~repro.obs.histogram.StreamingLatencyStats`) for the
    open-loop runner — same reporting surface either way.

    The SSD runners also surface the scheduler's own accounting:
    ``die_busy_s`` / ``channel_busy_s`` / ``ecc_busy_s`` are the
    per-resource busy-time totals attributable to this run.
    ``corrected_bits`` likewise counts the bits corrected during this
    run only, not the FTL's lifetime total.
    """

    name: str
    elapsed_s: float
    stats: ThroughputStats
    uncorrectable_pages: int = 0
    corrected_bits: int = 0
    queue_latency: LatencyStats = field(default_factory=LatencyStats)
    service_latency: LatencyStats = field(default_factory=LatencyStats)
    die_busy_s: list[float] = field(default_factory=list)
    channel_busy_s: list[float] = field(default_factory=list)
    ecc_busy_s: list[float] = field(default_factory=list)

    @property
    def read_mb_s(self) -> float:
        """Sustained read throughput."""
        return self.stats.read_mb_s(self.elapsed_s)

    @property
    def write_mb_s(self) -> float:
        """Sustained write throughput."""
        return self.stats.write_mb_s(self.elapsed_s)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of per-operation read and write latencies.

        For the SSD runners these are per-command latencies with
        queueing behind dies and buses included (and, open loop, the
        host-queue wait as well), so deep host queues show up as a
        widening p50 -> p99 spread even when throughput improves.  The
        ``queue_*``/``service_*`` keys split the mean path into
        submit→dispatch and dispatch→complete; they are zero for runners
        that never queue host-side.
        """
        return {
            "read_p50_s": self.stats.read_latency.p50_s,
            "read_p95_s": self.stats.read_latency.p95_s,
            "read_p99_s": self.stats.read_latency.p99_s,
            "write_p50_s": self.stats.write_latency.p50_s,
            "write_p95_s": self.stats.write_latency.p95_s,
            "write_p99_s": self.stats.write_latency.p99_s,
            "queue_p50_s": self.queue_latency.p50_s,
            "queue_p95_s": self.queue_latency.p95_s,
            "queue_p99_s": self.queue_latency.p99_s,
            "service_p50_s": self.service_latency.p50_s,
            "service_p95_s": self.service_latency.p95_s,
            "service_p99_s": self.service_latency.p99_s,
        }


class _LpnNamespace:
    """First-seen (block, page) -> LPN naming with a per-block index.

    Logical hosts treat trace addresses as page *names*; the per-block
    index makes an ERASE op O(pages in that block) instead of a rescan
    of every name the trace ever used.
    """

    def __init__(self) -> None:
        self._lpns: dict[tuple[int, int], int] = {}
        self._by_block: dict[int, list[int]] = {}

    def lpn_of(self, op: TraceOp) -> int:
        """Name (allocating on first sight) the op's logical page."""
        key = (op.block, op.page)
        lpn = self._lpns.get(key)
        if lpn is None:
            lpn = len(self._lpns)
            self._lpns[key] = lpn
            self._by_block.setdefault(op.block, []).append(lpn)
        return lpn

    def block_lpns(self, block: int) -> list[int]:
        """Every LPN ever named inside one trace block (first-seen order)."""
        return self._by_block.get(block, [])

    def discard_block(self, ftl, block: int) -> None:
        """Host-side ERASE: trim every mapped page of one trace block."""
        for lpn in self.block_lpns(block):
            if ftl.is_mapped(lpn):
                ftl.trim(lpn)


def preread_lpns(operations: list[TraceOp]) -> list[int]:
    """LPNs a trace reads before ever writing (host first-seen naming).

    The logical runners name trace pages first-seen (reads and writes
    share one namespace; ERASE ops name nothing), so a workload whose
    stream re-reads pre-existing data must pre-write exactly these LPNs
    — computed with the same :class:`_LpnNamespace` rule the runner will
    apply at replay time.
    """
    names = _LpnNamespace()
    lpns = []
    for op in operations:
        if op.kind is TraceOpKind.ERASE:
            continue
        fresh = (op.block, op.page) not in names._lpns
        lpn = names.lpn_of(op)
        if fresh and op.kind is TraceOpKind.READ:
            lpns.append(lpn)
    return lpns


def _batched_ops(operations: list[TraceOp], batch_pages: int):
    """Split a trace into runs of consecutive same-kind ops (<= batch)."""
    group: list[TraceOp] = []
    for op in operations:
        if group and (op.kind is not group[0].kind or len(group) >= batch_pages):
            yield group
            group = []
        group.append(op)
    if group:
        yield group


def run_host_workload(
    controller: NandController,
    workload: HostWorkload,
) -> WorkloadResult:
    """Simulate one closed-loop host stream to completion."""
    result = WorkloadResult(
        name=workload.name, elapsed_s=0.0, stats=ThroughputStats()
    )
    page_bytes = controller.geometry.page_data_bytes
    for group in _batched_ops(workload.operations, workload.batch_pages):
        kind = group[0].kind
        latency = 0.0
        if kind is TraceOpKind.WRITE:
            reports = controller.write_batch(
                [(op.block, op.page, op.data) for op in group]
            )
            for report in reports:
                op_latency = report.latencies.total_s
                result.stats.observe_write(page_bytes, op_latency)
                latency += op_latency
        elif kind is TraceOpKind.READ:
            reads = controller.read_batch(
                [(op.block, op.page) for op in group]
            )
            for _, report in reads:
                op_latency = report.latencies.total_s
                result.stats.observe_read(page_bytes, op_latency)
                result.corrected_bits += report.corrected_bits
                if not report.success:
                    result.uncorrectable_pages += 1
                latency += op_latency
        else:  # ERASE (never grouped with data ops; issue one at a time)
            for op in group:
                latency += controller.erase(op.block)
        result.elapsed_s += float(
            latency + len(group) * workload.think_time_s
        )
    return result


def run_ftl_workload(
    ftl: FlashTranslationLayer,
    workload: HostWorkload,
) -> WorkloadResult:
    """Simulate a host stream against a flash translation layer.

    Trace (block, page) pairs are treated as logical page names (mapped
    to LPNs in first-appearance order); batched runs issue through the
    FTL's ``read_many``/``write_many`` so the whole stack — map lookup,
    allocation, batched encode/program and batched sense/decode — runs
    on the vectorized datapath.

    .. note:: This is a **closed-loop** model: each batch drains before
       the next is admitted, so sustained (steady-state) behaviour under
       continuous load is invisible.  For open-loop streams against a
       multi-die SSD, use :class:`~repro.ssd.session.SsdSession` via
       :func:`run_open_loop_workload`.
    """
    result = WorkloadResult(
        name=workload.name, elapsed_s=0.0, stats=ThroughputStats()
    )
    page_bytes = ftl.controller.geometry.page_data_bytes
    bits_before = ftl.stats.corrected_bits
    names = _LpnNamespace()
    for group in _batched_ops(workload.operations, workload.batch_pages):
        kind = group[0].kind
        latency = 0.0
        if kind is TraceOpKind.WRITE:
            for op_latency in ftl.write_many(
                [(names.lpn_of(op), op.data) for op in group]
            ):
                result.stats.observe_write(page_bytes, op_latency)
                latency += op_latency
        elif kind is TraceOpKind.READ:
            for _, op_latency in ftl.read_many(
                [names.lpn_of(op) for op in group]
            ):
                result.stats.observe_read(page_bytes, op_latency)
                latency += op_latency
        else:  # ERASE: logical hosts discard instead (GC reclaims later)
            for op in group:
                names.discard_block(ftl, op.block)
        result.corrected_bits = ftl.stats.corrected_bits - bits_before
        result.elapsed_s += float(
            latency + len(group) * workload.think_time_s
        )
    return result


def run_ssd_workload(
    ftl: "DieStripedFtl",
    workload: HostWorkload,
) -> WorkloadResult:
    """Simulate a closed-loop host stream against a die-striped SSD.

    Trace pages become LPNs exactly as in :func:`run_ftl_workload`, but
    every batched group drains through the FTL session's
    :meth:`~repro.ssd.session.SsdSession.execute` at the workload's
    ``queue_depth``: per-operation latencies include queueing behind
    dies and channel buses, and the group advances the clock by its
    scheduled makespan, so the sustained MB/s reflects channel/die
    parallelism.  The scheduler honours the SSD's
    :class:`~repro.ssd.scheduler.PipelineConfig` (cache reads,
    multi-plane, pipelined ECC), and the result's
    :meth:`WorkloadResult.latency_percentiles` expose the p50/p95/p99
    tail plus the queue/service split of the scheduled per-command
    latencies.

    .. note:: This is the **batch-drain** (closed-loop) wrapper over the
       session: every group runs to its makespan before the next is
       admitted, so inter-batch pipelining is deliberately excluded and
       mixed reads/writes are never in flight together.  For sustained
       steady-state behaviour, drive the session open loop with
       :func:`run_open_loop_workload` (arrival-stamped traces from
       :func:`~repro.workloads.traces.poisson_arrivals` /
       :func:`~repro.workloads.traces.fixed_rate_arrivals`).
    """
    result = WorkloadResult(
        name=workload.name, elapsed_s=0.0, stats=ThroughputStats()
    )
    page_bytes = ftl.geometry.page_data_bytes
    queue_depth = workload.queue_depth if workload.queue_depth > 0 else None
    bits_before = ftl.stats.corrected_bits
    names = _LpnNamespace()

    for group in _batched_ops(workload.operations, workload.batch_pages):
        kind = group[0].kind
        elapsed = 0.0
        if kind is TraceOpKind.WRITE:
            for op_latency in ftl.write_many(
                [(names.lpn_of(op), op.data) for op in group],
                queue_depth=queue_depth,
            ):
                result.stats.observe_write(page_bytes, op_latency)
        elif kind is TraceOpKind.READ:
            for _, op_latency in ftl.read_many(
                [names.lpn_of(op) for op in group], queue_depth=queue_depth
            ):
                result.stats.observe_read(page_bytes, op_latency)
        else:  # ERASE: logical hosts discard instead (GC reclaims later)
            for op in group:
                names.discard_block(ftl, op.block)
        if kind is not TraceOpKind.ERASE and ftl.last_schedule is not None:
            # The group's wall time is the scheduler's makespan — dies
            # overlap and channels arbitrate, so it is far less than the
            # serial sum of the observed per-op latencies.
            schedule = ftl.last_schedule
            elapsed = schedule.makespan_s
            for completion in schedule.completions:
                # Closed loop, the submit->dispatch wait is exactly the
                # queue-depth admission delay within the batch.
                result.queue_latency.observe(completion.queue_s)
                result.service_latency.observe(completion.latency_s)
            # Per-batch resource accounting sums into the run's totals
            # (execute() resets the core's accumulators every batch).
            if not result.die_busy_s:
                result.die_busy_s = [0.0] * len(schedule.die_busy_s)
                result.channel_busy_s = [0.0] * len(schedule.channel_busy_s)
                result.ecc_busy_s = [0.0] * len(schedule.ecc_busy_s)
            for index, busy in enumerate(schedule.die_busy_s):
                result.die_busy_s[index] += busy
            for index, busy in enumerate(schedule.channel_busy_s):
                result.channel_busy_s[index] += busy
            for index, busy in enumerate(schedule.ecc_busy_s):
                result.ecc_busy_s[index] += busy
        result.corrected_bits = ftl.stats.corrected_bits - bits_before
        result.elapsed_s += float(
            elapsed + len(group) * workload.think_time_s
        )
    return result


@dataclass
class OpenLoopWorkload:
    """One open-loop host stream: arrival-stamped trace operations.

    ``queue_depth`` bounds the device-side in-flight window (``None``
    keeps the queue pair unbounded — a pure open loop where the backlog
    absorbs any excess offered load).  The trace's ``issue_s``
    timestamps pace the arrivals; ops with non-increasing timestamps are
    submitted back-to-back.
    """

    name: str
    operations: list[TraceOp]
    queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.queue_depth is not None and self.queue_depth < 1:
            raise SimulationError("queue depth must be >= 1")


def run_open_loop_workload(
    ftl: "DieStripedFtl",
    workload: OpenLoopWorkload,
    session: "SsdSession | None" = None,
    on_completion=None,
) -> WorkloadResult:
    """Stream an arrival-stamped trace through the SSD's queue pair.

    A host frame (:meth:`~repro.ssd.scheduler.SchedulerCore.spawn`)
    submits each operation at its ``issue_s`` time — no batch drains,
    no waiting for earlier completions — so reads and writes from
    anywhere in the trace overlap on the device exactly as far as
    planes, buses and ECC engines allow, and the run measures
    steady-state behaviour: sustained MB/s at the offered rate, plus
    end-to-end latency percentiles whose queueing component
    (``queue_p*`` keys, submit→dispatch) is separated from device
    service time (``service_p*`` keys, dispatch→complete).

    Latencies stream into fixed-memory log-bucket histograms
    (:class:`~repro.obs.histogram.StreamingLatencyStats`) and
    completions are consumed as they land, so memory stays O(1) in the
    trace length; a caller that needs every completion collects them
    with ``on_completion``.  To trace a run, pass a session built with a
    :class:`~repro.obs.trace.TraceRecorder`.

    An ERASE op is a host-side discard: every page the trace has named
    in that block is trimmed through :meth:`SsdSession.trim
    <repro.ssd.session.SsdSession.trim>`, which keeps submission order —
    a trim applies once every earlier submission has been staged, so it
    never overtakes a write still in the backlog, and a page that is not
    mapped by then is left alone.  The result's ``elapsed_s`` is the
    time of the last completion, so throughput is the *completed* rate
    — past device saturation it stops tracking the offered rate, which
    is the throughput-saturation knee the open-loop model exists to
    expose.

    A passed ``session`` must route for ``ftl`` (``session.ftl is
    ftl``) and be idle — ``issue_s`` timestamps are absolute, so its
    clock is re-based to zero for the run; a workload ``queue_depth``
    applies for this run only.  Both are checked before anything is
    submitted.

    ``on_completion`` is an optional per-IoCompletion callback invoked
    as each completion is consumed (completion order) — the hook the
    sustained-write benchmark uses to window throughput over time
    without retaining every completion.
    """
    from repro.ssd.session import IoCommand, SsdSession

    if session is None:
        # A private session starts with a fresh clock already.
        session = SsdSession(ftl, queue_depth=workload.queue_depth)
    else:
        if session.ftl is not ftl:
            raise SimulationError(
                "open-loop runner needs a session that routes for its FTL "
                "(session.ftl is ftl)"
            )
        if (
            session.in_flight
            or session.backlog
            or not session.engine.idle
            or session.completions
        ):
            raise SimulationError(
                "open-loop runner needs an idle session with its "
                "completion queue drained"
            )
        session.engine.rebase()
    engine = session.engine
    names = _LpnNamespace()
    page_bytes = ftl.geometry.page_data_bytes
    core = session.core
    bits_before = ftl.stats.corrected_bits
    die_before = list(core.die_busy_s)
    channel_before = list(core.channel_busy_s)
    ecc_before = list(core.ecc_busy_s)
    result = WorkloadResult(
        name=workload.name,
        elapsed_s=0.0,
        stats=ThroughputStats(
            read_latency=StreamingLatencyStats(),
            write_latency=StreamingLatencyStats(),
        ),
        queue_latency=StreamingLatencyStats(),
        service_latency=StreamingLatencyStats(),
    )

    def observe(completion) -> None:
        # Last *completion*, not last engine event: an I/O-free tail of
        # the arrivals (e.g. a late-stamped ERASE) must not deflate the
        # completed rate.
        if completion.done_s > result.elapsed_s:
            result.elapsed_s = completion.done_s
        if completion.kind is TraceOpKind.READ:
            result.stats.observe_read(page_bytes, completion.latency_s)
        else:
            result.stats.observe_write(page_bytes, completion.latency_s)
        result.queue_latency.observe(completion.queue_s)
        result.service_latency.observe(completion.service_s)
        if on_completion is not None:
            on_completion(completion)

    def arrivals():
        for op in workload.operations:
            wait = op.issue_s - engine.now_s
            if wait > 0:
                yield wait
            # Consume the completion queue at every arrival instant so
            # the session's IoCompletion list never grows with the
            # trace (pure list swaps — no engine events, so the command
            # timeline is untouched).
            for completion in session.take_completions():
                observe(completion)
            if op.kind is TraceOpKind.ERASE:
                for lpn in names.block_lpns(op.block):
                    session.trim(lpn)
                continue
            session.submit(IoCommand(op.kind, names.lpn_of(op), op.data))

    # The workload's window applies for this run only — including
    # ``None``, the documented unbounded pure open loop.
    restore_depth = session.queue_depth
    session.queue_depth = workload.queue_depth
    try:
        core.spawn(arrivals())
        session.drain()
    finally:
        session.queue_depth = restore_depth
    for completion in session.take_completions():
        observe(completion)
    result.corrected_bits = ftl.stats.corrected_bits - bits_before
    result.die_busy_s = [
        busy - before for busy, before in zip(core.die_busy_s, die_before)
    ]
    result.channel_busy_s = [
        busy - before
        for busy, before in zip(core.channel_busy_s, channel_before)
    ]
    result.ecc_busy_s = [
        busy - before for busy, before in zip(core.ecc_busy_s, ecc_before)
    ]
    return result
