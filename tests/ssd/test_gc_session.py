"""Scheduled-GC session tests (ISSUE 9).

The contract under test, per mode:

* ``sync`` — the locked baseline: a session built with GC kwargs but
  ``gc_mode="sync"`` is **bit-exact** (host data and timelines) with a
  plain session.
* ``foreground`` — collections stall the host window: the classic
  synchronous-GC device the sustained-write benchmark baselines on.
* ``background`` — watermark/idle-triggered, die-parallel, faster than
  foreground on the same churn, observable via GC-origin trace spans
  and SMART counters.

Each mode's timeline is pinned by a golden digest in
``tests/ssd/test_dispatch_golden.py``.

Every mode shares one submission path, so two invariants hold in all
three: a trim never overtakes an earlier submission still in the
backlog, and ``submit`` rejects a bad I/O before it takes a tag.

Plus the watermark hysteresis state machine (unit-tested against a stub
FTL).
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import ControllerError, SimulationError
from repro.ftl.gc import GcConfig, GcStats
from repro.nand.geometry import NandGeometry
from repro.obs.trace import KIND_NAMES, TRACK_PLANE, TraceRecorder
from repro.sim.host import OpenLoopWorkload, run_open_loop_workload
from repro.ssd import (
    DieStripedFtl,
    IoCommand,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.workloads.traces import TraceOp, TraceOpKind

QUEUE_DEPTH = 4


def _page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * 4096


def _build(
    gc_mode="background",
    *,
    dies=2,
    recorder=None,
    gc_config=None,
    plain=False,
):
    """1ch x ``dies``-die SSD with a session in the requested GC mode.

    ``plain=True`` omits every GC kwarg — the historical constructor
    call the sync mode must stay bit-exact with.
    """
    topology = SsdTopology(
        channels=1,
        dies_per_channel=dies,
        geometry=NandGeometry(blocks=6, pages_per_block=4),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=2012,
        pipeline=PipelineConfig.full(),
    )
    ssd.set_mode(OperatingMode.BASELINE)
    kwargs = {} if plain else {
        "gc_mode": gc_mode,
        "gc_config": (
            GcConfig(policy="cost_benefit") if gc_config is None
            else gc_config
        ),
    }
    session = SsdSession(
        ssd=ssd,
        queue_depth=QUEUE_DEPTH,
        recorder=recorder,
        **kwargs,
    )
    ftl = DieStripedFtl(ssd, plane_interleave=True, session=session)
    session.ftl = ftl
    return ftl, session


def _churn(capacity: int, passes: float = 1.5, seed: int = 11):
    """Sequential fill, then random overwrites with a read every 4th."""
    rng = random.Random(seed)
    ops = [
        TraceOp(TraceOpKind.WRITE, 0, lpn, _page(lpn))
        for lpn in range(capacity)
    ]
    for index in range(int(capacity * passes)):
        if index % 4 == 3:
            ops.append(TraceOp(TraceOpKind.READ, 0, rng.randrange(capacity)))
        else:
            ops.append(TraceOp(
                TraceOpKind.WRITE, 0, rng.randrange(capacity),
                _page(96 + index),
            ))
    return ops


def _run(ftl, session, ops):
    """Run the stream; returns (WorkloadResult, host completions)."""
    done = []
    result = run_open_loop_workload(
        ftl,
        OpenLoopWorkload("churn", ops, queue_depth=QUEUE_DEPTH),
        session=session,
        on_completion=done.append,
    )
    return result, done


def _fingerprint(completions):
    """Full host-visible record: data AND the three timestamps."""
    return [
        (c.tag, c.kind, c.lpn, c.data, c.submit_s, c.dispatch_s, c.done_s)
        for c in completions
    ]


def _expected_read_datas(ops):
    """Per-READ expected payload, replaying the stream in order."""
    last: dict[tuple, bytes] = {}
    expected = []
    for op in ops:
        if op.kind is TraceOpKind.WRITE:
            last[(op.block, op.page)] = op.data
        elif op.kind is TraceOpKind.READ:
            expected.append(last[(op.block, op.page)])
    return expected


# ---------------------------------------------------------------------------
# Equivalence locks
# ---------------------------------------------------------------------------


class TestSyncEquivalence:
    def test_sync_mode_bit_exact_with_plain_session(self):
        """GC kwargs are inert in sync mode: same data, same timeline."""
        ftl, session = _build(plain=True)
        ops = _churn(ftl.logical_capacity)
        baseline, base_done = _run(ftl, session, ops)

        gc_ftl, gc_session = _build(
            "sync",
            gc_config=GcConfig(
                policy="cost_benefit", low_water_blocks=1,
                high_water_blocks=3,
            ),
        )
        locked, locked_done = _run(gc_ftl, gc_session, ops)

        # The lock must be exercised *under* collection pressure.
        assert ftl.gc_stats.collections > 0
        assert _fingerprint(locked_done) == _fingerprint(base_done)
        assert locked.elapsed_s == baseline.elapsed_s
        # Sync collections stay on the serial clock, not the timeline.
        assert gc_ftl.gc_stats.migration_time_s > 0.0
        assert gc_ftl.gc_stats.scheduled_busy_s == 0.0
        assert gc_ftl.gc_stats.background_collections == 0

    def test_invalid_gc_mode_rejected(self):
        ftl, _ = _build(plain=True)
        with pytest.raises(SimulationError):
            SsdSession(ftl, gc_mode="idle")


class TestCrossModeEquivalence:
    def test_host_data_identical_across_gc_modes(self):
        """Reads return the stream-order data in every GC mode."""
        ops = None
        for mode in ("sync", "foreground", "background"):
            ftl, session = _build(mode)
            if ops is None:
                ops = _churn(ftl.logical_capacity)
            _, done = _run(ftl, session, ops)
            reads = sorted(
                (c for c in done if c.kind is TraceOpKind.READ),
                key=lambda c: c.tag,
            )
            # Host tags grow in submission order (GC tags interleave in
            # the scheduled modes but never reach the host queue), so
            # sorting by tag restores stream order.
            assert [c.data for c in reads] == _expected_read_datas(ops)
            writes = [c for c in done if c.kind is TraceOpKind.WRITE]
            assert len(done) == len(reads) + len(writes)
            assert ftl.gc_stats.collections > 0

    def test_closed_batches_start_no_background_collection(self):
        """Overwrite passes through ``execute`` match a sync session.

        A closed batch tags its commands from zero, so a background
        collection started inside it (tagged from the session counter)
        would collide with the batch's tags.
        """
        def overwrite_passes(gc_mode):
            topology = SsdTopology(
                channels=1,
                dies_per_channel=2,
                geometry=NandGeometry(blocks=6, pages_per_block=8),
            )
            ssd = SsdDevice(topology, seed=1)
            session = SsdSession(ssd=ssd, gc_mode=gc_mode)
            ftl = DieStripedFtl(ssd, session=session)
            session.ftl = ftl
            # A submission hands the FTL's collectors to the session.
            session.submit(IoCommand(TraceOpKind.WRITE, 0, _page(0)))
            session.drain()
            latencies = [
                ftl.write_many([
                    (lpn, _page(round_)) for lpn in range(ftl.logical_capacity)
                ])
                for round_ in range(6)
            ]
            return latencies, ftl.stats, ftl.gc_stats

        background = overwrite_passes("background")
        assert background == overwrite_passes("sync")
        assert background[2].collections > 0
        assert background[2].background_collections == 0

    def test_background_overlap_beats_foreground_stalls(self):
        fg_ftl, fg_session = _build("foreground")
        ops = _churn(fg_ftl.logical_capacity)
        fg, _ = _run(fg_ftl, fg_session, ops)
        bg_ftl, bg_session = _build("background")
        bg, _ = _run(bg_ftl, bg_session, ops)

        assert bg.elapsed_s < fg.elapsed_s
        assert bg_ftl.gc_stats.background_collections > 0
        # Foreground has no watermark trigger: provisioning only.
        assert fg_ftl.gc_stats.background_collections == 0
        # Both scheduled modes charge the timeline, not the serial sum
        # (the migration_time_s double-count fix).
        for ftl in (fg_ftl, bg_ftl):
            assert ftl.gc_stats.scheduled_busy_s > 0.0
            assert ftl.gc_stats.migration_time_s == 0.0


# ---------------------------------------------------------------------------
# One submission path: trims in order, checks before the tag
# ---------------------------------------------------------------------------

GC_MODES = ("sync", "foreground", "background")


def _mapped(ftl, lpns):
    return [lpn for lpn in lpns if ftl.is_mapped(lpn)]


class TestTrimOrder:
    @pytest.mark.parametrize("gc_mode", GC_MODES)
    def test_erase_trims_writes_still_in_the_backlog(self, gc_mode):
        """At QD 1 the ERASE arrives while writes 1-3 are backlogged."""
        ftl, session = _build(gc_mode)
        ops = [
            TraceOp(TraceOpKind.WRITE, 0, page, _page(page))
            for page in range(4)
        ]
        ops.append(TraceOp(TraceOpKind.ERASE, 0))
        result = run_open_loop_workload(
            ftl, OpenLoopWorkload("trim", ops, queue_depth=1),
            session=session,
        )
        assert result.stats.writes == 4
        assert _mapped(ftl, range(4)) == []
        assert ftl.stats.trims == 4

    @pytest.mark.parametrize("gc_mode", GC_MODES)
    def test_trim_waits_for_earlier_submissions(self, gc_mode):
        ftl, session = _build(gc_mode)
        session.queue_depth = 1
        session.submit(IoCommand(TraceOpKind.WRITE, 0, _page(0)))
        session.submit(IoCommand(TraceOpKind.WRITE, 1, _page(1)))
        session.trim(0)
        session.trim(1)
        # Both trims wait behind the backlogged write to LPN 1.
        assert session.backlog == 3
        assert _mapped(ftl, range(2)) == [0]
        session.drain()
        assert _mapped(ftl, range(2)) == []
        assert [c.tag for c in session.take_completions()] == [0, 1]
        assert ftl.stats.trims == 2

    @pytest.mark.parametrize("gc_mode", GC_MODES)
    def test_trim_without_backlog_applies_at_once(self, gc_mode):
        ftl, session = _build(gc_mode)
        ftl.write_many([(lpn, _page(lpn)) for lpn in range(2)])
        session.trim(0)
        session.trim(3)  # never written: left alone
        assert _mapped(ftl, range(4)) == [1]
        assert session.backlog == 0 and ftl.stats.trims == 1
        # A trim takes no tag and produces no completion.
        assert session.submit(IoCommand(TraceOpKind.READ, 1)) == 0
        session.drain()
        assert [c.tag for c in session.take_completions()] == [0]

    def test_trim_outside_capacity_rejected(self):
        ftl, session = _build("sync")
        with pytest.raises(ControllerError):
            session.trim(ftl.logical_capacity)
        assert session.backlog == 0


class TestSubmitChecks:
    @pytest.mark.parametrize("window", ("open", "closed"))
    @pytest.mark.parametrize("gc_mode", GC_MODES)
    def test_rejected_submit_leaves_no_trace(self, gc_mode, window):
        ftl, session = _build(gc_mode)
        session.queue_depth = 1
        ftl.write_many([(lpn, _page(lpn)) for lpn in range(3)])
        reads = [0, 1] if window == "closed" else []
        for lpn in reads:
            session.submit(IoCommand(TraceOpKind.READ, lpn))
        backlog = session.backlog
        assert backlog == (1 if window == "closed" else 0)
        rejected = [
            (IoCommand(TraceOpKind.WRITE, ftl.logical_capacity, _page(0)),
             ControllerError),
            (IoCommand(TraceOpKind.WRITE, 2, bytes(5000)), ControllerError),
            (IoCommand(TraceOpKind.READ, -1), ControllerError),
            (IoCommand(TraceOpKind.ERASE, 2), SimulationError),
        ]
        for io, error in rejected:
            with pytest.raises(error):
                session.submit(io)
            assert session.backlog == backlog
        # The next valid I/O takes the tag the rejected ones would have.
        assert session.submit(IoCommand(TraceOpKind.READ, 2)) == len(reads)
        reads.append(2)
        session.drain()
        done = session.take_completions()
        assert [c.tag for c in done] == list(range(len(reads)))
        assert [c.data for c in done] == [_page(lpn) for lpn in reads]
        assert session.metrics().get("session_submissions") == len(reads)
        assert session._io == {}


# ---------------------------------------------------------------------------
# Watermark hysteresis (stub-FTL unit tests)
# ---------------------------------------------------------------------------


def _stub_shard(free_blocks: int):
    calls = []
    shard = SimpleNamespace(
        allocator=SimpleNamespace(free_block_count=free_blocks),
        gc=SimpleNamespace(
            collect_block=lambda block: (calls.append(block), block)[1],
            stats=GcStats(),
        ),
    )
    return shard, calls


class TestWatermarkHysteresis:
    def _session(self, shards, victim=3):
        """A background session routed for a stub FTL over ``shards``.

        The stub's superblock pick names ``victim`` on every eligible
        die and records which dies it was offered.
        """
        _, session = _build(
            "background",
            dies=len(shards),
            gc_config=GcConfig(
                policy="greedy", low_water_blocks=2, high_water_blocks=4
            ),
        )
        picks = []
        session._gc_ftl = SimpleNamespace(
            shards=shards,
            pick_striped_victim=lambda dies: (
                picks.append(list(dies)), [victim] * len(dies)
            )[1],
        )
        return session, picks

    def test_band_does_not_thrash_and_low_water_latches(self):
        shard, calls = _stub_shard(free_blocks=5)
        session, picks = self._session([shard])
        free = shard.allocator

        # Above the high watermark: nothing to do, idle or not.
        session._maybe_background_collect()
        assert calls == [] and not session._gc_active[0]

        # In the band with the die busy: inactive, and no idle trigger.
        free.free_block_count = 3
        session.core.die_inflight[0] = 1
        session._maybe_background_collect()
        assert calls == [] and not session._gc_active[0]

        # Same band, die idle: eager idle collection, still *inactive*.
        session.core.die_inflight[0] = 0
        session._maybe_background_collect()
        assert calls == [3] and not session._gc_active[0]

        # At the low watermark the die latches active: collects even
        # with host commands in flight.
        free.free_block_count = 2
        session.core.die_inflight[0] = 1
        session._maybe_background_collect()
        assert calls == [3, 3] and session._gc_active[0]

        # Back in the band, still busy: hysteresis keeps it active.
        free.free_block_count = 3
        session._maybe_background_collect()
        assert calls == [3, 3, 3] and session._gc_active[0]

        # Refilled to the high watermark: deactivates, no collection.
        free.free_block_count = 4
        session._maybe_background_collect()
        assert calls == [3, 3, 3] and not session._gc_active[0]
        assert shard.gc.stats.background_collections == 3
        # A pass with no eligible die asks for no victim.
        assert picks == [[0], [0], [0]]

    def test_superblock_collects_one_stripe_across_dies(self):
        shard_a, calls_a = _stub_shard(free_blocks=1)
        shard_b, calls_b = _stub_shard(free_blocks=1)
        session, picks = self._session([shard_a, shard_b], victim=7)
        session._maybe_background_collect()
        assert picks == [[0, 1]]
        assert calls_a == [7] and calls_b == [7]
        assert shard_a.gc.stats.background_collections == 1
        assert shard_b.gc.stats.background_collections == 1


# ---------------------------------------------------------------------------
# Observability: GC-origin spans, die overlap, SMART counters
# ---------------------------------------------------------------------------


class TestObservability:
    @pytest.fixture(scope="class")
    def traced_run(self):
        recorder = TraceRecorder()
        ftl, session = _build("background", recorder=recorder)
        _run(ftl, session, _churn(ftl.logical_capacity))
        return ftl, session, recorder

    def test_gc_span_kinds_recorded(self, traced_run):
        _, _, recorder = traced_run
        kinds = {span[6] for span in recorder.spans}
        gc_kinds = {k for k in kinds if k >= 3}
        assert gc_kinds, "no GC-origin spans recorded"
        assert all(KIND_NAMES[k].startswith("gc-") for k in gc_kinds)
        assert any(k < 3 for k in kinds)  # host spans on the same trace
        events = recorder.to_chrome_trace()["traceEvents"]
        assert any(e["name"].startswith("gc-") for e in events)

    def test_background_gc_overlaps_host_io_on_another_die(
        self, traced_run
    ):
        _, _, recorder = traced_run
        planes = [s for s in recorder.spans if s[0] == TRACK_PLANE]
        gc_spans = [s for s in planes if s[6] >= 3]
        host_spans = [s for s in planes if s[6] < 3]
        assert any(
            g[1] != h[1] and g[3] < h[4] and h[3] < g[4]
            for g in gc_spans for h in host_spans
        ), "no GC span overlapped host I/O on a different die"

    def test_metrics_expose_background_gc_state(self, traced_run):
        ftl, session, _ = traced_run
        registry = session.metrics()
        assert registry.get("session_gc_mode") == "background"
        assert registry.get("session_gc_in_flight") == 0
        assert registry.get("gc_background_collections") >= 1
        assert registry.get("gc_free_blocks") == [
            shard.allocator.free_block_count for shard in ftl.shards
        ]
        assert registry.get("gc_scheduled_busy_s") > 0.0
        assert registry.get("write_amplification") > 1.0

