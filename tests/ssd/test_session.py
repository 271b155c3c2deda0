"""SsdSession tests: pinned closed-loop runs + open-loop streams.

``run_ssd_workload`` drains every batch through
:meth:`SsdSession.execute`; its output on randomized mixed traces is
pinned by golden digests (recorded while a verbatim copy of the earlier
batch-drain path, a fresh run-to-drain scheduler per batch, reproduced
it bit-exact).  The open-loop tests drive ``submit`` streams through the
same session.
"""

import hashlib

import numpy as np
import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import SimulationError
from repro.nand.geometry import NandGeometry
from repro.sim.host import (
    HostWorkload,
    OpenLoopWorkload,
    run_open_loop_workload,
    run_ssd_workload,
)
from repro.ssd import (
    DieStripedFtl,
    IoCommand,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.workloads.traces import (
    TraceOp,
    TraceOpKind,
    fixed_rate_arrivals,
    mixed_trace,
)


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def _build(
    channels=1,
    dies_per_channel=2,
    pipeline=None,
    seed=2012,
    wear=10_000,
):
    topology = SsdTopology(
        channels=channels,
        dies_per_channel=dies_per_channel,
        geometry=NandGeometry(blocks=8, pages_per_block=8),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=seed, pipeline=pipeline
    )
    for controller in ssd.controllers:
        controller.device.array._wear[:] = wear
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=float(wear))
    return DieStripedFtl(ssd)


def _erase_spiced(trace, seed):
    """Append scratch writes + host-side ERASE ops to a mixed trace.

    The erased trace block is never read afterwards (a trimmed LPN may
    not be re-read), and one erase targets a block the trace never
    named — both paths must treat it as a no-op.
    """
    rng = np.random.default_rng(seed)
    scratch = [
        TraceOp(TraceOpKind.WRITE, 9, page, rng.bytes(4096))
        for page in range(2)
    ]
    return (
        list(trace)
        + scratch
        + [TraceOp(TraceOpKind.ERASE, 9), TraceOp(TraceOpKind.ERASE, 7)]
    )


def _runner_digest(result) -> str:
    """sha256 of what a closed-loop SSD run reports."""
    return hashlib.sha256(repr((
        result.elapsed_s,
        result.stats.read_latency.samples,
        result.stats.write_latency.samples,
        result.queue_latency.samples,
        result.service_latency.samples,
        result.corrected_bits,
        result.uncorrectable_pages,
        result.die_busy_s,
        result.channel_busy_s,
        result.ecc_busy_s,
    )).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Closed-loop runs
# ---------------------------------------------------------------------------

#: sha256 of ``run_ssd_workload`` per (topology, pipeline, batch, QD, seed)
#: case: elapsed time, read / write / queue / service latency samples,
#: corrected bits, uncorrectable pages and the three busy lists.
RUNNER_DIGESTS = {
    "1x1-serial-b4-qd0-s3":
        "58b8476d7bc218c13684c4b04e3479fcf477591f8371a1efc637cefbf1a0cf6f",
    "1x1-serial-b4-qd0-s17":
        "258921bfa7d6a921832d1cfdd8b1b1c0055d8294f672d363ebf530956ecc0f24",
    "1x1-serial-b8-qd2-s3":
        "cc86d5ea9ebbbe9084d66e852b6abe562ae3cf1437ccb8327cd6bf82c30ce62c",
    "1x1-serial-b8-qd2-s17":
        "c6888ee2750a83cc8d186e533b3322adb73eed09f461b8519b8b567e3d7b2811",
    "1x2-cache+mplane+ecc-b4-qd0-s3":
        "d0eba61e563ee1cde3b14b6c3cd41470c0c0176ef4225ed263659a7ee6e4dd2c",
    "1x2-cache+mplane+ecc-b4-qd0-s17":
        "28b87a8cc6acd949668f09e55ac9f5234e862fcbf4adb206b199cbf6b2eaaf95",
    "1x2-cache+mplane+ecc-b8-qd2-s3":
        "a8fd3b31eef5d8b9f68eee59cd5e93ce998642478729b8b5519c779130b37e25",
    "1x2-cache+mplane+ecc-b8-qd2-s17":
        "5845565a4151ee3e48644e78607765678fc9216f1d53841643f23388362005a8",
    "2x2-cache+ecc-b4-qd0-s3":
        "eb0a298ddf2b596097ebdd2c0b9b8243740cee59ce3545c7b75228c084772672",
    "2x2-cache+ecc-b4-qd0-s17":
        "0cd40fc5faad615758159e110721ebbc0f55da34b0567eaab3319f6f7cc01248",
    "2x2-cache+ecc-b8-qd2-s3":
        "5f2e90f8621e0004fe017beb35f788e3e90b2818a1b23f6c50afcac839729cc0",
    "2x2-cache+ecc-b8-qd2-s17":
        "5ae95e48fff5a10836c057cc1077030a1ad9c2b4989ea7d2df12cce1f5225581",
}


class TestClosedLoop:
    @pytest.mark.parametrize("channels,dies_per_channel,pipeline", [
        (1, 1, None),
        (1, 2, PipelineConfig.full()),
        (2, 2, PipelineConfig(cache_read=True, pipelined_ecc=True)),
    ])
    @pytest.mark.parametrize("batch_pages,queue_depth", [
        (4, 0), (8, 2),
    ])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_closed_runner_matches_pinned_digest(
        self, channels, dies_per_channel, pipeline, batch_pages,
        queue_depth, seed,
    ):
        trace = _erase_spiced(
            mixed_trace(blocks=2, pages_per_block=4, seed=seed), seed
        )
        workload = HostWorkload(
            "equiv", trace, batch_pages=batch_pages, queue_depth=queue_depth
        )
        result = run_ssd_workload(
            _build(channels, dies_per_channel, pipeline), workload
        )
        label = (pipeline or PipelineConfig()).describe()
        case = (
            f"{channels}x{dies_per_channel}-{label}-b{batch_pages}"
            f"-qd{queue_depth}-s{seed}"
        )
        assert _runner_digest(result) == RUNNER_DIGESTS[case]

    def test_closed_batch_queue_breakdown_is_admission_wait(self):
        ftl = _build(1, 1)
        ftl.write_many([(lpn, bytes(4096)) for lpn in range(6)])
        ftl.read_many(list(range(6)), queue_depth=2)
        completions = ftl.last_schedule.completions
        # Everything was submitted at the (re-based) batch start...
        assert all(c.submit_s == 0.0 for c in completions)
        # ...so later commands show a growing submit->dispatch wait.
        assert max(c.queue_s for c in completions) > 0.0
        assert all(
            c.total_latency_s == pytest.approx(c.queue_s + c.latency_s)
            for c in completions
        )


# ---------------------------------------------------------------------------
# Open-loop submission/completion streams
# ---------------------------------------------------------------------------


class TestOpenLoopSession:
    def test_submit_completes_with_data(self):
        ftl = _build()
        payloads = {lpn: bytes([lpn]) * 4096 for lpn in range(8)}
        ftl.write_many(list(payloads.items()))
        session = SsdSession(ftl)
        tags = {
            session.submit(IoCommand(TraceOpKind.READ, lpn)): lpn
            for lpn in payloads
        }
        session.drain()
        done = session.take_completions()
        assert len(done) == len(payloads)
        for completion in done:
            assert completion.lpn == tags[completion.tag]
            assert completion.data == payloads[completion.lpn]
            assert completion.done_s >= completion.dispatch_s
            assert completion.dispatch_s >= completion.submit_s
        assert session.take_completions() == []

    def test_mixed_reads_and_writes_overlap_in_flight(self):
        """A write stream and a read stream share the timeline open loop."""
        ftl = _build(1, 2, PipelineConfig.full())
        ftl.write_many([(lpn, bytes(4096)) for lpn in range(8)])
        session = SsdSession(ftl)
        for lpn in range(8):
            session.submit(IoCommand(TraceOpKind.READ, lpn))
            session.submit(
                IoCommand(TraceOpKind.WRITE, 8 + lpn, bytes(4096))
            )
        open_elapsed = session.drain()

        drained = _build(1, 2, PipelineConfig.full())
        drained.write_many([(lpn, bytes(4096)) for lpn in range(8)])
        total = 0.0
        for lpn in range(8):  # batch-drain: each op runs to completion
            drained.read_many([lpn])
            total += drained.last_schedule.makespan_s
            drained.write_many([(8 + lpn, bytes(4096))])
            total += drained.last_schedule.makespan_s
        assert open_elapsed < total

    def test_queue_depth_clamps_dispatch(self):
        ftl = _build(1, 1)
        ftl.write_many([(lpn, bytes(4096)) for lpn in range(8)])
        session = SsdSession(ftl, queue_depth=1)
        for lpn in range(8):
            session.submit(IoCommand(TraceOpKind.READ, lpn))
        assert session.in_flight == 1
        assert session.backlog == 7
        session.drain()
        done = session.take_completions()
        # QD-1: each command dispatches only when its predecessor is done.
        for earlier, later in zip(done, done[1:]):
            assert later.dispatch_s >= earlier.done_s
        assert max(c.queue_s for c in done) > 0.0

    def test_deterministic_replay(self):
        def run():
            ftl = _build(2, 2, PipelineConfig.full())
            ftl.write_many([(lpn, bytes(4096)) for lpn in range(16)])
            trace = fixed_rate_arrivals(
                [TraceOp(TraceOpKind.READ, 0, lpn) for lpn in range(16)] * 2,
                rate_ops_s=20_000,
            )
            completions = []
            result = run_open_loop_workload(
                ftl, OpenLoopWorkload("det", trace, queue_depth=4),
                on_completion=completions.append,
            )
            assert len(completions) == 32
            return (
                result.elapsed_s,
                completions,
                result.latency_percentiles(),
            )

        assert run() == run()

    def test_open_loop_runner_percentiles_and_erase(self):
        ftl = _build()
        ops = [
            TraceOp(TraceOpKind.WRITE, 0, page, bytes(4096))
            for page in range(8)
        ]
        ops += [TraceOp(TraceOpKind.READ, 0, page) for page in range(8)]
        ops += [TraceOp(TraceOpKind.ERASE, 0)]
        result = run_open_loop_workload(
            ftl, OpenLoopWorkload("ol", fixed_rate_arrivals(ops, 5_000))
        )
        assert result.stats.writes == 8
        assert result.stats.reads == 8
        assert result.elapsed_s > 0
        tails = result.latency_percentiles()
        assert tails["service_p50_s"] > 0
        # The ERASE op trimmed every page at its arrival instant.
        assert not any(ftl.is_mapped(lpn) for lpn in range(8))

    def test_overload_latency_dominated_by_queueing(self):
        def at_rate(rate):
            ftl = _build(1, 1)
            ftl.write_many([(lpn, bytes(4096)) for lpn in range(8)])
            trace = fixed_rate_arrivals(
                [TraceOp(TraceOpKind.READ, 0, lpn) for lpn in range(8)] * 4,
                rate_ops_s=rate,
            )
            return run_open_loop_workload(
                ftl, OpenLoopWorkload("rate", trace, queue_depth=2)
            )

        relaxed = at_rate(500)       # well under saturation
        slammed = at_rate(500_000)   # far past saturation
        assert (
            relaxed.queue_latency.p95_s < slammed.queue_latency.p95_s
        )
        assert (
            slammed.stats.read_latency.p95_s
            > relaxed.stats.read_latency.p95_s
        )

    def test_runner_on_shared_session_rebases_and_restores_depth(self):
        """The FTL's used session paces arrivals like a fresh one."""
        def trace():
            return fixed_rate_arrivals(
                [TraceOp(TraceOpKind.READ, 0, lpn) for lpn in range(8)] * 2,
                rate_ops_s=2_000,
            )

        private_ftl = _build()
        private_ftl.write_many([(lpn, bytes(4096)) for lpn in range(8)])
        private_done = []
        private = run_open_loop_workload(
            private_ftl, OpenLoopWorkload("p", trace(), queue_depth=2),
            on_completion=private_done.append,
        )

        shared_ftl = _build()
        shared_ftl.write_many([(lpn, bytes(4096)) for lpn in range(8)])
        session = shared_ftl.session
        assert session.engine.now_s > 0.0  # clock left at the prewrite
        shared_done = []
        shared = run_open_loop_workload(
            shared_ftl,
            OpenLoopWorkload("s", trace(), queue_depth=2),
            session=session,
            on_completion=shared_done.append,
        )
        assert shared.elapsed_s == private.elapsed_s
        assert len(shared_done) == 16
        assert shared_done == private_done
        # The per-run queue-depth override must not outlive the run.
        assert session.queue_depth is None

    def test_runner_rejects_busy_shared_session(self):
        ftl = _build()
        ftl.write_many([(0, bytes(4096))])
        session = ftl.session
        session.submit(IoCommand(TraceOpKind.READ, 0))
        with pytest.raises(SimulationError):
            run_open_loop_workload(
                ftl, OpenLoopWorkload("busy", []), session=session
            )
        session.drain()

    @pytest.mark.parametrize("routed", ("other", "none"))
    def test_runner_rejects_session_routed_elsewhere(self, routed):
        """Checked before the clock is rebased or anything submitted."""
        ftl = _build()
        ftl.write_many([(0, bytes(4096))])
        if routed == "other":
            other = _build()
            other.write_many([(0, bytes(4096))])
            session = other.session
        else:
            session = SsdSession(ssd=ftl.ssd)
            session.execute(ftl.stage_reads([0])[1])
        clock = session.engine.now_s
        assert clock > 0.0
        reads = ftl.stats.host_reads
        ops = [TraceOp(TraceOpKind.READ, 0, 0)]
        with pytest.raises(SimulationError, match="session.ftl is ftl"):
            run_open_loop_workload(
                ftl, OpenLoopWorkload("elsewhere", ops), session=session
            )
        assert session.engine.now_s == clock
        assert session.metrics().get("session_submissions") == 0
        assert session.backlog == 0 and session.completions == []
        assert ftl.stats.host_reads == reads

    def test_invalid_open_loop_queue_depth_rejected_up_front(self):
        with pytest.raises(SimulationError):
            OpenLoopWorkload("bad", [], queue_depth=0)

    def test_elapsed_is_last_completion_not_last_arrival(self):
        ftl = _build()
        ftl.write_many([(0, bytes(4096))])
        ops = [
            TraceOp(TraceOpKind.READ, 0, 0),
            # An I/O-free erase arriving much later must not stretch
            # the measured interval (and so deflate MB/s).
            TraceOp(TraceOpKind.ERASE, 5, issue_s=5.0),
        ]
        result = run_open_loop_workload(ftl, OpenLoopWorkload("tail", ops))
        assert result.elapsed_s < 1.0
        assert result.elapsed_s == pytest.approx(
            result.stats.read_latency.max_s
        )
        assert result.read_mb_s > 1.0

    def test_preread_lpns_matches_runner_naming(self):
        from repro.sim.host import preread_lpns

        ops = [
            TraceOp(TraceOpKind.READ, 0, 0),       # name 0: pre-read
            TraceOp(TraceOpKind.WRITE, 1, 0, b""),  # name 1: written first
            TraceOp(TraceOpKind.ERASE, 2),          # names nothing
            TraceOp(TraceOpKind.READ, 0, 1),        # name 2: pre-read
            TraceOp(TraceOpKind.READ, 1, 0),        # name 1 again: covered
        ]
        assert preread_lpns(ops) == [0, 2]

    def test_submit_rejects_erase_kind(self):
        session = SsdSession(_build())
        with pytest.raises(SimulationError):
            session.submit(IoCommand(TraceOpKind.ERASE, 0))

    def test_session_without_ftl_rejects_io_before_a_tag(self):
        ftl = _build()
        ftl.write_many([(0, bytes(4096))])
        session = SsdSession(ssd=ftl.ssd)
        with pytest.raises(SimulationError, match="no FTL"):
            session.submit(IoCommand(TraceOpKind.READ, 0))
        with pytest.raises(SimulationError, match="no FTL"):
            session.trim(0)
        assert session.backlog == 0
        assert ftl.is_mapped(0)
        session.ftl = ftl
        # The rejected calls took no tag: the first I/O gets tag 0.
        assert session.submit(IoCommand(TraceOpKind.READ, 0)) == 0
        session.drain()
        (done,) = session.take_completions()
        assert (done.tag, done.data) == (0, bytes(4096))

    def test_ftl_builds_its_own_session(self):
        ftl = _build()
        session = ftl.session
        assert session.ftl is ftl and session.ssd is ftl.ssd
        assert session.gc_mode == "sync"
        assert ftl.session is session
        assert _build().session is not session

    def test_execute_requires_idle_session(self):
        ftl = _build()
        ftl.write_many([(0, bytes(4096))])
        session = ftl.session
        session.submit(IoCommand(TraceOpKind.READ, 0))
        with pytest.raises(SimulationError):
            ftl.read_many([0])
        session.drain()
        assert ftl.read_many([0])[0][0] == bytes(4096)
