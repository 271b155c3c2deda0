"""Host workload simulation tests."""

import numpy as np
import pytest

from repro.controller.controller import NandController
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import SimulationError
from repro.ftl.ftl import FlashTranslationLayer
from repro.nand.geometry import NandGeometry
from repro.sim.host import (
    HostWorkload,
    OpenLoopWorkload,
    run_ftl_workload,
    run_host_workload,
    run_open_loop_workload,
    run_ssd_workload,
)
from repro.ssd import DieStripedFtl, SsdDevice, SsdTopology
from repro.workloads.traces import (
    TraceOp,
    TraceOpKind,
    mixed_trace,
    multimedia_playback_trace,
)


#: ``repr`` of each closed-loop runner's ``elapsed_s`` on one trace.
PINNED_ELAPSED = {
    "host": 0.007951163333333336,
    "ftl": 0.005426401428571428,
    "ssd": 0.004484324444444444,
}


def small_controller(seed=31):
    return NandController(
        NandGeometry(blocks=4, pages_per_block=8),
        rng=np.random.default_rng(seed),
    )


class TestHostWorkload:
    def test_multimedia_trace_completes(self):
        controller = small_controller()
        trace = multimedia_playback_trace(blocks=1, pages_per_block=4, read_passes=2)
        result = run_host_workload(controller, HostWorkload("mm", trace))
        assert result.stats.writes == 4
        assert result.stats.reads == 8
        assert result.elapsed_s > 0
        assert result.uncorrectable_pages == 0

    def test_read_throughput_matches_analytic(self):
        """DES-measured read throughput equals the serial latency model."""
        controller = small_controller()
        trace = multimedia_playback_trace(blocks=1, pages_per_block=4, read_passes=4)
        result = run_host_workload(controller, HostWorkload("mm", trace))
        mean_read_latency = result.stats.read_latency.mean_s
        analytic_mb_s = 4096 / mean_read_latency / 1e6
        measured = result.stats.bytes_read / (
            result.stats.read_latency.total_s
        ) / 1e6
        assert measured == pytest.approx(analytic_mb_s, rel=1e-6)

    def test_max_read_mode_faster_reads(self):
        base_ctrl = small_controller()
        trace = multimedia_playback_trace(blocks=1, pages_per_block=4, read_passes=4)
        base = run_host_workload(base_ctrl, HostWorkload("mm", trace))

        fast_ctrl = small_controller()
        fast_ctrl.set_mode(OperatingMode.MAX_READ_THROUGHPUT, pe_reference=1e5)
        # Pages must be decodable: keep stored t consistent by writing in
        # the same mode.
        fast = run_host_workload(fast_ctrl, HostWorkload("mm", trace))
        assert (
            fast.stats.read_latency.mean_s < base.stats.read_latency.mean_s
            or fast.read_mb_s >= base.read_mb_s
        )

    def test_erase_ops_handled(self):
        controller = small_controller()
        ops = [
            TraceOp(TraceOpKind.WRITE, 0, 0, bytes(4096)),
            TraceOp(TraceOpKind.ERASE, 0),
            TraceOp(TraceOpKind.WRITE, 0, 0, bytes(4096)),
            TraceOp(TraceOpKind.READ, 0, 0),
        ]
        result = run_host_workload(controller, HostWorkload("erase", ops))
        assert result.stats.writes == 2
        assert result.stats.reads == 1

    @pytest.mark.parametrize("bad", [
        {"batch_pages": 0},
        {"batch_pages": -3},
        {"queue_depth": -2},
        {"think_time_s": -1e-6},
        {"think_time_s": float("nan")},
    ], ids=["batch-0", "batch-neg", "qd-neg", "think-neg", "think-nan"])
    def test_bad_workload_rejected_at_construction(self, bad):
        with pytest.raises(SimulationError):
            HostWorkload("bad", [], **bad)

    def test_think_time_extends_elapsed(self):
        trace = mixed_trace(blocks=1, pages_per_block=2)
        quick = run_host_workload(
            small_controller(), HostWorkload("m", trace, think_time_s=0.0)
        )
        slow = run_host_workload(
            small_controller(), HostWorkload("m", trace, think_time_s=1e-3)
        )
        assert slow.elapsed_s > quick.elapsed_s


class TestFtlWorkload:
    def _ftl(self, seed=31):
        from repro.ftl.ftl import FlashTranslationLayer

        controller = small_controller(seed)
        return FlashTranslationLayer(controller, blocks=[0, 1, 2])

    def test_trace_runs_through_ftl(self):
        from repro.sim.host import run_ftl_workload

        trace = multimedia_playback_trace(blocks=1, pages_per_block=4,
                                          read_passes=2)
        result = run_ftl_workload(
            self._ftl(), HostWorkload("mm-ftl", trace, batch_pages=4)
        )
        assert result.stats.writes == 4
        assert result.stats.reads == 8
        assert result.elapsed_s > 0

    def test_batched_ftl_stream_matches_serial_data(self):
        from repro.sim.host import run_ftl_workload

        trace = mixed_trace(blocks=2, pages_per_block=3)
        serial_ftl, batched_ftl = self._ftl(5), self._ftl(5)
        serial = run_ftl_workload(serial_ftl, HostWorkload("serial", trace))
        batched = run_ftl_workload(
            batched_ftl, HostWorkload("batched", trace, batch_pages=8)
        )
        assert batched.stats.reads == serial.stats.reads
        assert batched.stats.writes == serial.stats.writes
        # Logical contents end up identical whichever way the stream
        # was chunked.
        for lpn in serial_ftl.mapping.mapped_lpns():
            assert batched_ftl.read(lpn)[0] == serial_ftl.read(lpn)[0]

    def test_overwrites_through_ftl_stay_consistent(self):
        from repro.sim.host import run_ftl_workload
        from repro.workloads.traces import TraceOp, TraceOpKind

        payload_a = bytes([0xAA]) * 4096
        payload_b = bytes([0xBB]) * 4096
        ops = [
            TraceOp(TraceOpKind.WRITE, 0, 0, payload_a),
            TraceOp(TraceOpKind.WRITE, 0, 0, payload_b),  # logical update
            TraceOp(TraceOpKind.READ, 0, 0),
        ]
        ftl = self._ftl()
        result = run_ftl_workload(ftl, HostWorkload("upd", ops))
        assert result.stats.writes == 2
        assert ftl.read(0)[0] == payload_b

    def test_erase_discards_only_that_blocks_pages(self):
        """Host-side ERASE trims the erased block via the per-block index."""
        from repro.sim.host import run_ftl_workload

        keep = bytes([0x11]) * 4096
        ops = [
            TraceOp(TraceOpKind.WRITE, 0, page, bytes(4096))
            for page in range(3)
        ]
        ops += [TraceOp(TraceOpKind.WRITE, 1, 0, keep)]
        ops += [TraceOp(TraceOpKind.ERASE, 0)]
        ops += [TraceOp(TraceOpKind.READ, 1, 0)]
        ops += [TraceOp(TraceOpKind.ERASE, 2)]  # never-named block: no-op
        ftl = self._ftl()
        result = run_ftl_workload(ftl, HostWorkload("erase", ops))
        assert result.stats.reads == 1
        # Block-0 names (LPNs 0-2) trimmed, block-1 name (LPN 3) intact.
        assert not any(ftl.is_mapped(lpn) for lpn in range(3))
        assert ftl.read(3)[0] == keep

    def test_latency_percentiles_include_queue_service_split(self):
        from repro.sim.host import run_ftl_workload

        trace = mixed_trace(blocks=1, pages_per_block=2)
        result = run_ftl_workload(self._ftl(), HostWorkload("m", trace))
        tails = result.latency_percentiles()
        for key in ("queue_p50_s", "queue_p95_s", "queue_p99_s",
                    "service_p50_s", "service_p95_s", "service_p99_s"):
            assert key in tails
        # Single-die runners never queue host-side.
        assert tails["queue_p99_s"] == 0.0


class TestClosedLoopClock:
    """The closed-loop runners' clock is the float sum of their groups.

    The values were recorded while each runner still played its stream
    as a process on a DES engine; the plain loops must reproduce them
    bit for bit.
    """

    @staticmethod
    def _trace():
        trace = mixed_trace(blocks=2, pages_per_block=3, seed=5)
        trace.insert(5, TraceOp(TraceOpKind.ERASE, 1))
        return trace

    def test_host_runner_elapsed_is_pinned(self):
        result = run_host_workload(small_controller(), HostWorkload(
            "h", self._trace(), think_time_s=1e-5 / 3, batch_pages=2
        ))
        assert type(result.elapsed_s) is float
        assert result.elapsed_s == PINNED_ELAPSED["host"]

    def test_ftl_runner_elapsed_is_pinned(self):
        from repro.ftl.ftl import FlashTranslationLayer
        from repro.sim.host import run_ftl_workload

        ftl = FlashTranslationLayer(small_controller(), blocks=[0, 1, 2])
        result = run_ftl_workload(ftl, HostWorkload(
            "f", self._trace(), think_time_s=1e-5 / 7, batch_pages=3
        ))
        assert type(result.elapsed_s) is float
        assert result.elapsed_s == PINNED_ELAPSED["ftl"]

    def test_ssd_runner_elapsed_is_pinned(self):
        from repro.core.policy import CrossLayerPolicy
        from repro.sim.host import run_ssd_workload
        from repro.ssd import DieStripedFtl, SsdDevice, SsdTopology

        ssd = SsdDevice(
            SsdTopology(
                channels=1, dies_per_channel=2,
                geometry=NandGeometry(blocks=4, pages_per_block=8),
            ),
            policy=CrossLayerPolicy(), seed=2012,
        )
        ssd.set_mode(OperatingMode.BASELINE)
        result = run_ssd_workload(DieStripedFtl(ssd), HostWorkload(
            "s", self._trace(), think_time_s=1e-5 / 9, batch_pages=4,
            queue_depth=2,
        ))
        assert type(result.elapsed_s) is float
        assert result.elapsed_s == PINNED_ELAPSED["ssd"]



def _aged_ftl():
    """A 1-die FTL at 30k P/E cycles: reads correct bits."""
    controller = small_controller()
    controller.device.array._wear[:] = 30_000
    controller.set_mode(OperatingMode.BASELINE, pe_reference=30_000.0)
    return FlashTranslationLayer(controller, blocks=[0, 1, 2])


def _aged_striped_ftl():
    """A 1ch x 2die striped FTL at 30k P/E cycles."""
    ssd = SsdDevice(
        SsdTopology(
            channels=1, dies_per_channel=2,
            geometry=NandGeometry(blocks=4, pages_per_block=8),
        ),
        policy=CrossLayerPolicy(), seed=2012,
    )
    for controller in ssd.controllers:
        controller.device.array._wear[:] = 30_000
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=30_000.0)
    return DieStripedFtl(ssd)


RUNNERS = {
    "ftl": (
        _aged_ftl,
        lambda ftl, ops: run_ftl_workload(ftl, HostWorkload("r", ops)),
    ),
    "ssd": (
        _aged_striped_ftl,
        lambda ftl, ops: run_ssd_workload(ftl, HostWorkload("r", ops)),
    ),
    "open-loop": (
        _aged_striped_ftl,
        lambda ftl, ops: run_open_loop_workload(
            ftl, OpenLoopWorkload("r", ops)
        ),
    ),
}


class TestCorrectedBitsPerRun:
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_corrected_bits_count_this_run_only(self, runner):
        build, run = RUNNERS[runner]
        ftl = build()
        writes = [
            TraceOp(TraceOpKind.WRITE, 0, page, bytes([page]) * 4096)
            for page in range(8)
        ]
        reads = [TraceOp(TraceOpKind.READ, 0, page) for page in range(8)]
        first = run(ftl, writes + reads)
        assert first.corrected_bits == ftl.stats.corrected_bits > 0
        second = run(ftl, reads)
        assert second.corrected_bits > 0
        assert first.corrected_bits + second.corrected_bits == (
            ftl.stats.corrected_bits
        )
        assert run(ftl, writes).corrected_bits == 0
