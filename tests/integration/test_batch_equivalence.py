"""Stack-level equivalence: running the controller/host datapath over a
batch of N pages must be observably identical to N one-page calls (same
data, same latency accounting, same telemetry).

A one-page call is a batch of one, draw for draw
(``tests/integration/test_batch_of_one.py``).  A batch of N pages draws
its read-back errors across the whole batch, so exact identity with N
one-page calls holds at RBER = 0 (the device model is pinned to an
error-free lifetime curve here); at RBER > 0 the two agree in
distribution — binomially consistent error counts, identical wear and
read-disturb bookkeeping — as ``tests/nand/test_device_batch.py``
checks."""

import numpy as np
import pytest

from repro.controller.controller import NandController
from repro.nand.device import NandFlashDevice
from repro.nand.geometry import NandGeometry
from repro.nand.rber import LifetimeRberModel
from repro.sim.host import HostWorkload, run_host_workload
from repro.workloads.patterns import random_page
from repro.workloads.traces import mixed_trace


class _ZeroRber(LifetimeRberModel):
    """Error-free lifetime curve: serial and batch reads are bit-exact."""

    def rber(self, algorithm, pe_cycles):
        return 0.0

    def rber_batch(self, pe_cycles, dv=None):
        return np.zeros(np.asarray(pe_cycles, dtype=float).shape)


def _controller(seed: int = 404) -> NandController:
    geometry = NandGeometry(blocks=4, pages_per_block=8)
    device = NandFlashDevice(
        geometry, rber_model=_ZeroRber(), rng=np.random.default_rng(seed)
    )
    return NandController(geometry, device=device,
                          rng=np.random.default_rng(seed))


class TestControllerBatchFlows:
    def test_write_batch_matches_serial(self):
        serial, batched = _controller(), _controller()
        rng = np.random.default_rng(11)
        pages = [(0, p, random_page(4096, rng)) for p in range(6)]
        serial_reports = [serial.write(*op) for op in pages]
        batch_reports = batched.write_batch(pages)
        assert batch_reports == serial_reports
        for _, page, _ in pages:
            assert (
                batched.device.array.read_page(0, page)
                == serial.device.array.read_page(0, page)
            )

    def test_read_batch_matches_serial(self):
        serial, batched = _controller(), _controller()
        rng = np.random.default_rng(12)
        pages = [(0, p, random_page(4096, rng)) for p in range(6)]
        for controller in (serial, batched):
            controller.write_batch(pages)
        addresses = [(0, p) for p in range(6)]
        serial_reads = [serial.read(*a) for a in addresses]
        batch_reads = batched.read_batch(addresses)
        for (s_data, s_report), (b_data, b_report) in zip(
            serial_reads, batch_reads
        ):
            assert b_data == s_data
            assert b_report == s_report
        assert batched.status() == serial.status()

    def test_read_batch_groups_mixed_stored_t(self):
        controller = _controller()
        rng = np.random.default_rng(13)
        controller.apply_config(controller.device.program_algorithm, 4)
        controller.write(0, 0, random_page(4096, rng))
        controller.apply_config(controller.device.program_algorithm, 9)
        controller.write(0, 1, random_page(4096, rng))
        reads = controller.read_batch([(0, 0), (0, 1), (0, 0)])
        assert [report.success for _, report in reads] == [True] * 3
        # Per-page decode still honours the capability each page was
        # written with, not the currently-configured one.
        assert reads[0][0] == reads[2][0]


class TestHostBatching:
    @pytest.mark.parametrize("batch_pages", [2, 4, 16])
    def test_batched_workload_matches_serial(self, batch_pages):
        trace = mixed_trace(blocks=2, pages_per_block=4)
        serial = run_host_workload(
            _controller(), HostWorkload("serial", trace)
        )
        batched = run_host_workload(
            _controller(),
            HostWorkload("batched", trace, batch_pages=batch_pages),
        )
        assert batched.elapsed_s == pytest.approx(serial.elapsed_s)
        assert batched.stats.reads == serial.stats.reads
        assert batched.stats.writes == serial.stats.writes
        assert batched.stats.bytes_read == serial.stats.bytes_read
        assert batched.corrected_bits == serial.corrected_bits
        assert batched.uncorrectable_pages == serial.uncorrectable_pages
