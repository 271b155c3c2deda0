"""Command-level NAND device tests."""

import numpy as np
import pytest

from repro.errors import NandOperationError
from repro.nand.device import NandFlashDevice
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm
from repro.nand.rber import LifetimeRberModel


@pytest.fixture()
def device(rng):
    return NandFlashDevice(NandGeometry(blocks=4, pages_per_block=4), rng=rng)


class TestDevice:
    def test_algorithm_register(self, device):
        assert device.program_algorithm is IsppAlgorithm.SV
        device.select_program_algorithm(IsppAlgorithm.DV)
        assert device.program_algorithm is IsppAlgorithm.DV
        with pytest.raises(NandOperationError):
            device.select_program_algorithm("not-an-algorithm")

    def test_program_reports_algorithm_and_latency(self, device):
        report = device.program_page(0, 0, bytes(4096))
        assert report.algorithm is IsppAlgorithm.SV
        assert 0.3e-3 < report.latency_s < 2.5e-3

    def test_dv_program_slower(self, device):
        sv = device.program_page(0, 0, bytes(4096))
        device.select_program_algorithm(IsppAlgorithm.DV)
        dv = device.program_page(0, 1, bytes(4096))
        assert dv.latency_s > 1.3 * sv.latency_s

    def test_read_injects_errors_by_stored_algorithm(self, rng):
        device = NandFlashDevice(
            NandGeometry(blocks=2, pages_per_block=2), rng=rng
        )
        # Age the block heavily so the RBER is measurable.
        for _ in range(50):
            device.erase_block(0)
        # Bypass: set wear directly for speed.
        device.array._wear[0] = 100_000
        data = bytes(4096)
        device.program_page(0, 0, data)
        read, report = device.read_page(0, 0)
        errors = sum(bin(a ^ b).count("1") for a, b in zip(read, data))
        expected = report.rber * len(data) * 8
        assert report.rber == pytest.approx(device.rber_model.rber_sv(100_000))
        assert errors == pytest.approx(expected, rel=0.8, abs=10)

    def test_unwritten_page_reads_clean(self, device):
        data, report = device.read_page(1, 1)
        assert data == bytes([0xFF]) * device.geometry.page_bytes
        assert report.rber == 0.0

    def test_erase_resets_page_metadata(self, device):
        device.program_page(0, 0, b"payload")
        device.erase_block(0)
        data, report = device.read_page(0, 0)
        assert report.rber == 0.0
        assert report.algorithm is None

    def test_timing_cache_reuse(self, device):
        t1 = device.program_time_s(IsppAlgorithm.SV, 0)
        t2 = device.program_time_s(IsppAlgorithm.SV, 0)
        assert t1 == t2
        assert len(device._timing_cache) == 1
        device.program_time_s(IsppAlgorithm.SV, 5e4)  # new decade
        assert len(device._timing_cache) == 2

    def test_rber_now(self, device):
        fresh = device.rber_now(0)
        device.array._wear[0] = 100_000
        assert device.rber_now(0) > fresh


def _trace(device):
    """Everything a read may touch: SMART reads, read disturb, the RNG."""
    return (
        device.page_reads,
        device.array._reads_since_erase.tolist(),
        device.rng.bit_generator.state,
    )


class TestRejectedReads:
    """A rejected read raises the library's error and leaves no trace."""

    @pytest.mark.parametrize("address", [(5, 0), (-1, 0), (0, 4), (0, -1)])
    def test_out_of_range_address(self, address):
        device = NandFlashDevice(
            NandGeometry(blocks=2, pages_per_block=4),
            rng=np.random.default_rng(3),
        )
        device.program_page(0, 0, bytes(64))
        before = _trace(device)
        with pytest.raises(NandOperationError):
            device.read_pages([address])
        with pytest.raises(NandOperationError):
            device.read_page(*address)
        with pytest.raises(NandOperationError):
            device.program_page(*address, bytes(64))
        assert _trace(device) == before
        assert device.page_programs == 1

    def test_nan_rber_from_the_lifetime_model(self):
        class _NanRber(LifetimeRberModel):
            def rber_batch(self, pe_cycles, dv=None):
                return np.full(np.asarray(pe_cycles).shape, np.nan)

        device = NandFlashDevice(
            NandGeometry(blocks=2, pages_per_block=4),
            rber_model=_NanRber(),
            rng=np.random.default_rng(4),
        )
        device.program_page(0, 0, bytes(64))
        before = _trace(device)
        with pytest.raises(NandOperationError, match="nan"):
            device.read_page(0, 0)
        assert _trace(device) == before
