"""Core controller FSM tests (datapath flows)."""

import numpy as np
import pytest

from repro.bch.codec import AdaptiveBCHCodec
from repro.controller.core import CoreControllerFsm
from repro.controller.ocp import OcpInterface
from repro.errors import ControllerError
from repro.nand.device import NandFlashDevice
from repro.nand.geometry import NandGeometry


@pytest.fixture()
def fsm(rng):
    geometry = NandGeometry(blocks=4, pages_per_block=4)
    device = NandFlashDevice(geometry, rng=rng)
    codec = AdaptiveBCHCodec(k=geometry.page_data_bits, t_max=16)
    codec.set_correction_capability(4)
    return CoreControllerFsm(codec, device, OcpInterface())


class TestWriteFlow:
    def test_write_then_read_round_trip(self, fsm, rng):
        data = rng.bytes(4096)
        write = fsm.write_page(0, 0, data)
        assert write.latencies.transfer_s > 0
        assert write.latencies.encode_s > 0
        assert write.latencies.program_s > 0
        read = fsm.read_page(0, 0)
        assert read.data == data
        assert read.latencies.read_array_s == pytest.approx(75e-6)

    def test_wrong_size_rejected(self, fsm):
        with pytest.raises(ControllerError):
            fsm.write_page(0, 0, b"short")

    def test_oversized_t_rejected_by_spare_budget(self, rng):
        geometry = NandGeometry(blocks=2, pages_per_block=2, page_spare_bytes=64)
        device = NandFlashDevice(geometry, rng=rng)
        codec = AdaptiveBCHCodec(k=geometry.page_data_bits, t_max=65)
        codec.set_correction_capability(65)  # 130 B parity > 64 B spare
        fsm = CoreControllerFsm(codec, device, OcpInterface())
        with pytest.raises(ControllerError):
            fsm.write_page(0, 0, bytes(4096))


class TestReadFlow:
    def test_read_unwritten_page_rejected(self, fsm):
        with pytest.raises(ControllerError):
            fsm.read_page(3, 3)

    def test_decode_uses_written_t(self, fsm, rng):
        data = rng.bytes(4096)
        fsm.write_page(0, 0, data)          # written at t = 4
        fsm.codec.set_correction_capability(9)
        read = fsm.read_page(0, 0)          # must still decode with t = 4
        assert read.data == data
        assert fsm.codec.t == 9             # current selection untouched

    def test_erase_forgets_page_metadata(self, fsm, rng):
        data = rng.bytes(4096)
        fsm.write_page(1, 0, data)
        fsm.erase_block(1)
        with pytest.raises(ControllerError):
            fsm.read_page(1, 0)

    def test_latency_total(self, fsm, rng):
        fsm.write_page(0, 1, rng.bytes(4096))
        read = fsm.read_page(0, 1)
        lat = read.latencies
        assert lat.total_s == pytest.approx(
            lat.transfer_s + lat.encode_s + lat.program_s
            + lat.read_array_s + lat.decode_s
        )


class TestPipelineRecurrence:
    """The double-buffer recurrence of the scheduler's 1x1 cache reads."""

    def test_recurrence_against_hand_computed(self):
        from repro.controller.core import pipeline_elapsed_s

        # A=10, B=5 each: handoffs gate on the slower stage A.
        assert pipeline_elapsed_s([(10.0, 5.0)] * 3) == pytest.approx(35.0)
        # B dominates: first A fills, then B serialises.
        assert pipeline_elapsed_s([(5.0, 10.0)] * 3) == pytest.approx(35.0)
        assert pipeline_elapsed_s([]) == 0.0
