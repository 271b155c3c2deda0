"""One batch of N pages against N one-page reads on the device.

``read_page`` is a batch of one, draw for draw
(``tests/integration/test_batch_of_one.py``).  A batch of N pages draws
its errors across the whole batch, so it matches N single reads in
distribution rather than draw for draw:

* ``read_pages`` with RBER = 0 is byte-identical to one-page reads;
* with RBER > 0, injected error counts per page are binomially
  consistent with the reported rate, and the reported RBERs match;
* wear and read-disturb counters advance identically either way,
  including the reset on erase.
"""

import numpy as np
import pytest

from repro.nand.device import NandFlashDevice, ReadDisturbParams
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm
from repro.nand.rber import LifetimeRberModel


class _ZeroRber(LifetimeRberModel):
    """Deterministic device: reads never inject errors."""

    def rber(self, algorithm, pe_cycles):
        return 0.0

    def rber_batch(self, pe_cycles, dv=None):
        return np.zeros(np.asarray(pe_cycles, dtype=float).shape)


def _device(rng, zero_rber=False, **kwargs):
    geometry = kwargs.pop("geometry", NandGeometry(blocks=4, pages_per_block=8))
    if zero_rber:
        kwargs["rber_model"] = _ZeroRber()
    return NandFlashDevice(geometry, rng=rng, **kwargs)


class TestZeroRberByteIdentity:
    def test_batch_read_identical_to_serial(self, rng):
        batched = _device(np.random.default_rng(7), zero_rber=True)
        serial = _device(np.random.default_rng(7), zero_rber=True)
        payloads = [np.random.default_rng(i).bytes(4320) for i in range(6)]
        addresses = [(0, p) for p in range(4)] + [(1, 0), (1, 1)]
        for device in (batched, serial):
            device.program_pages(addresses, payloads)
        raw, batch = batched.read_pages(addresses)
        for row, (block, page), payload in zip(raw, addresses, payloads):
            data, report = serial.read_page(block, page)
            assert row.tobytes() == data == payload
            assert report.rber == 0.0
        assert all(r.rber == 0.0 for r in batch.reports())

    def test_batch_program_identical_to_serial(self, rng):
        batched = _device(np.random.default_rng(9), zero_rber=True)
        serial = _device(np.random.default_rng(9), zero_rber=True)
        payloads = [bytes([i]) * 4320 for i in range(5)]
        addresses = [(2, p) for p in range(5)]
        batch_reports = batched.program_pages(addresses, payloads)
        serial_reports = [
            serial.program_page(b, p, d)
            for (b, p), d in zip(addresses, payloads)
        ]
        assert batch_reports == serial_reports
        for block, page in addresses:
            assert (
                batched.array.read_page(block, page)
                == serial.array.read_page(block, page)
            )


class TestErrorInjectionConsistency:
    def test_error_counts_binomially_consistent(self):
        rng = np.random.default_rng(11)
        geometry = NandGeometry(blocks=2, pages_per_block=32)
        device = NandFlashDevice(geometry, rng=rng)
        device.array._wear[:] = 100_000  # end of life: RBER ~1e-3
        addresses = [(0, p) for p in range(32)]
        payload = bytes(4320)
        device.program_pages(addresses, [payload] * 32)
        counts = []
        rbers = []
        for _ in range(8):
            raw, batch = device.read_pages(addresses)
            errors = np.unpackbits(raw, axis=1).sum(axis=1)
            counts.extend(errors.tolist())
            rbers.extend(report.rber for report in batch.reports())
        n_bits = 4320 * 8
        expected = np.mean(rbers) * n_bits
        counts = np.asarray(counts, dtype=float)
        assert counts.mean() == pytest.approx(expected, rel=0.15)
        # Binomial variance check (loose; 256 samples).
        assert counts.var() == pytest.approx(expected, rel=0.6)

    def test_batch_reports_match_scalar_rber(self):
        """Reported per-page RBER is identical between the two paths."""
        batched = _device(np.random.default_rng(3))
        serial = _device(np.random.default_rng(3))
        for device in (batched, serial):
            device.array._wear[:] = 10_000
            device.select_program_algorithm(IsppAlgorithm.DV)
            device.program_pages(
                [(0, 0), (0, 1), (1, 0)], [bytes(4096)] * 3
            )
        addresses = [(0, 0), (0, 1), (0, 0), (1, 0)]
        _, batch = batched.read_pages(addresses)
        serial_reports = [serial.read_page(b, p)[1] for b, p in addresses]
        for batch_report, serial_report in zip(batch.reports(), serial_reports):
            assert batch_report.rber == pytest.approx(
                serial_report.rber, rel=1e-12
            )
            assert batch_report.algorithm is serial_report.algorithm


class TestCounterEquivalence:
    def test_wear_and_disturb_counters_advance_identically(self):
        batched = _device(np.random.default_rng(5), zero_rber=True)
        serial = _device(np.random.default_rng(5), zero_rber=True)
        addresses = [(0, 0), (0, 1), (1, 0), (0, 0)]
        for device in (batched, serial):
            device.program_pages([(0, 0), (0, 1), (1, 0)], [b"x"] * 3)
        batched.read_pages(addresses)
        for block, page in addresses:
            serial.read_page(block, page)
        for block in range(2):
            assert (
                batched.array.reads_since_erase(block)
                == serial.array.reads_since_erase(block)
            )
            assert batched.array.wear(block) == serial.array.wear(block)

    def test_erase_resets_counters_in_both_paths(self):
        batched = _device(np.random.default_rng(6), zero_rber=True)
        serial = _device(np.random.default_rng(6), zero_rber=True)
        for device in (batched, serial):
            device.program_pages([(0, 0)], [b"x"])
        batched.read_pages([(0, 0)] * 5)
        for _ in range(5):
            serial.read_page(0, 0)
        for device in (batched, serial):
            device.erase_block(0)
        assert batched.array.reads_since_erase(0) == 0
        assert serial.array.reads_since_erase(0) == 0
        assert batched.array.wear(0) == serial.array.wear(0) == 1
        # Metadata gone: next read is a clean erased-page read.
        _, batch = batched.read_pages([(0, 0)])
        report = batch.report(0)
        assert report.rber == 0.0 and report.algorithm is None
        _, report = serial.read_page(0, 0)
        assert report.rber == 0.0 and report.algorithm is None

    def test_disturb_growth_within_batch_matches_serial(self):
        """The i-th same-block read in a batch sees the serial counter."""
        disturb = ReadDisturbParams(coefficient=1.0, reads_ref=10.0)
        batched = _device(np.random.default_rng(8), disturb=disturb)
        serial = _device(np.random.default_rng(8), disturb=disturb)
        for device in (batched, serial):
            device.array._wear[:] = 10_000
            device.program_pages([(0, 0), (0, 1)], [bytes(64)] * 2)
        addresses = [(0, 0), (0, 1), (0, 0), (0, 1)]
        _, batch = batched.read_pages(addresses)
        serial_reports = [serial.read_page(b, p)[1] for b, p in addresses]
        batch_rbers = [r.rber for r in batch.reports()]
        serial_rbers = [r.rber for r in serial_reports]
        assert batch_rbers == pytest.approx(serial_rbers, rel=1e-12)
        # Growth is strictly monotonic with the pre-read counter.
        assert batch_rbers[2] > batch_rbers[0]
        assert batch_rbers[3] > batch_rbers[1]
