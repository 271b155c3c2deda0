"""Behavioural NAND array tests (array-backed store + batch datapath)."""

import numpy as np
import pytest

from repro.errors import NandOperationError
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry


def _pad(data: bytes, page_bytes: int) -> bytes:
    """Expected read-back image of a short program (0xFF-filled tail)."""
    return data + bytes([0xFF]) * (page_bytes - len(data))


@pytest.fixture()
def array(rng):
    return NandArray(NandGeometry(blocks=4, pages_per_block=4), rng)


class TestArray:
    def test_program_read_round_trip(self, array):
        data = bytes(range(256)) * 16
        array.program_page(0, 0, data)
        assert array.read_page(0, 0) == _pad(data, array.geometry.page_bytes)
        assert array.is_programmed(0, 0)

    def test_full_page_round_trip_exact(self, array, rng):
        data = rng.bytes(array.geometry.page_bytes)
        array.program_page(0, 1, data)
        assert array.read_page(0, 1) == data

    def test_short_program_reads_full_page(self, array):
        # Regression: a short program used to read back short; stored
        # pages are now padded to page_bytes with 0xFF (erased state).
        data = b"\x00\x5a\xa5"
        array.program_page(1, 0, data)
        out = array.read_page(1, 0)
        assert len(out) == array.geometry.page_bytes
        assert out == _pad(data, array.geometry.page_bytes)

    def test_reprogram_without_erase_forbidden(self, array):
        array.program_page(1, 2, b"abc")
        with pytest.raises(NandOperationError):
            array.program_page(1, 2, b"xyz")

    def test_erase_clears_and_wears(self, array):
        array.program_page(2, 0, b"abc")
        assert array.wear(2) == 0
        array.erase_block(2)
        assert array.wear(2) == 1
        assert not array.is_programmed(2, 0)
        array.program_page(2, 0, b"new")  # now allowed again

    def test_erased_page_reads_ff(self, array):
        data = array.read_page(3, 3)
        assert data == bytes([0xFF]) * array.geometry.page_bytes

    def test_oversized_data_rejected(self, array):
        with pytest.raises(NandOperationError):
            array.program_page(0, 1, bytes(array.geometry.page_bytes + 1))

    def test_error_injection_rate(self, rng):
        array = NandArray(NandGeometry(blocks=1, pages_per_block=1), rng)
        data = bytes(4320)
        array.program_page(0, 0, data)
        rber = 0.01
        n_bits = len(data) * 8
        flipped = []
        for _ in range(20):
            read = array.read_page(0, 0, rber=rber)
            errors = sum(
                bin(a ^ b).count("1") for a, b in zip(read, data)
            )
            flipped.append(errors)
        mean_errors = np.mean(flipped)
        assert mean_errors == pytest.approx(n_bits * rber, rel=0.2)

    def test_zero_rber_returns_exact_data(self, array):
        data = b"\x12\x34" * 100
        array.program_page(0, 3, data)
        assert array.read_page(0, 3, rber=0.0) == _pad(
            data, array.geometry.page_bytes
        )

    def test_invalid_rber(self, array):
        array.program_page(0, 0, b"x")
        with pytest.raises(NandOperationError):
            array.read_page(0, 0, rber=1.0)

    def test_max_wear(self, array):
        array.erase_block(0)
        array.erase_block(0)
        array.erase_block(1)
        assert array.max_wear() == 2

    def test_block_bounds(self, array):
        with pytest.raises(NandOperationError):
            array.erase_block(4)
        with pytest.raises(NandOperationError):
            array.wear(-1)


class TestBatchDatapath:
    def test_program_pages_batch_round_trip(self, array, rng):
        page_bytes = array.geometry.page_bytes
        flats = np.array([0, 1, 5, 9])
        datas = [rng.bytes(page_bytes) for _ in flats]
        array.program_pages(flats, datas)
        out = array.read_pages(flats, np.zeros(len(flats)))
        assert out.shape == (len(flats), page_bytes)
        for row, data in zip(out, datas):
            assert row.tobytes() == data

    def test_batch_read_matches_scalar_at_zero_rber(self, array, rng):
        datas = [rng.bytes(64), rng.bytes(4320), rng.bytes(1)]
        flats = np.array([2, 3, 7])
        array.program_pages(flats, datas)
        batch = array.read_pages(flats, np.zeros(3))
        for flat, row in zip(flats, batch):
            block, page = array.geometry.split_address(int(flat))
            assert row.tobytes() == array.read_page(block, page, rber=0.0)

    def test_mixed_programmed_and_erased(self, array):
        array.program_page(0, 0, b"live")
        out = array.read_pages(np.array([0, 1]), np.zeros(2))
        assert out[0].tobytes().startswith(b"live")
        assert out[1].tobytes() == bytes([0xFF]) * array.geometry.page_bytes

    def test_erased_pages_never_get_errors(self, array):
        out = array.read_pages(np.array([4, 5]), np.array([0.3, 0.3]))
        assert (out == 0xFF).all()

    def test_batch_counts_reads_per_block(self, array):
        array.read_pages(np.array([0, 1, 4, 0]), np.zeros(4))
        assert array.reads_since_erase(0) == 3  # pages 0, 1 and 0 again
        assert array.reads_since_erase(1) == 1

    def test_duplicate_batch_program_rejected(self, array):
        with pytest.raises(NandOperationError):
            array.program_pages(np.array([3, 3]), [b"a", b"b"])

    def test_batch_program_validates_before_writing(self, array):
        array.program_page(0, 1, b"old")
        with pytest.raises(NandOperationError):
            array.program_pages(np.array([0, 1]), [b"new0", b"new1"])
        # The failed batch must not have touched page 0.
        assert not array.is_programmed(0, 0)

    def test_batch_error_counts_binomially_consistent(self, rng):
        geometry = NandGeometry(blocks=1, pages_per_block=64)
        array = NandArray(geometry, rng)
        n_pages, page_bytes = 64, geometry.page_bytes
        flats = np.arange(n_pages)
        reference = rng.integers(0, 256, (n_pages, page_bytes), dtype=np.uint8)
        array.program_pages(flats, [row.tobytes() for row in reference])
        rber = 2e-3
        n_bits = page_bytes * 8
        counts = []
        for _ in range(12):
            out = array.read_pages(flats, np.full(n_pages, rber))
            diff = np.unpackbits(out ^ reference, axis=1)
            counts.append(diff.sum(axis=1))
        counts = np.concatenate(counts)
        expected = n_bits * rber
        # Binomial(n_bits, rber): check mean and variance within tolerance.
        assert counts.mean() == pytest.approx(expected, rel=0.1)
        assert counts.var() == pytest.approx(expected * (1 - rber), rel=0.35)

    def test_heterogeneous_rbers_per_page(self, rng):
        geometry = NandGeometry(blocks=1, pages_per_block=4)
        array = NandArray(geometry, rng)
        flats = np.arange(4)
        blank = bytes(geometry.page_bytes)
        array.program_pages(flats, [blank] * 4)
        rbers = np.array([0.0, 1e-3, 5e-3, 2e-2])
        n_bits = geometry.page_bytes * 8
        totals = np.zeros(4)
        rounds = 40
        for _ in range(rounds):
            out = array.read_pages(flats, rbers)
            totals += np.unpackbits(out, axis=1).sum(axis=1)
        means = totals / rounds
        assert means[0] == 0.0
        for i in (1, 2, 3):
            assert means[i] == pytest.approx(n_bits * rbers[i], rel=0.25)

    def test_dense_fallback_high_rber(self, rng):
        geometry = NandGeometry(blocks=1, pages_per_block=2)
        array = NandArray(geometry, rng)
        array.program_pages(np.arange(2), [bytes(geometry.page_bytes)] * 2)
        out = array.read_pages(np.arange(2), np.array([0.5, 0.5]))
        ones = np.unpackbits(out, axis=1).sum(axis=1)
        n_bits = geometry.page_bytes * 8
        assert ones[0] == pytest.approx(n_bits * 0.5, rel=0.05)
        assert ones[1] == pytest.approx(n_bits * 0.5, rel=0.05)

    def test_batch_rber_validation(self, array):
        with pytest.raises(NandOperationError):
            array.read_pages(np.array([0]), np.array([1.0]))
        with pytest.raises(NandOperationError):
            array.read_pages(np.array([0]), np.array([-0.1]))

    def test_batch_address_bounds(self, array):
        with pytest.raises(NandOperationError):
            array.read_pages(np.array([array.geometry.pages]), np.zeros(1))


class TestRejectedRbers:
    @pytest.mark.parametrize("rber", [np.nan, 1.0, -0.1, np.inf])
    def test_invalid_rber_leaves_no_trace(self, array, rber):
        array.program_page(0, 0, b"x")
        before = (
            array._reads_since_erase.tolist(), array.rng.bit_generator.state
        )
        with pytest.raises(NandOperationError, match="RBER"):
            array.read_pages(np.array([0]), np.array([rber]))
        assert before == (
            array._reads_since_erase.tolist(), array.rng.bit_generator.state
        )
