"""Systematic BCH encoder tests."""

import numpy as np
import pytest

from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from repro.bch.reference import BitSerialLFSREncoder
from repro.gf.poly2 import poly2_mod


class TestEncoder:
    def test_matches_bit_serial_reference(self, small_spec, rng):
        fast = BCHEncoder(small_spec)
        reference = BitSerialLFSREncoder(small_spec)
        for _ in range(10):
            message = rng.bytes(small_spec.k // 8)
            assert fast.encode_codeword(message) == reference.encode_codeword(message)

    def test_matches_reference_medium(self, medium_spec, rng):
        fast = BCHEncoder(medium_spec)
        reference = BitSerialLFSREncoder(medium_spec)
        message = rng.bytes(medium_spec.k // 8)
        assert fast.encode_codeword(message) == reference.encode_codeword(message)

    def test_codeword_is_multiple_of_generator(self, medium_spec, rng):
        encoder = BCHEncoder(medium_spec)
        message = rng.bytes(medium_spec.k // 8)
        codeword_int = int.from_bytes(encoder.encode_codeword(message), "big")
        # Stored stream = codeword * x^pad; divisibility by g is preserved.
        assert poly2_mod(codeword_int, medium_spec.generator) == 0

    def test_systematic_prefix(self, small_spec, rng):
        encoder = BCHEncoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        assert encoder.encode_codeword(message)[: len(message)] == message

    def test_zero_message_zero_parity(self, small_spec):
        encoder = BCHEncoder(small_spec)
        message = bytes(small_spec.k // 8)
        assert encoder.encode(message) == bytes(small_spec.parity_bytes)

    def test_linearity(self, small_spec, rng):
        encoder = BCHEncoder(small_spec)
        a = rng.bytes(small_spec.k // 8)
        b = rng.bytes(small_spec.k // 8)
        xor = bytes(x ^ y for x, y in zip(a, b))
        parity_xor = bytes(
            x ^ y for x, y in zip(encoder.encode(a), encoder.encode(b))
        )
        assert encoder.encode(xor) == parity_xor

    def test_is_codeword(self, small_spec, rng):
        encoder = BCHEncoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = bytearray(encoder.encode_codeword(message))
        assert encoder.is_codeword(bytes(codeword))
        codeword[0] ^= 0x01
        assert not encoder.is_codeword(bytes(codeword))

    def test_wrong_length_rejected(self, small_spec):
        encoder = BCHEncoder(small_spec)
        with pytest.raises(ValueError):
            encoder.encode(bytes(3))
        with pytest.raises(ValueError):
            encoder.is_codeword(bytes(5))

    def test_page_sized_encode(self, page_spec, rng):
        encoder = BCHEncoder(page_spec)
        message = rng.bytes(4096)
        codeword = encoder.encode_codeword(message)
        assert len(codeword) == 4096 + page_spec.parity_bytes
        assert encoder.is_codeword(codeword)


class TestSliceWidths:
    """Wide (16-byte) vs narrow (8-byte) batch slicing, both vs scalar."""

    def test_wide_slice_selected_at_r_128(self):
        from repro.bch.params import design_code

        assert BCHEncoder(design_code(32768, 8)).slice_bytes == 16   # r = 128
        assert BCHEncoder(design_code(32768, 14)).slice_bytes == 16  # r = 224
        assert BCHEncoder(design_code(1024, 8)).slice_bytes == 8     # r = 88

    @pytest.mark.parametrize(
        "k,t",
        [
            (32768, 8),    # r = 128: smallest wide-slice code
            (32768, 14),   # r = 224: the paper's ISPP-DV end-of-life point
            (1024, 8),     # r = 88: narrow 8-byte slicing retained
        ],
    )
    def test_batch_matches_scalar(self, k, t, rng):
        from repro.bch.params import design_code

        encoder = BCHEncoder(design_code(k, t))
        messages = [rng.bytes(k // 8) for _ in range(5)]
        assert encoder.encode_batch(messages) == [
            encoder.encode(message) for message in messages
        ]


class TestSharedTables:
    """Reduction tables are built once per code and shared read-only."""

    @pytest.mark.parametrize(
        "k,t",
        [(32768, t) for t in (1, 3, 8, 14, 33, 65)]
        + [(64, 3)],  # r = 21 < 64: encode_batch takes the scalar path
    )
    def test_tables_match_poly2_mod_definition(self, k, t):
        spec = design_code(k, t)
        r, g = spec.r, spec.generator
        encoder = BCHEncoder(spec)
        assert list(encoder._table) == [poly2_mod(v << r, g) for v in range(256)]
        align = 64 * ((r + 63) // 64) - r
        for slice_bytes in (8, 16):
            tables = encoder._batch_tables(slice_bytes)
            assert tables.shape == (slice_bytes, 256, (r + 63) // 64)
            for p in range(slice_bytes):
                shift = r + 8 * (slice_bytes - 1 - p)
                rows = tables[p].astype(np.dtype(">u8")).tobytes()
                width = len(rows) // 256
                assert [
                    int.from_bytes(rows[v * width:(v + 1) * width], "big")
                    >> align
                    for v in range(256)
                ] == [poly2_mod(v << shift, g) for v in range(256)]

    def test_scalar_fallback_code_batch_matches_scalar(self, small_spec, rng):
        encoder = BCHEncoder(small_spec)
        assert not encoder.supports_batch_kernel
        messages = [rng.bytes(small_spec.k // 8) for _ in range(3)]
        assert encoder.encode_batch(messages) == [
            encoder.encode(message) for message in messages
        ]

    def test_encoders_of_one_code_share_tables(self, page_spec):
        first, second = BCHEncoder(page_spec), BCHEncoder(page_spec)
        assert first._table is second._table
        for slice_bytes in (8, 16):
            assert (first._batch_tables(slice_bytes)
                    is second._batch_tables(slice_bytes))

    def test_cached_tables_are_read_only(self, page_spec):
        encoder = BCHEncoder(page_spec)
        tables = encoder._batch_tables(encoder.slice_bytes)
        with pytest.raises(ValueError):
            tables[0, 1, 0] = 0
        with pytest.raises(ValueError):
            tables[0][1] ^= tables[0][2]
        with pytest.raises(TypeError):
            encoder._table[1] = 0
