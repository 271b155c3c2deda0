"""Systematic BCH encoder tests."""

import dataclasses
import gc

import numpy as np
import pytest

from repro.bch import encoder as encoder_module
from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import FOLD_BYTES, NIBBLE_MAJOR_WORDS, BCHEncoder
from repro.bch.params import BCHCodeSpec, design_code
from repro.bch.reference import BitSerialLFSREncoder
from repro.errors import CodeDesignError
from repro.gf.poly2 import poly2_mod
from tests.conftest import flip_bits, stored_parity_by_definition


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


class TestFoldKernel:
    """Every encode, single or batched, equals the definition."""

    @pytest.mark.parametrize(
        "k,t",
        [(32768, t) for t in (1, 3, 6, 8, 14, 33, 65)]
        + [
            (1024, 8),      # r = 88: shorter than one block
            (8 * 1500, 5),  # r = 70: not a whole number of blocks
            (8 * 1500, 40),  # r = 560, W = 9: nibble-major, short block
            (64, 3),        # r = 21 < 64, pad_bits = 3
            (1024, 4),      # r = 44, pad_bits = 4
        ],
    )
    def test_encode_matches_definition(self, k, t, rng):
        spec = design_code(k, t)
        encoder = BCHEncoder(spec)
        messages = [rng.bytes(k // 8) for _ in range(14)] + [
            b"\xff" * (k // 8)
        ]
        batch = encoder.encode_batch(messages)
        assert [encoder.encode_batch([m])[0] for m in messages] == batch
        for index in (0, 1, 7, 13, 14):
            message = messages[index]
            assert batch[index] == stored_parity_by_definition(spec, message)
            assert encoder.encode(message) == batch[index]
            assert encoder.parity_int(message) == poly2_mod(
                int.from_bytes(message, "big") << spec.r, spec.generator
            )

    def test_encode_batch_empty(self, page_spec):
        assert BCHEncoder(page_spec).encode_batch([]) == []

    def test_parity_bits_limited_to_one_block(self):
        # Hand-made specs: only r matters to the check, and no real code
        # this wide is cheap to design.
        fits = BCHCodeSpec(m=16, k=8192, t=512, r=8 * FOLD_BYTES,
                           generator=(1 << 8 * FOLD_BYTES) | 1)
        BCHEncoder(fits)  # the table is built on first use, not here
        too_wide = dataclasses.replace(
            fits, r=8 * FOLD_BYTES + 1, generator=(1 << 8 * FOLD_BYTES + 1) | 1
        )
        with pytest.raises(CodeDesignError, match="8192"):
            BCHEncoder(too_wide)


class TestSharedTables:
    """One fold table per code: equal to its definition in the layout its
    width selects, shared read-only by every encoder and decoder of the
    code, freed with the last."""

    @pytest.mark.parametrize(
        "k,t,words,nibble_major",
        [
            (32768, 1, 1, False),
            (32768, 3, 1, False),
            (32768, 8, 2, False),
            (32768, 14, 4, False),
            (32768, 33, 9, True),
            (32768, 65, 17, True),
            (64, 3, 1, False),
        ],
    )
    def test_table_matches_poly2_mod_definition(
        self, k, t, words, nibble_major
    ):
        spec = design_code(k, t)
        r, g = spec.r, spec.generator
        assert (r + 63) // 64 == words
        assert (words >= NIBBLE_MAJOR_WORDS) == nibble_major
        table = BCHEncoder._batch_tables(spec)
        nibbles = 2 * FOLD_BYTES
        if nibble_major:
            assert table.shape == (16 * nibbles, words)
            by_entry = table
        else:
            assert table.shape == (words, 16 * nibbles)
            by_entry = table.T
        assert table.flags.c_contiguous
        assert table.dtype == np.uint64
        align = 64 * words - r
        for q in (0, 1, nibbles // 2, nibbles - 2, nibbles - 1):
            entries = by_entry[16 * q:16 * q + 16].astype(">u8")
            assert [
                int.from_bytes(entry.tobytes(), "big") >> align
                for entry in entries
            ] == [
                poly2_mod(v << (r + 4 * (nibbles - 1 - q)), g)
                for v in range(16)
            ]

    def test_encoders_and_decoders_of_one_code_share_the_table(self, rng):
        spec = design_code(1024, 6)
        first, second = BCHEncoder(spec), BCHEncoder(spec)
        decoder = BCHDecoder(spec)
        message = rng.bytes(spec.k // 8)
        codeword = first.encode_codeword(message)
        second.encode_batch([message])
        decoder.decode(flip_bits(codeword, [3]))
        table = BCHEncoder._batch_tables(spec)
        assert first._table is table
        assert second._table is table
        assert decoder.syndrome_calculator._fold_table is table

    def test_table_is_read_only(self, page_spec):
        table = BCHEncoder._batch_tables(page_spec)
        with pytest.raises(ValueError):
            table[0, 1] = 0
        with pytest.raises(ValueError):
            table[0] ^= table[1]

    def test_table_is_freed_with_its_last_user(self, rng):
        spec = design_code(2048, 3)
        key = (spec.generator, spec.r)
        encoder, decoder = BCHEncoder(spec), BCHDecoder(spec)
        codeword = encoder.encode_codeword(rng.bytes(spec.k // 8))
        decoder.decode(flip_bits(codeword, [5]))
        del encoder
        gc.collect()
        assert key in encoder_module._FOLD_TABLES
        del decoder
        gc.collect()
        assert key not in encoder_module._FOLD_TABLES
