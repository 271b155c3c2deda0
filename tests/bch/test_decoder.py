"""Full decoder pipeline tests."""

import gc

import pytest

from repro.bch import chien, syndrome
from repro.bch import encoder as encoder_module
from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from repro.errors import DecodingFailure
from tests.conftest import flip_bits


class TestDecoder:
    def test_clean_word_early_exit(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        result = decoder.decode(encoder.encode_codeword(message))
        assert result.early_exit
        assert result.corrected_bits == 0
        assert result.data == message

    @pytest.mark.parametrize("n_errors", [1, 2, 3])
    def test_corrects_up_to_t(self, small_spec, rng, n_errors):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        for _ in range(5):
            message = rng.bytes(small_spec.k // 8)
            codeword = encoder.encode_codeword(message)
            positions = sorted(
                rng.choice(small_spec.n_stored, n_errors, replace=False).tolist()
            )
            result = decoder.decode(flip_bits(codeword, positions))
            assert result.data == message
            assert result.corrected_bits == n_errors
            assert list(result.error_positions) == positions

    def test_errors_in_parity_only(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = encoder.encode_codeword(message)
        parity_positions = [small_spec.k + 1, small_spec.k + 9]
        result = decoder.decode(flip_bits(codeword, parity_positions))
        assert result.data == message
        assert result.corrected_bits == 2

    def test_overload_raises_in_strict_mode(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = encoder.encode_codeword(message)
        failures = 0
        for trial in range(8):
            positions = (
                rng.choice(small_spec.n_stored, small_spec.t + 2, replace=False)
                .tolist()
            )
            try:
                result = decoder.decode(flip_bits(codeword, positions))
            except DecodingFailure:
                failures += 1
            else:
                # Miscorrection is possible beyond t, but the corrected word
                # must then be a *different* valid codeword, not the original.
                assert result.data != message
        assert failures >= 1

    def test_permissive_mode_returns_failure(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = encoder.encode_codeword(message)
        # Collect one genuine failure (retrying patterns until detection).
        for trial in range(20):
            positions = rng.choice(
                small_spec.n_stored, small_spec.t + 2, replace=False
            ).tolist()
            try:
                decoder.decode(flip_bits(codeword, positions))
            except DecodingFailure:
                result = decoder.decode(flip_bits(codeword, positions), strict=False)
                assert not result.success
                assert result.corrected_bits == 0
                return
        pytest.skip("no detectable overload pattern found (extremely unlikely)")

    def test_locator_degree_over_t_fails_without_chien(
        self, small_spec, rng, monkeypatch
    ):
        # The error pattern is the t = 2 generator over the same field: a
        # nonzero word of that code, so S_1..S_4 vanish, S_5 does not, and
        # the locator is 1 + S_5 x^5, of degree 5 > t = 3.
        inner = design_code(small_spec.k, 2)
        assert inner.field() == small_spec.field()
        n = small_spec.n_stored
        positions = [
            n - 1 - j for j in range(inner.generator.bit_length())
            if inner.generator >> j & 1
        ]
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        codeword = encoder.encode_codeword(rng.bytes(small_spec.k // 8))
        corrupted = flip_bits(codeword, positions)
        searches = []
        search = chien.ChienSearch.error_positions

        def counted(self, locator):
            searches.append(locator.degree)
            return search(self, locator)

        monkeypatch.setattr(chien.ChienSearch, "error_positions", counted)
        with pytest.raises(DecodingFailure) as failure:
            decoder.decode(corrupted)
        assert failure.value.detected == 5
        assert str(failure.value) == (
            "uncorrectable word: locator degree 5 (t=3)"
        )
        result = decoder.decode(corrupted, strict=False)
        assert not result.success
        assert result.data == corrupted[:small_spec.k // 8]
        assert (result.corrected_bits, result.error_positions) == (0, ())
        assert searches == []
        # A word within capacity still runs the search.
        assert decoder.decode(flip_bits(codeword, positions[:2])).success
        assert searches == [2]

    def test_wrong_length_rejected(self, small_spec):
        decoder = BCHDecoder(small_spec)
        with pytest.raises(ValueError):
            decoder.decode(bytes(3))

    def test_page_code_full_capability(self, rng):
        from repro.bch.params import design_code

        spec = design_code(32768, 12)
        encoder, decoder = BCHEncoder(spec), BCHDecoder(spec)
        message = rng.bytes(4096)
        codeword = encoder.encode_codeword(message)
        positions = rng.choice(spec.n_stored, 12, replace=False).tolist()
        result = decoder.decode(flip_bits(codeword, positions))
        assert result.data == message
        assert result.corrected_bits == 12


class TestSharedTables:
    """Decoders of one code (one per die) share their lazy tables, and
    every Chien search over a field shares that field's screen rows."""

    def test_two_dies_share_tables_and_decode_like_fresh_decoders(self, rng):
        spec = design_code(32768, 14)
        encoder = BCHEncoder(spec)
        words = []
        for weight in range(1, spec.t + 1):
            message = rng.bytes(spec.k // 8)
            positions = sorted(
                rng.choice(spec.n_stored, weight, replace=False).tolist()
            )
            words.append(
                (message, positions,
                 flip_bits(encoder.encode_codeword(message), positions))
            )
        # One fresh decoder per word, each the only live decoder of the
        # code, so it builds its own tables.
        fresh = []
        for _, _, corrupted in words:
            result = BCHDecoder(spec).decode(corrupted)
            fresh.append((result.data, result.error_positions))
            gc.collect()

        dies = (BCHDecoder(spec), BCHDecoder(spec))
        die_a, die_b = dies
        assert (die_a.syndrome_calculator._bit_power_table()
                is die_b.syndrome_calculator._bit_power_table())
        for index, (message, positions, corrupted) in enumerate(words):
            result = dies[index % 2].decode(corrupted)
            assert (result.data, result.error_positions) == fresh[index]
            assert result.data == message
            assert list(result.error_positions) == positions
        assert die_a.chien._rows is die_b.chien._rows
        assert die_a.chien._rows is chien._FIELD_ROWS[spec.field()]

    def test_codes_of_one_field_share_the_rows(self, rng):
        decoders = [BCHDecoder(design_code(32768, t)) for t in (14, 65)]
        for decoder in decoders:
            spec = decoder.spec
            word = BCHEncoder(spec).encode_codeword(rng.bytes(spec.k // 8))
            positions = sorted(
                rng.choice(spec.n_stored, spec.t, replace=False).tolist()
            )
            result = decoder.decode(flip_bits(word, positions))
            assert list(result.error_positions) == positions
        low, high = decoders
        assert low.spec.field() is high.spec.field()
        assert low.chien._rows is high.chien._rows
        # Rows for every degree searched, the t = 65 locator's included.
        assert len(high.chien._rows) > 65

    def test_tables_are_freed_with_the_last_decoder(self):
        spec = design_code(1024, 5)
        field = spec.field()
        fold_key = (spec.generator, spec.r)
        power_key = (field, 8 * spec.parity_bytes, spec.t)
        gc.collect()
        decoder = BCHDecoder(spec)
        # The screen rows are built on the first errored decode, not
        # with the decoder nor on a clean word.
        clean = bytes(spec.k // 8 + spec.parity_bytes)
        assert decoder.decode(clean).early_exit
        assert field not in chien._FIELD_ROWS
        # The all-zero word is a codeword; one flipped bit needs every
        # table of the fast path.
        word = flip_bits(clean, [3])
        assert decoder.decode(word).error_positions == (3,)
        assert fold_key in encoder_module._FOLD_TABLES
        assert power_key in syndrome._POWER_TABLES
        assert chien._FIELD_ROWS[field] is decoder.chien._rows
        del decoder
        gc.collect()
        assert fold_key not in encoder_module._FOLD_TABLES
        assert power_key not in syndrome._POWER_TABLES
        assert field not in chien._FIELD_ROWS
