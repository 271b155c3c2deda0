"""Property tests: batch kernels agree bit-for-bit with the definitions
across capabilities and error weights (0..t+2, i.e. including
uncorrectable words): encode with long division, syndromes with Horner
evaluation (k = 1024 codes) and with the syndromes of the injected
error pattern, decodes with the injected positions and with
per-word decodes."""

import numpy as np
import pytest

from repro.bch.decoder import BCHDecoder, DecoderStats
from repro.bch.encoder import BCHEncoder
from repro.bch.codec import AdaptiveBCHCodec
from repro.bch.params import design_code
from repro.bch.reference import naive_syndromes
from repro.errors import DecodingFailure
from tests.conftest import flip_bits, stored_parity_by_definition

#: (k, t) matrix covering the required t range; page-sized at high t.
SPECS = [(1024, 1), (1024, 3), (8192, 14), (32768, 65)]


def _random_weights(t: int, rng: np.random.Generator, samples: int = 6):
    """Random error weights drawn from 0..t+2 (always includes the ends)."""
    extremes = [0, 1, t, t + 2]
    drawn = rng.integers(0, t + 3, size=samples).tolist()
    return sorted(set(extremes + drawn))


def _corrupted_words(spec, rng: np.random.Generator):
    """Codewords of random messages, each carrying one random error
    weight from :func:`_random_weights`; returns (words, positions)."""
    encoder = BCHEncoder(spec)
    words, patterns = [], []
    for weight in _random_weights(spec.t, rng):
        codeword = encoder.encode_codeword(rng.bytes(spec.k // 8))
        positions = rng.choice(
            spec.n_stored, size=weight, replace=False
        ).tolist()
        words.append(flip_bits(codeword, positions))
        patterns.append(positions)
    return words, patterns


@pytest.mark.parametrize("k,t", SPECS)
class TestBatchAgainstScalar:
    def test_encode_batch_matches_definition(self, k, t, rng):
        spec = design_code(k, t)
        encoder = BCHEncoder(spec)
        messages = [rng.bytes(k // 8) for _ in range(5)]
        parities = [stored_parity_by_definition(spec, m) for m in messages]
        assert encoder.encode_batch(messages) == parities
        assert encoder.encode_codeword_batch(messages) == [
            m + p for m, p in zip(messages, parities)
        ]

    def test_syndromes_vectorized_and_batch_match_reference(self, k, t, rng):
        spec = design_code(k, t)
        calc = BCHDecoder(spec).syndrome_calculator
        words, patterns = _corrupted_words(spec, rng)
        batch = calc.syndromes_batch(words)
        for row, word, positions in zip(batch, words, patterns):
            reference = calc.syndromes_of_error_positions(positions)
            if k <= 1024:
                assert naive_syndromes(spec, word) == reference
            assert calc.syndromes_vectorized(word) == reference
            assert row.tolist() == reference

    def test_decode_batch_matches_scalar_permissive(self, k, t, rng):
        spec = design_code(k, t)
        batch_decoder = BCHDecoder(spec)
        scalar_decoder = BCHDecoder(spec)
        words, patterns = _corrupted_words(spec, rng)
        batch_results = batch_decoder.decode_batch(words, strict=False)
        for word, positions, batch_result in zip(
            words, patterns, batch_results
        ):
            assert scalar_decoder.decode(word, strict=False) == batch_result
            if len(positions) <= t:
                # Correctable: exactly the injected errors are undone.
                assert batch_result.success
                assert sorted(batch_result.error_positions) == sorted(
                    positions
                )
                assert batch_result.data == flip_bits(word, positions)[
                    : k // 8
                ]
                assert batch_result.early_exit == (not positions)
        # Aggregate decoder telemetry also agrees word-for-word.
        assert batch_decoder.stats == scalar_decoder.stats


class TestBatchBehaviour:
    def test_decode_batch_strict_raises(self, medium_spec, rng):
        encoder = BCHEncoder(medium_spec)
        decoder = BCHDecoder(medium_spec)
        clean = encoder.encode_codeword(rng.bytes(medium_spec.k // 8))
        hopeless = flip_bits(
            clean,
            rng.choice(
                medium_spec.n_stored,
                size=medium_spec.t + 2,
                replace=False,
            ).tolist(),
        )
        with pytest.raises(DecodingFailure):
            decoder.decode_batch([clean, hopeless], strict=True)

    def test_decode_batch_empty(self, medium_spec):
        assert BCHDecoder(medium_spec).decode_batch([]) == []

    def test_decode_batch_early_exit_flags(self, medium_spec, rng):
        encoder = BCHEncoder(medium_spec)
        decoder = BCHDecoder(medium_spec)
        clean = encoder.encode_codeword(rng.bytes(medium_spec.k // 8))
        dirty = flip_bits(clean, [7])
        results = decoder.decode_batch([clean, dirty, clean])
        assert [r.early_exit for r in results] == [True, False, True]
        assert decoder.stats.words_clean == 2

    def test_codec_batch_roundtrip_and_telemetry(self, rng):
        batch_codec = AdaptiveBCHCodec(k=1024, t_max=8)
        scalar_codec = AdaptiveBCHCodec(k=1024, t_max=8)
        for codec in (batch_codec, scalar_codec):
            codec.set_correction_capability(8)
        spec = batch_codec.spec
        messages = [rng.bytes(128) for _ in range(6)]
        codewords = batch_codec.encode_batch(messages)
        assert codewords == [scalar_codec.encode(m) for m in messages]
        corrupted = [
            flip_bits(
                cw,
                rng.choice(spec.n_stored, size=w, replace=False).tolist(),
            )
            for cw, w in zip(codewords, [0, 1, 3, 8, 9, 10])
        ]
        batch_results = batch_codec.decode_batch(corrupted, strict=False)
        scalar_results = [
            scalar_codec.decode(cw, strict=False) for cw in corrupted
        ]
        for batch_result, scalar_result in zip(batch_results, scalar_results):
            assert batch_result.data == scalar_result.data
            assert batch_result.success == scalar_result.success
        assert batch_codec.observation() == scalar_codec.observation()

    def test_stats_deque_bounded(self):
        stats = DecoderStats()
        for i in range(3000):
            stats.observe(i % 4, 1024, failed=False)
        assert len(stats.recent_error_counts) == 1024
        assert stats.words_decoded == 3000
