"""Syndrome computation tests.

The fold-table kernel is checked against two references: Horner
evaluation of the received word (``naive_syndromes``, small and medium
codes) and the syndromes of the injected error pattern
(``syndromes_of_error_positions``, any code size).
"""

import pytest

from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from repro.bch.reference import naive_syndromes
from repro.bch.syndrome import SyndromeCalculator
from tests.conftest import flip_bits


class TestSyndromes:
    def test_clean_codeword_all_zero(self, small_spec, rng):
        calc = SyndromeCalculator(small_spec)
        encoder = BCHEncoder(small_spec)
        codeword = encoder.encode_codeword(rng.bytes(small_spec.k // 8))
        syndromes = calc.syndromes_vectorized(codeword)
        assert calc.all_zero(syndromes)

    def test_matches_naive_horner(self, small_spec, rng):
        calc = SyndromeCalculator(small_spec)
        encoder = BCHEncoder(small_spec)
        codeword = encoder.encode_codeword(rng.bytes(small_spec.k // 8))
        corrupted = flip_bits(codeword, [5, 17, 40])
        assert (calc.syndromes_vectorized(corrupted)
                == naive_syndromes(small_spec, corrupted))

    def test_matches_naive_medium(self, medium_spec, rng):
        calc = SyndromeCalculator(medium_spec)
        encoder = BCHEncoder(medium_spec)
        codeword = encoder.encode_codeword(rng.bytes(medium_spec.k // 8))
        corrupted = flip_bits(codeword, [0, 300, 999])
        assert (calc.syndromes_vectorized(corrupted)
                == naive_syndromes(medium_spec, corrupted))

    def test_even_syndromes_are_squares(self, medium_spec, rng):
        calc = SyndromeCalculator(medium_spec)
        encoder = BCHEncoder(medium_spec)
        codeword = flip_bits(
            encoder.encode_codeword(rng.bytes(medium_spec.k // 8)), [3, 77]
        )
        syndromes = calc.syndromes_vectorized(codeword)
        field = medium_spec.field()
        for i in range(2, 2 * medium_spec.t + 1, 2):
            assert syndromes[i - 1] == field.mul(
                syndromes[i // 2 - 1], syndromes[i // 2 - 1]
            )

    def test_syndromes_depend_only_on_error_pattern(self, small_spec, rng):
        calc = SyndromeCalculator(small_spec)
        encoder = BCHEncoder(small_spec)
        positions = [2, 33, 64]
        words = [
            flip_bits(encoder.encode_codeword(rng.bytes(small_spec.k // 8)), positions)
            for _ in range(2)
        ]
        first, second = (calc.syndromes_vectorized(word) for word in words)
        assert first == second
        assert first == calc.syndromes_of_error_positions(positions)

    def test_single_bit_error_syndrome_structure(self, small_spec):
        calc = SyndromeCalculator(small_spec)
        field = small_spec.field()
        pos = 10
        exponent = small_spec.n_stored - 1 - pos
        syndromes = calc.syndromes_of_error_positions([pos])
        for i in range(1, 2 * small_spec.t + 1):
            assert syndromes[i - 1] == field.alpha_pow(i * exponent)


class TestFoldTablePath:
    @pytest.mark.parametrize(
        "k,t",
        [
            (64, 3),      # r = 21, pad_bits = 3
            (1024, 4),    # r = 44, pad_bits = 4
            (32768, 6),   # r = 96, no pad bits
            (32768, 33),  # W = 9: nibble-major fold table
            (32768, 65),  # W = 17: nibble-major fold table
        ],
    )
    def test_matches_references_for_message_parity_and_pad_errors(
        self, k, t, rng
    ):
        spec = design_code(k, t)
        encoder = BCHEncoder(spec)
        calc = SyndromeCalculator(spec)
        parity_end = spec.k + spec.r  # first pad bit, if any
        patterns = [
            [],
            [0],
            [spec.k - 1],                       # last message bit
            [spec.k],                           # first parity bit
            [parity_end - 1],                   # last parity bit
            [spec.n_stored - 1],                # pad bit (or last parity)
            [1, spec.k + 2, spec.n_stored - 1],
            list(range(parity_end, spec.n_stored)),  # every pad bit
        ]
        words = [
            flip_bits(encoder.encode_codeword(rng.bytes(k // 8)), positions)
            for positions in patterns
        ]
        batch = calc.syndromes_batch(words)
        assert batch.shape == (len(words), 2 * spec.t)
        for row, word, positions in zip(batch, words, patterns):
            reference = calc.syndromes_of_error_positions(positions)
            if k <= 1024:
                assert naive_syndromes(spec, word) == reference
            assert row.tolist() == reference
            assert calc.syndromes_vectorized(word) == reference
        assert not batch[0].any()
        assert batch[1:-1].any(axis=1).all()

    def test_mis_sized_words_rejected(self):
        spec = design_code(1024, 4)
        calc = SyndromeCalculator(spec)
        assert spec.k // 8 + spec.parity_bytes == 134
        with pytest.raises(ValueError, match="134 bytes"):
            calc.syndromes_batch([bytes(133), bytes(135)])
        with pytest.raises(ValueError, match="134 bytes"):
            calc.syndromes_vectorized(bytes(137))

    def test_empty_batch(self, small_spec):
        calc = SyndromeCalculator(small_spec)
        assert calc.syndromes_batch([]).shape == (0, 2 * small_spec.t)
