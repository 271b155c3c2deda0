"""Property-based BCH round-trip tests (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from repro.gf.poly2 import poly2_mod
from tests.conftest import flip_bits

#: Shared small code: k = 64 bits, t = 3 (m = 7).
_SPEC = design_code(64, 3)
_ENCODER = BCHEncoder(_SPEC)
_DECODER = BCHDecoder(_SPEC)

messages = st.binary(min_size=8, max_size=8)
position_sets = st.sets(
    st.integers(min_value=0, max_value=_SPEC.n_stored - 1),
    min_size=0, max_size=_SPEC.t,
)


class TestRoundTripProperties:
    @given(message=messages, positions=position_sets)
    @settings(max_examples=250, deadline=None)
    def test_any_message_any_error_pattern_round_trips(self, message, positions):
        codeword = _ENCODER.encode_codeword(message)
        corrupted = flip_bits(codeword, sorted(positions))
        result = _DECODER.decode(corrupted)
        assert result.data == message
        assert result.corrected_bits == len(positions)
        assert set(result.error_positions) == positions

    @given(message=messages)
    @settings(max_examples=100, deadline=None)
    def test_every_codeword_is_valid(self, message):
        assert _ENCODER.is_codeword(_ENCODER.encode_codeword(message))

    @given(a=messages, b=messages)
    @settings(max_examples=100, deadline=None)
    def test_code_linearity(self, a, b):
        xor = bytes(x ^ y for x, y in zip(a, b))
        pa = _ENCODER.parity_int(a)
        pb = _ENCODER.parity_int(b)
        assert _ENCODER.parity_int(xor) == pa ^ pb

    @given(
        message=messages,
        position=st.integers(min_value=0, max_value=_SPEC.n_stored - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_error_never_escapes(self, message, position):
        codeword = _ENCODER.encode_codeword(message)
        corrupted = flip_bits(codeword, [position])
        assert not _ENCODER.is_codeword(corrupted)
        result = _DECODER.decode(corrupted)
        assert result.data == message


class TestMinimumDistanceProperty:
    @given(message=messages, positions=position_sets)
    @settings(max_examples=150, deadline=None)
    def test_corrupted_word_within_t_is_never_a_codeword(self, message, positions):
        if not positions:
            return
        codeword = _ENCODER.encode_codeword(message)
        corrupted = flip_bits(codeword, sorted(positions))
        # d_min >= 2t+1 > t, so no pattern of weight <= t maps a codeword
        # onto another codeword.
        assert not _ENCODER.is_codeword(corrupted)


#: The shared code plus one with t >= 8 and pad bits (k = 512, t = 10,
#: m = 10), each with its encoder and decoder.
_CODES = {
    spec.t: (spec, BCHEncoder(spec), BCHDecoder(spec))
    for spec in (_SPEC, design_code(512, 10))
}


class TestDecodeByDefinition:
    """Decodes checked against what was injected and against the
    definition of a codeword, for error weights 0 to t + 6."""

    @pytest.mark.parametrize("t", sorted(_CODES))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_decode_up_to_t_plus_6_errors(self, t, data):
        spec, encoder, decoder = _CODES[t]
        message = data.draw(st.binary(min_size=spec.k // 8,
                                      max_size=spec.k // 8))
        weight = data.draw(st.integers(min_value=0, max_value=t + 6))
        positions = data.draw(st.sets(
            st.integers(min_value=0, max_value=spec.n_stored - 1),
            min_size=weight, max_size=weight,
        ))
        corrupted = flip_bits(encoder.encode_codeword(message),
                              sorted(positions))
        result = decoder.decode(corrupted, strict=False)
        if weight <= t:
            assert result.success
            assert result.data == message
            assert set(result.error_positions) == positions
            assert result.corrected_bits == weight
            return
        if not result.success:
            assert result.data == corrupted[:spec.k // 8]
            assert result.corrected_bits == 0
            return
        # A miscorrection: the word it returns is within t of what was
        # read, and its stored stream is divisible by g.  The decoder
        # corrects over all n_stored stream bits, pad bits included, so
        # that word is an encoder output exactly when its pad bits are 0.
        assert len(result.error_positions) == result.corrected_bits <= t
        fixed = flip_bits(corrupted, list(result.error_positions))
        assert result.data == fixed[:spec.k // 8]
        assert poly2_mod(int.from_bytes(fixed, "big"), spec.generator) == 0
        pad_mask = (1 << spec.pad_bits) - 1
        assert encoder.is_codeword(fixed) == (fixed[-1] & pad_mask == 0)
