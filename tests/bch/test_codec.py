"""Adaptive codec tests."""

import pytest

from repro.bch.codec import AdaptiveBCHCodec
from repro.bch.params import design_code
from repro.errors import CodeDesignError, ConfigurationError
from tests.conftest import flip_bits


@pytest.fixture(scope="module")
def codec() -> AdaptiveBCHCodec:
    return AdaptiveBCHCodec(k=1024, t_max=16, t_min=1)


class TestAdaptiveCodec:
    def test_default_capability_is_t_min(self, codec):
        assert codec.t == codec.t_min

    def test_reconfiguration_port(self, codec):
        codec.set_correction_capability(8)
        assert codec.t == 8
        with pytest.raises(ConfigurationError):
            codec.set_correction_capability(17)
        with pytest.raises(ConfigurationError):
            codec.set_correction_capability(0)

    def test_parity_grows_with_t(self, codec):
        assert codec.parity_bytes(2) < codec.parity_bytes(10)

    def test_round_trip_at_multiple_capabilities(self, codec, rng):
        message = rng.bytes(128)
        for t in (2, 5, 9, 16):
            codec.set_correction_capability(t)
            codeword = codec.encode(message)
            positions = rng.choice(
                codec.spec.n_stored, t, replace=False
            ).tolist()
            result = codec.decode(flip_bits(codeword, positions))
            assert result.data == message
            assert result.corrected_bits == t

    def test_explicit_t_override(self, codec, rng):
        message = rng.bytes(128)
        codec.set_correction_capability(4)
        codeword_t9 = codec.encode(message, t=9)
        # Decoding with the written t must succeed regardless of current t.
        result = codec.decode(codeword_t9, t=9)
        assert result.data == message
        assert codec.t == 4  # unchanged

    def test_observation_aggregates(self, rng):
        codec = AdaptiveBCHCodec(k=1024, t_max=8)
        codec.set_correction_capability(4)
        message = rng.bytes(128)
        codeword = codec.encode(message)
        codec.decode(codeword)
        codec.decode(flip_bits(codeword, [10, 600, 900]))
        obs = codec.observation()
        assert obs.words_decoded == 2
        assert obs.bits_corrected == 3
        assert obs.max_errors_in_word == 3
        assert obs.words_failed == 0
        assert 0 < obs.observed_rber < 1e-2

    def test_latency_hooks(self, codec):
        assert codec.encode_latency_s(t=2) > 0
        assert codec.decode_latency_s(t=16) > codec.decode_latency_s(
            t=16, with_errors=False
        )

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptiveBCHCodec(k=1024, t_max=4, t_min=5)

    def test_every_t_over_the_field_of_t_max(self):
        # A 1,000-byte message alone fits GF(2^13) at t = 1, but the
        # codec designs its whole range over the field t_max needs.
        codec = AdaptiveBCHCodec(k=8000, t_max=65)
        assert design_code(8000, 1).m == 13
        assert codec.m == codec.spec_for(1).m == codec.spec_for(65).m == 14

    def test_code_without_a_field_rejected_when_built(self):
        with pytest.raises(CodeDesignError, match="no field"):
            AdaptiveBCHCodec(k=32768, t_max=2048)
