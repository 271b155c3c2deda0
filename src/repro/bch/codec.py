"""The adaptive BCH codec (paper section 4).

Wraps per-t encoders/decoders behind a single object whose correction
capability can be changed at runtime through ``set_correction_capability``
— the "dedicated input port" of the paper's adaptable ECC block.  Designed
codes are memoised per (k, t, m) for the whole process, mirroring the
small ROM of characteristic polynomials in the hardware; each codec keeps
one encoder and one decoder per t.  The tables behind them are built once
per code, not per codec, on first use: the fold table is shared by every
live encoder and decoder of the code (one per die) and the syndrome power
table by every live decoder; the Chien screen rows are per field, shared
by every live decoder over it whatever its t.  Each is freed with its
last user.

``encode_batch``/``decode_batch`` are the datapath (see :mod:`repro.bch`
for the design): whole page groups move through numpy kernels, and
``encode``/``decode`` run the same kernels on one word, with identical
per-word results and telemetry.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.bch.decoder import BCHDecoder, DecodeResult
from repro.bch.encoder import BCHEncoder
from repro.bch.hardware import EccLatencyModel
from repro.bch.params import BCHCodeSpec, design_code
from repro.errors import ConfigurationError
from repro.params import MESSAGE_BITS, T_MAX, EccHardwareParams


@dataclass(frozen=True)
class CodecObservation:
    """Feedback snapshot consumed by the reliability manager (section 3)."""

    words_decoded: int
    words_failed: int
    bits_corrected: int
    bits_processed: int
    max_errors_in_word: int

    @property
    def observed_rber(self) -> float:
        """Online pre-correction RBER estimate from corrected-bit counts."""
        if self.bits_processed == 0:
            return 0.0
        return self.bits_corrected / self.bits_processed


class AdaptiveBCHCodec:
    """BCH codec with runtime-programmable correction capability.

    Parameters
    ----------
    k:
        Message length in bits (default: one 4 KiB page).
    t_max / t_min:
        Supported correction-capability range (paper: 3..65 instantiated,
        electrically capable down to 1).
    hw:
        Hardware parameters for the latency model.

    Examples
    --------
    >>> codec = AdaptiveBCHCodec(k=32768, t_max=65)
    >>> codec.set_correction_capability(8)
    >>> codeword = codec.encode(bytes(4096))
    >>> result = codec.decode(codeword)
    >>> result.corrected_bits
    0
    """

    def __init__(
        self,
        k: int = MESSAGE_BITS,
        t_max: int = T_MAX,
        t_min: int = 1,
        m: int | None = None,
        hw: EccHardwareParams | None = None,
    ):
        if not 1 <= t_min <= t_max:
            raise ConfigurationError(f"invalid t range [{t_min}, {t_max}]")
        self.k = k
        self.t_min = t_min
        self.t_max = t_max
        self._m = m
        self.latency_model = EccLatencyModel(hw)
        self._specs: dict[int, BCHCodeSpec] = {}
        self._encoders: dict[int, BCHEncoder] = {}
        self._decoders: dict[int, BCHDecoder] = {}
        self._t = t_min
        # Aggregate decode feedback across reconfigurations.
        self._words_decoded = 0
        self._words_failed = 0
        self._bits_corrected = 0
        self._bits_processed = 0
        self._max_errors = 0

    # -- configuration port -------------------------------------------------

    @property
    def t(self) -> int:
        """Currently selected correction capability."""
        return self._t

    def set_correction_capability(self, t: int) -> None:
        """Reconfigure the codec (the paper's runtime input port)."""
        if not self.t_min <= t <= self.t_max:
            raise ConfigurationError(
                f"t={t} outside supported range [{self.t_min}, {self.t_max}]"
            )
        self._t = t

    def spec_for(self, t: int) -> BCHCodeSpec:
        """Designed code for capability t (cached, the polynomial ROM)."""
        if t not in self._specs:
            if not self.t_min <= t <= self.t_max:
                raise ConfigurationError(
                    f"t={t} outside supported range [{self.t_min}, {self.t_max}]"
                )
            self._specs[t] = design_code(self.k, t, self._m)
        return self._specs[t]

    @property
    def spec(self) -> BCHCodeSpec:
        """Code spec at the current capability."""
        return self.spec_for(self._t)

    def parity_bytes(self, t: int | None = None) -> int:
        """Parity footprint for capability t (defaults to current)."""
        return self.spec_for(self._t if t is None else t).parity_bytes

    # -- data path -----------------------------------------------------------

    def _encoder(self, t: int) -> BCHEncoder:
        if t not in self._encoders:
            self._encoders[t] = BCHEncoder(self.spec_for(t))
        return self._encoders[t]

    def _decoder(self, t: int) -> BCHDecoder:
        if t not in self._decoders:
            self._decoders[t] = BCHDecoder(self.spec_for(t))
        return self._decoders[t]

    def encode(self, message: bytes, t: int | None = None) -> bytes:
        """Systematic codeword (message || parity) at the active capability."""
        t = self._t if t is None else t
        return self._encoder(t).encode_codeword(message)

    def encode_batch(
        self, messages: Sequence[bytes], t: int | None = None
    ) -> list[bytes]:
        """Systematic codewords for a batch of messages (one capability).

        Routed through the encoder's fold-table kernel, the same one
        behind per-message :meth:`encode`.
        """
        t = self._t if t is None else t
        return self._encoder(t).encode_codeword_batch(messages)

    def _observe_decode(self, result: DecodeResult, n: int) -> None:
        self._words_decoded += 1
        self._bits_processed += n
        if result.success:
            self._bits_corrected += result.corrected_bits
            self._max_errors = max(self._max_errors, result.corrected_bits)
        else:
            self._words_failed += 1

    def decode(
        self, codeword: bytes, t: int | None = None, strict: bool = True
    ) -> DecodeResult:
        """Decode one codeword: a batch of one."""
        return self.decode_batch([codeword], t=t, strict=strict)[0]

    def decode_batch(
        self,
        codewords: Sequence[bytes],
        t: int | None = None,
        strict: bool = True,
    ) -> list[DecodeResult]:
        """Decode a batch of same-capability codewords.

        One vectorized syndrome pass covers the whole batch and clean
        pages early-exit before Berlekamp-Massey; telemetry is recorded
        per word for the reliability manager.
        """
        t = self._t if t is None else t
        results = self._decoder(t).decode_batch(codewords, strict=strict)
        n = self.spec_for(t).n
        for result in results:
            self._observe_decode(result, n)
        return results

    # -- telemetry -----------------------------------------------------------

    def observation(self) -> CodecObservation:
        """Aggregate decode feedback since construction."""
        return CodecObservation(
            words_decoded=self._words_decoded,
            words_failed=self._words_failed,
            bits_corrected=self._bits_corrected,
            bits_processed=self._bits_processed,
            max_errors_in_word=self._max_errors,
        )

    # -- latency convenience ---------------------------------------------------

    def encode_latency_s(self, t: int | None = None) -> float:
        """Hardware encode latency at capability t."""
        return self.latency_model.encode_latency_s(
            self.spec_for(self._t if t is None else t)
        )

    def decode_latency_s(
        self, t: int | None = None, with_errors: bool = True
    ) -> float:
        """Hardware decode latency at capability t."""
        return self.latency_model.decode_latency_s(
            self.spec_for(self._t if t is None else t), with_errors
        )

    def decode_interval_s(self, t: int | None = None) -> float:
        """Pipelined-decoder initiation interval at capability t."""
        return self.latency_model.decode_interval_s(
            self.spec_for(self._t if t is None else t)
        )

    def encode_interval_s(self, t: int | None = None) -> float:
        """Pipelined-encoder initiation interval at capability t."""
        return self.latency_model.encode_interval_s(
            self.spec_for(self._t if t is None else t)
        )
