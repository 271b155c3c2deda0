"""Full BCH decoder pipeline: syndrome -> Berlekamp-Massey -> Chien.

Mirrors Fig. 2 of the paper, including the error-free early exit after the
syndrome stage.  Decoding failures (more than t errors) raise
:class:`repro.errors.DecodingFailure` or, in permissive mode, are reported
in the :class:`DecodeResult`.  A word fails when its locator's degree is
outside [1, t], which needs no Chien search, or when the search finds a
root count other than that degree.

One datapath: :meth:`BCHDecoder.decode_batch` decodes a whole batch of
pages with one batched syndrome computation on the encoder's fold-table
remainder kernel — the all-zero-syndrome early exit is evaluated
vectorized across the batch, so clean pages never reach
Berlekamp-Massey — and :meth:`BCHDecoder.decode` is a batch of one.
The decoder shares the encoder's table for its code but never builds an
encoder.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.bch.berlekamp import berlekamp_massey
from repro.bch.chien import ChienSearch
from repro.bch.params import BCHCodeSpec
from repro.bch.syndrome import SyndromeCalculator
from repro.errors import DecodingFailure


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one page decode.

    Attributes
    ----------
    data: corrected message bytes (k/8 bytes).
    corrected_bits: number of bit errors corrected (0 for a clean word).
    error_positions: corrected codeword bit positions (0 = MSB of byte 0).
    success: False when the word was uncorrectable (permissive mode only).
    early_exit: True when the all-zero-syndrome shortcut fired.
    """

    data: bytes
    corrected_bits: int
    error_positions: tuple[int, ...] = ()
    success: bool = True
    early_exit: bool = False


class BCHDecoder:
    """Decoder for one fixed :class:`BCHCodeSpec`."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.syndrome_calculator = SyndromeCalculator(spec)
        self.chien = ChienSearch(spec)

    def _check_length(self, codeword: bytes) -> None:
        expected = self.spec.k // 8 + self.spec.parity_bytes
        if len(codeword) != expected:
            raise ValueError(f"codeword must be {expected} bytes, got {len(codeword)}")

    def decode(self, codeword: bytes, strict: bool = True) -> DecodeResult:
        """Correct up to t bit errors in ``codeword`` (message || parity).

        Parameters
        ----------
        codeword:
            k/8 message bytes followed by parity bytes.
        strict:
            If True (default) raise :class:`DecodingFailure` on uncorrectable
            words; otherwise return a :class:`DecodeResult` with
            ``success=False`` carrying the uncorrected message bytes.

        A batch of one through :meth:`decode_batch`.
        """
        return self.decode_batch([codeword], strict=strict)[0]

    def decode_batch(
        self, codewords: Sequence[bytes], strict: bool = True
    ) -> list[DecodeResult]:
        """Decode a batch of codewords (same contract as :meth:`decode`).

        All syndromes are computed in one vectorized pass; the error-free
        early exit is applied across the whole batch at once and only the
        errored words proceed to Berlekamp-Massey + Chien.
        """
        for codeword in codewords:
            self._check_length(codeword)
        if not codewords:
            return []
        syndromes = self.syndrome_calculator.syndromes_batch(codewords)
        clean = SyndromeCalculator.all_zero_batch(syndromes)
        message_bytes = self.spec.k // 8
        results: list[DecodeResult] = []
        for b, codeword in enumerate(codewords):
            if clean[b]:
                results.append(
                    DecodeResult(
                        data=bytes(codeword[:message_bytes]),
                        corrected_bits=0,
                        early_exit=True,
                    )
                )
            else:
                results.append(
                    self._correct(codeword, syndromes[b].tolist(), strict)
                )
        return results

    def _correct(
        self, codeword: bytes, syndromes: list[int], strict: bool
    ) -> DecodeResult:
        """Shared BM + Chien + bit-flip stage for a nonzero syndrome word."""
        spec = self.spec
        message_bytes = spec.k // 8
        bm = berlekamp_massey(spec.field(), syndromes)
        # A locator of degree outside [1, t] fails whatever its roots are.
        positions = (
            self.chien.error_positions(bm.error_locator)
            if 1 <= bm.degree <= spec.t else None
        )

        if positions is None or len(positions) != bm.degree:
            roots = "" if positions is None else (
                f", {len(positions)} roots in range"
            )
            failure = DecodingFailure(
                f"uncorrectable word: locator degree {bm.degree}"
                f"{roots} (t={spec.t})",
                detected=bm.degree,
            )
            if strict:
                raise failure
            return DecodeResult(
                data=bytes(codeword[:message_bytes]),
                corrected_bits=0,
                success=False,
            )

        corrected = bytearray(codeword)
        for pos in positions:
            corrected[pos // 8] ^= 0x80 >> (pos % 8)

        return DecodeResult(
            data=bytes(corrected[:message_bytes]),
            corrected_bits=len(positions),
            error_positions=tuple(positions),
        )
