"""Systematic BCH encoder.

Computes the r parity bits as ``m(x) * x^r mod g(x)`` — exactly what the
paper's r-bit LFSR does.  Two datapaths share the same math:

* **Scalar** (:meth:`BCHEncoder.parity_int` / :meth:`encode`): a
  byte-at-a-time precomputed reduction table over a big-int LFSR state,
  kept as the cross-checked reference.
* **Batched word-sliced LFSR** (:meth:`BCHEncoder.encode_batch`): the
  whole batch of messages advances in lockstep through a word-sliced
  LFSR.  The r-bit state of every message lives in one
  ``(B, ceil(r/64))`` uint64 numpy array; each step absorbs a slice of
  S message bytes at once by folding the state's top S/8 words with the
  next message words and XOR-ing S chunked 256-entry reduction tables
  ``T_p[v] = v(x) * x^(r + 8*(S-1-p)) mod g``.  Codes with r >= 128
  parity bits slice by 16 bytes (two words per step — half the Python
  loop iterations); smaller codes with r >= 64 slice by 8.  Per
  message-byte work shrinks from one Python big-int update to 1/S-th of
  a handful of vectorized ops shared by the batch.

Both tables are built once per code and process, keyed by (generator,
r[, S]), and shared read-only by every encoder of that code (one per
die): by linearity over GF(2) they need only the 8*S reduced powers
``x^(r + e) mod g``, not one long division per entry.

Bit convention: the MSB of the first message byte is the highest-degree
coefficient; the codeword is ``message || parity``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.errors import CodeDesignError

#: Message bytes absorbed per batched LFSR step (slicing-by-N); wide
#: slices need at least two full 64-bit state words (r >= 128).
_SLICE_BYTES = 8
_WIDE_SLICE_BYTES = 16


def _reduced_powers(generator: int, r: int, count: int) -> list[int]:
    """``x^(r + e) mod g`` for ``e = 0 .. count-1`` (shift and reduce)."""
    powers = [generator ^ (1 << r)]
    for _ in range(count - 1):
        value = powers[-1] << 1
        if value >> r:
            value ^= generator
        powers.append(value)
    return powers


@lru_cache(maxsize=None)
def _scalar_table(generator: int, r: int) -> tuple[int, ...]:
    """``table[v] = v(x) * x^r mod g`` for every byte value v.

    By linearity entry v is the XOR of ``x^(r + j) mod g`` over the set
    bits j of v, so eight reduced powers give all 256 entries.  A tuple,
    because every encoder of the code shares it.
    """
    table = [0]
    for power in _reduced_powers(generator, r, 8):
        table += [entry ^ power for entry in table]
    return tuple(table)


@lru_cache(maxsize=None)
def _slice_tables(generator: int, r: int, slice_bytes: int) -> np.ndarray:
    """Chunked reduction tables: ``T_p[v] = v * x^(r + 8*(S-1-p)) mod g``.

    Returns a read-only ``(S, 256, ceil(r/64))`` uint64 array shared by
    every encoder of the code.  Rows are left-aligned into ``ceil(r/64)``
    words, word 0 holding the polynomial's top 64 bits as a native
    integer (the quantity folded with incoming message words).  Built by
    linearity from the 8*S reduced powers ``x^(r + e) mod g``: bit j of
    v contributes the power with ``e = 8*(S-1-p) + j``.
    """
    state_words = (r + 63) // 64
    align = 64 * state_words - r
    rows = b"".join(
        (power << align).to_bytes(8 * state_words, "big")
        for power in _reduced_powers(generator, r, 8 * slice_bytes)
    )
    # powers[q, j] holds e = 8*q + j; reversing q puts p = S-1-q first.
    powers = (
        np.frombuffer(rows, dtype=np.uint8)
        .view(np.dtype(">u8"))
        .astype(np.uint64)
        .reshape(slice_bytes, 8, state_words)[::-1]
    )
    tables = np.zeros((slice_bytes, 256, state_words), dtype=np.uint64)
    for j in range(8):
        tables[:, 1 << j:2 << j] = tables[:, :1 << j] ^ powers[:, j, None]
    tables.flags.writeable = False
    return tables


class BCHEncoder:
    """Table-driven systematic encoder for one :class:`BCHCodeSpec`."""

    def __init__(self, spec: BCHCodeSpec):
        if spec.r < 8:
            raise CodeDesignError(
                "byte-parallel encoder requires r >= 8 parity bits"
            )
        self.spec = spec
        self._mask = (1 << spec.r) - 1
        self._shift = spec.r - 8
        # Shared by every encoder of this code (built once per process).
        self._table = _scalar_table(spec.generator, spec.r)

    def parity_int(self, message: bytes) -> int:
        """Parity bits as an integer polynomial (bit i = coeff of x^i)."""
        if len(message) * 8 != self.spec.k:
            raise ValueError(
                f"message must be exactly {self.spec.k // 8} bytes, "
                f"got {len(message)}"
            )
        state = 0
        table = self._table
        shift = self._shift
        mask = self._mask
        for byte in message:
            idx = ((state >> shift) ^ byte) & 0xFF
            state = ((state << 8) & mask) ^ table[idx]
        return state

    def encode(self, message: bytes) -> bytes:
        """Parity bytes for ``message`` (big-endian bit order, MSB first).

        The r parity bits are stored left-aligned: when r is not a multiple
        of 8 the stored stream is ``codeword(x) * x^pad`` with ``pad`` zero
        bits at the tail, keeping the byte stream a valid polynomial (see
        :attr:`BCHCodeSpec.pad_bits`).
        """
        parity = self.parity_int(message) << self.spec.pad_bits
        return parity.to_bytes(self.spec.parity_bytes, "big")

    def encode_codeword(self, message: bytes) -> bytes:
        """Full systematic codeword ``message || parity``."""
        return bytes(message) + self.encode(message)

    def is_codeword(self, codeword: bytes) -> bool:
        """Check divisibility by the generator (true for clean codewords)."""
        expected = self.spec.k // 8 + self.spec.parity_bytes
        if len(codeword) != expected:
            raise ValueError(f"codeword must be {expected} bytes, got {len(codeword)}")
        message = codeword[: self.spec.k // 8]
        parity = int.from_bytes(codeword[self.spec.k // 8:], "big")
        return (self.parity_int(message) << self.spec.pad_bits) == parity

    # -- batched slicing-by-8 datapath ----------------------------------------

    @property
    def slice_bytes(self) -> int:
        """Message bytes absorbed per batched LFSR step for this code.

        Codes with r >= 128 (at least two 64-bit state words) and a
        message splitting into 128-bit chunks run the wide 16-byte slice;
        otherwise the 8-byte slice applies.
        """
        if (
            self.spec.r >= 8 * _WIDE_SLICE_BYTES
            and self.spec.k % (8 * _WIDE_SLICE_BYTES) == 0
        ):
            return _WIDE_SLICE_BYTES
        return _SLICE_BYTES

    @property
    def supports_batch_kernel(self) -> bool:
        """Whether the word-sliced kernel applies to this code's shape.

        The top-word fold needs at least one full state word (r >= 64) and
        the message must split into whole 64-bit chunks; smaller codes fall
        back to the scalar path inside :meth:`encode_batch`.
        """
        return self.spec.r >= 64 and self.spec.k % 64 == 0

    def _batch_tables(self, slice_bytes: int) -> np.ndarray:
        """This code's slicing tables: row ``[p]`` is ``T_p`` (shared and
        read-only, see :func:`_slice_tables`)."""
        return _slice_tables(self.spec.generator, self.spec.r, slice_bytes)

    def _parity_batch_kernel(self, messages: Sequence[bytes]) -> list[bytes]:
        """Lockstep LFSR over the whole batch; returns stored parity bytes."""
        spec = self.spec
        batch = len(messages)
        slice_bytes = self.slice_bytes
        slice_words = slice_bytes // 8
        tables = self._batch_tables(slice_bytes)
        state_words = (spec.r + 63) // 64
        raw = np.frombuffer(b"".join(messages), dtype=np.uint8)
        chunks = (
            raw.reshape(batch, spec.k // 8)
            .view(np.dtype(">u8"))
            .astype(np.uint64)
        )
        state = np.zeros((batch, state_words), dtype=np.uint64)
        u = np.empty((batch, slice_words), dtype=np.uint64)
        byte_mask = np.uint64(0xFF)
        for i in range(0, chunks.shape[1], slice_words):
            # Fold the state's top words with the next S message bytes...
            np.bitwise_xor(
                state[:, :slice_words], chunks[:, i:i + slice_words], out=u
            )
            # ...shift the state left by the slice (x^(8*S))...
            state[:, :-slice_words] = state[:, slice_words:]
            state[:, -slice_words:] = 0
            # ...and reduce the folded words byte-by-byte through the
            # tables (byte p of the slice lives in word p//8 of u).
            for p in range(slice_bytes):
                idx = (u[:, p // 8] >> np.uint64(8 * (7 - p % 8))) & byte_mask
                state ^= tables[p][idx.astype(np.intp)]
        # Left-aligned state words == parity << pad_bits within the first
        # parity_bytes of the big-endian byte stream.
        stream = state.astype(np.dtype(">u8")).view(np.uint8)
        pb = spec.parity_bytes
        return [stream[b, :pb].tobytes() for b in range(batch)]

    def encode_batch(self, messages: Sequence[bytes]) -> list[bytes]:
        """Stored parity bytes for every message (batch analogue of
        :meth:`encode`; bit-exact against the scalar path).
        """
        expected = self.spec.k // 8
        for message in messages:
            if len(message) != expected:
                raise ValueError(
                    f"message must be exactly {expected} bytes, "
                    f"got {len(message)}"
                )
        if not self.supports_batch_kernel or len(messages) < 2:
            return [self.encode(m) for m in messages]
        return self._parity_batch_kernel(messages)

    def encode_codeword_batch(self, messages: Sequence[bytes]) -> list[bytes]:
        """Full systematic codewords for every message."""
        parities = self.encode_batch(messages)
        return [bytes(m) + p for m, p in zip(messages, parities)]
