"""Systematic BCH encoder.

Computes the r parity bits as ``m(x) * x^r mod g(x)`` — exactly what the
paper's r-bit LFSR does — with one fold-table remainder kernel,
:func:`fold_remainders`, behind every call, single page or batch.

The kernel is table-driven CRC slicing (Kounavis & Berry, ISCC 2005)
widened until one step absorbs :data:`FOLD_BYTES` = S = 1024 bytes of
every message: the left-aligned r-bit state is XORed into the first
bytes of the next block, and the new state is the XOR of the 2S table
entries that one ``np.take`` gathers for the block's 2S nibbles.  Entry
``16q + v`` is the W = ceil(r/64) words of nibble q's remainder at value
v (:func:`_build_fold_table`).  A message that is not a whole number of
blocks starts with a short block, because leading zero bytes do not
change m(x).  The state must fit in one block, so r <= 8S.  The same
kernel gives the decoder its syndromes (:mod:`repro.bch.syndrome`).

The table's layout follows the code's width W, with no option:

* word-major ``(W, 2S * 16)`` below :data:`NIBBLE_MAJOR_WORDS` words:
  the gather reads each of the W rows (256 KiB each) for every nibble
  and XOR-reduces along the contiguous last axis.  For narrow codes
  (t = 6 over GF(2^16) is W = 2) it is the faster layout at one page
  and at 16 pages per call alike;
* nibble-major ``(2S * 16, W)`` from :data:`NIBBLE_MAJOR_WORDS` words:
  each nibble reads one contiguous W-word entry, gathered in
  (nibble, page, word) order and XOR-folded in contiguous halves.  On a
  word-major table each nibble of a one-page fold of the t = 65 code
  (W = 17) reads 17 separate cache lines; this layout folds the page in
  about half the time.

``benchmarks/bench_ecc_throughput.py`` times the kernel on both sides
of the threshold.

The table takes 256 KiB per 64 parity bits in either layout.  Every
live encoder and decoder of a code (one per die) shares it read-only,
and it is freed with the last of them.

Bit convention: the MSB of the first message byte is the highest-degree
coefficient; the codeword is ``message || parity``.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.errors import CodeDesignError

#: Message bytes absorbed per fold step (S).
FOLD_BYTES = 1024

#: Parity words (W) from which a code's fold table is nibble-major.
NIBBLE_MAJOR_WORDS = 8

#: Table entry of nibble q of a block is ``16 * q + value``.
_NIBBLE_ENTRIES = 16 * np.arange(2 * FOLD_BYTES, dtype=np.intp)

#: Fold tables of the codes some live encoder or decoder has used, keyed
#: by (generator, r); an entry goes when its last user does.
_FOLD_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _reduced_powers(generator: int, r: int, count: int) -> list[int]:
    """``x^(r + e) mod g`` for ``e = 0 .. count-1`` (shift and reduce)."""
    powers = [generator ^ (1 << r)]
    for _ in range(count - 1):
        value = powers[-1] << 1
        if value >> r:
            value ^= generator
        powers.append(value)
    return powers


def _build_fold_table(generator: int, r: int) -> np.ndarray:
    """Read-only uint64 fold table of one code, laid out by its width.

    Entry ``16q + v`` is ``v(x) * x^(r + 4(2S-1-q)) mod g`` left-aligned
    into W words, word 0 holding the top 64 bits.  By linearity bit j of
    v contributes the reduced power with ``e = 4(2S-1-q) + j``.  The
    table is ``(2S * 16, W)`` (nibble-major) when W is at least
    :data:`NIBBLE_MAJOR_WORDS`, else ``(W, 2S * 16)`` (word-major).
    """
    words = (r + 63) // 64
    align = 64 * words - r
    nibbles = 2 * FOLD_BYTES
    rows = b"".join(
        (power << align).to_bytes(8 * words, "big")
        for power in _reduced_powers(generator, r, 4 * nibbles)
    )
    # powers[p, j, w] is word w of e = 4p + j; reversing p puts
    # q = 2S-1-p first.
    powers = (
        np.frombuffer(rows, dtype=">u8")
        .reshape(nibbles, 4, words)[::-1]
        .astype(np.uint64)
    )
    table = np.zeros((nibbles, 16, words), dtype=np.uint64)
    for j in range(4):
        table[:, 1 << j:2 << j] = table[:, :1 << j] ^ powers[:, j, None]
    table = table.reshape(16 * nibbles, words)
    if words < NIBBLE_MAJOR_WORDS:
        table = np.ascontiguousarray(table.T)
    table.flags.writeable = False
    return table


def fold_remainders(table: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Left-aligned ``d(x) * x^r mod g`` of every row d of ``data``.

    ``data`` is a ``(B, L)`` uint8 array of big-endian polynomials and
    ``table`` the code's fold table, in either layout.  Returns
    ``(B, 8W)`` uint8: row b holds the remainder of row b shifted to the
    top of W big-endian words, so its first ``parity_bytes`` bytes are
    the stored parity ``(d(x) * x^r mod g) << pad_bits``.
    """
    batch, length = data.shape
    words = table.size // (32 * FOLD_BYTES)  # 2S * 16 entries of W words
    state = np.zeros((batch, 8 * words), dtype=np.uint8)
    start = 0
    for end in range(length % FOLD_BYTES or FOLD_BYTES, length + 1,
                     FOLD_BYTES):
        block = data[:, start:end]
        if start:
            # R(x) * x^(8S - r): the state is the top of the new block.
            block = block.copy()
            block[:, :8 * words] ^= state
        count = 2 * block.shape[1]
        nibbles = np.empty((batch, count), dtype=np.intp)
        np.right_shift(block, 4, out=nibbles[:, 0::2], casting="unsafe")
        np.bitwise_and(block, 15, out=nibbles[:, 1::2], casting="unsafe")
        nibbles += _NIBBLE_ENTRIES[-count:]
        if words < NIBBLE_MAJOR_WORDS:
            folded = np.bitwise_xor.reduce(
                np.take(table, nibbles, axis=1), axis=2
            ).T
        else:
            # (nibble, page, word) order: each fold XORs the back half of
            # the nibbles into the front half, both contiguous.  The last
            # fold makes a new array, so the gathered block is freed
            # before the next block's gather reuses its memory.
            folded = np.take(table, nibbles.T, axis=0)
            while count > 2:
                half = count >> 1
                count -= half
                folded[:half] ^= folded[count:count + half]
            folded = folded[0] ^ folded[1]
        # Free the indices before the next block allocates its own: a
        # batch's index buffer held across those allocations can make the
        # allocator return heap pages that every later block faults in again.
        del nibbles
        state = np.ascontiguousarray(folded, dtype=">u8").view(np.uint8)
        start = end
    return state


class BCHEncoder:
    """Fold-table systematic encoder for one :class:`BCHCodeSpec`."""

    def __init__(self, spec: BCHCodeSpec):
        if spec.r > 8 * FOLD_BYTES:
            raise CodeDesignError(
                f"encoder folds at most {8 * FOLD_BYTES} parity bits per "
                f"step, got r={spec.r}"
            )
        self.spec = spec
        # This code's fold table, fetched on first use.
        self._table: np.ndarray | None = None

    @staticmethod
    def _batch_tables(spec: BCHCodeSpec) -> np.ndarray:
        """The fold table of ``spec``'s code (see :func:`_build_fold_table`),
        shared by every live encoder and decoder of the code.

        Call it through the class: the end-to-end trace replaces it with
        a plain function.
        """
        key = (spec.generator, spec.r)
        table = _FOLD_TABLES.get(key)
        if table is None:
            table = _build_fold_table(spec.generator, spec.r)
            _FOLD_TABLES[key] = table
        return table

    def _stored_parity(self, messages: Sequence[bytes]) -> np.ndarray:
        """``(B, parity_bytes)`` uint8 stored parity of every message."""
        spec = self.spec
        expected = spec.k // 8
        for message in messages:
            if len(message) != expected:
                raise ValueError(
                    f"message must be exactly {expected} bytes, "
                    f"got {len(message)}"
                )
        if self._table is None:
            self._table = BCHEncoder._batch_tables(spec)
        data = np.frombuffer(b"".join(messages), dtype=np.uint8)
        remainders = fold_remainders(
            self._table, data.reshape(len(messages), expected)
        )
        return remainders[:, :spec.parity_bytes]

    def parity_int(self, message: bytes) -> int:
        """Parity bits as an integer polynomial (bit i = coeff of x^i)."""
        return int.from_bytes(self.encode(message), "big") >> self.spec.pad_bits

    def encode(self, message: bytes) -> bytes:
        """Parity bytes for ``message`` (big-endian bit order, MSB first).

        The r parity bits are stored left-aligned: when r is not a multiple
        of 8 the stored stream is ``codeword(x) * x^pad`` with ``pad`` zero
        bits at the tail, keeping the byte stream a valid polynomial (see
        :attr:`BCHCodeSpec.pad_bits`).
        """
        return self._stored_parity([message])[0].tobytes()

    def encode_codeword(self, message: bytes) -> bytes:
        """Full systematic codeword ``message || parity``."""
        return bytes(message) + self.encode(message)

    def is_codeword(self, codeword: bytes) -> bool:
        """Check divisibility by the generator (true for clean codewords)."""
        message_bytes = self.spec.k // 8
        expected = message_bytes + self.spec.parity_bytes
        if len(codeword) != expected:
            raise ValueError(f"codeword must be {expected} bytes, got {len(codeword)}")
        return self.encode(codeword[:message_bytes]) == bytes(
            codeword[message_bytes:]
        )

    def encode_batch(self, messages: Sequence[bytes]) -> list[bytes]:
        """Stored parity bytes for every message (batch analogue of
        :meth:`encode`, through the same kernel).
        """
        return [row.tobytes() for row in self._stored_parity(messages)]

    def encode_codeword_batch(self, messages: Sequence[bytes]) -> list[bytes]:
        """Full systematic codewords for every message."""
        parities = self.encode_batch(messages)
        return [bytes(m) + p for m, p in zip(messages, parities)]
