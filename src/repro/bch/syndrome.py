"""Syndrome computation (first decoding stage of Fig. 2).

S_i = c(alpha^i) for i = 1..2t.  Two implementations coexist:

* **Byte-serial reference** (:meth:`SyndromeCalculator.syndromes`): as in
  the paper's hardware, each odd syndrome is produced by reducing the
  codeword modulo the corresponding minimal polynomial (a small LFSR) and
  evaluating the 16-bit remainder at alpha^i; even syndromes come for free
  over GF(2) since S_{2i} = S_i^2.  Reduction is table-driven
  byte-at-a-time per minimal polynomial.  It is kept as the test oracle.

* **Fold-table fast path** (:meth:`SyndromeCalculator.syndromes_batch` /
  :meth:`syndromes_vectorized`): the encoder's remainder kernel reduces
  every word's message bytes mod g in one batched pass; XOR-ing in the
  received parity bytes gives a remainder D congruent to the word mod g
  (Lin & Costello, *Error Control Coding*, ch. 6), so S_i = D(alpha^i).
  Clean words (D = 0) need no evaluation; the others evaluate D's
  8 * parity_bytes bits against a small power table.  Both tables are
  shared by every live calculator of the code and freed with the last.

Implementation note: the byte-serial reduction loop computes
``c(x) * x^d mod m_i(x)`` (d = deg m_i), so the evaluated remainder carries
an extra factor ``alpha^(i*d)`` which is cancelled by a precomputed
per-syndrome compensation constant.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.bch.encoder import BCHEncoder, fold_remainders
from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.minpoly import minimal_polynomial
from repro.gf.poly2 import poly2_deg, poly2_eval_in_field, poly2_mod


@lru_cache(maxsize=None)
def _reduction_table(minpoly: int) -> tuple[int, ...]:
    """256-entry table: (v(x) << deg) mod minpoly for byte-serial reduction."""
    deg = poly2_deg(minpoly)
    return tuple(poly2_mod(v << deg, minpoly) for v in range(256))


#: Parity-bit power tables of the codes some live calculator has used,
#: keyed by (field, 8 * parity_bytes, t); an entry goes when its last
#: user does.
_POWER_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _build_power_table(field: GF2m, n: int, t: int) -> np.ndarray:
    """Read-only (n, t) uint16 table over the bits j of an n-bit remainder:
    entry [j, row] = alpha^(i*(n-1-j)) for the column's odd syndrome
    index i = 2*row + 1.

    Column i+2 is derived from column i by adding 2*(n-1-j) to the
    exponents (one vector add plus conditional subtracts), avoiding a
    full 64-bit modulo over the whole table.  The position-major layout
    makes the per-word gather a contiguous row fetch.
    """
    order = np.int32(field.order)
    exp_u16 = field.exp.astype(np.uint16)
    pos_exp = ((n - 1 - np.arange(n, dtype=np.int64))
               % field.order).astype(np.int32)
    step = pos_exp + pos_exp
    np.subtract(step, order, out=step, where=step >= order)
    rows = np.empty((t, n), dtype=np.uint16)
    exps = pos_exp.copy()
    rows[0] = exp_u16[exps]
    for row in range(1, t):
        exps += step
        np.subtract(exps, order, out=exps, where=exps >= order)
        rows[row] = exp_u16[exps]
    table = np.ascontiguousarray(rows.T)
    table.flags.writeable = False
    return table


def reduce_codeword(data: bytes, minpoly: int) -> int:
    """Return ``data(x) * x^deg(minpoly) mod minpoly`` (byte-serial LFSR).

    The uniform ``x^deg`` factor keeps the byte-parallel path and the
    bit-serial fallback (for polynomials of degree < 8) consistent; callers
    compensate at evaluation time.
    """
    deg = poly2_deg(minpoly)
    if deg >= 8:
        table = _reduction_table(minpoly)
        mask = (1 << deg) - 1
        shift = deg - 8
        state = 0
        for byte in data:
            idx = ((state >> shift) ^ byte) & 0xFF
            state = ((state << 8) & mask) ^ table[idx]
        return state
    value = int.from_bytes(data, "big")
    return poly2_mod(value << deg, minpoly)


class SyndromeCalculator:
    """Computes the 2t syndromes of a received word for a given code."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.field: GF2m = spec.field()
        # Distinct odd-index minimal polynomials cover indices 1..2t.
        self._odd_minpolys: dict[int, int] = {}
        self._compensation: dict[int, int] = {}
        order = self.field.order
        for i in range(1, 2 * spec.t + 1, 2):
            minpoly = minimal_polynomial(self.field, i)
            self._odd_minpolys[i] = minpoly
            deg = poly2_deg(minpoly)
            self._compensation[i] = self.field.alpha_pow((-i * deg) % order)
        # Shared fast-path tables, fetched on first use.
        self._fold_table: np.ndarray | None = None
        self._power_table: np.ndarray | None = None

    def syndromes(self, codeword: bytes) -> list[int]:
        """Return [S_1, ..., S_2t]; all zero iff the word is a codeword.

        Codeword bytes are MSB-first: byte 0 bit 7 is the coefficient of
        x^(n-1).
        """
        spec = self.spec
        field = self.field
        out = [0] * (2 * spec.t)
        for i, minpoly in self._odd_minpolys.items():
            remainder = reduce_codeword(codeword, minpoly)
            if remainder:
                value = poly2_eval_in_field(remainder, field.alpha_pow(i), field)
                out[i - 1] = field.mul(value, self._compensation[i])
        # Even syndromes: S_{2j} = S_j^2 (binary-code conjugacy).
        for i in range(2, 2 * spec.t + 1, 2):
            half = out[i // 2 - 1]
            out[i - 1] = field.mul(half, half)
        return out

    # -- fold-table fast path -------------------------------------------------

    def _bit_power_table(self) -> np.ndarray:
        """This code's power table over the parity bits (see
        :func:`_build_power_table`), built on first use and shared with
        every calculator of the code.
        """
        if self._power_table is None:
            spec = self.spec
            key = (self.field, 8 * spec.parity_bytes, spec.t)
            table = _POWER_TABLES.get(key)
            if table is None:
                table = _build_power_table(*key)
                _POWER_TABLES[key] = table
            self._power_table = table
        return self._power_table

    def _odd_syndromes_of_bits(self, bits: np.ndarray) -> np.ndarray:
        """Odd syndromes [S_1, S_3, ...] of one unpacked parity-bit vector.

        The gathered (positions, t) block is XOR-folded in halves: each
        fold is one large contiguous vector op, so the whole reduction
        costs ~2 passes over the gathered data instead of a strided
        reduce.
        """
        gathered = self._bit_power_table()[np.flatnonzero(bits)]
        count = gathered.shape[0]
        while count > 1:
            half = count >> 1
            keep = count - half
            gathered[:half] ^= gathered[keep:count]
            count = keep
        return gathered[0].astype(np.int64)

    def _fill_even_syndromes(self, out: np.ndarray) -> None:
        """Complete even columns of ``out[..., 2t]`` one power of two at a
        time: S_(2^a * o) = S_(2^(a-1) * o)^2 for every odd o at once.
        """
        step = 2
        while step <= 2 * self.spec.t:
            targets = out[..., step - 1::2 * step]
            sources = out[..., step // 2 - 1::step]
            targets[...] = self.field.square_vec(
                sources[..., :targets.shape[-1]]
            )
            step *= 2

    def _syndromes(self, codewords: Sequence[bytes]) -> np.ndarray:
        """``(B, 2t)`` int64 syndromes of every received word.

        The fold remainder E of the message bytes XOR the parity bytes P
        is congruent to the word mod g, and g(alpha^i) = 0 for i <= 2t,
        so S_i = D(alpha^i) with D = E ^ P; rows with D = 0 are clean.
        """
        spec = self.spec
        message_bytes = spec.k // 8
        expected = message_bytes + spec.parity_bytes
        for codeword in codewords:
            if len(codeword) != expected:
                raise ValueError(
                    f"codeword must be {expected} bytes, got {len(codeword)}"
                )
        if self._fold_table is None:
            self._fold_table = BCHEncoder._batch_tables(spec)
        words = np.frombuffer(b"".join(codewords), dtype=np.uint8).reshape(
            len(codewords), expected
        )
        remainders = fold_remainders(
            self._fold_table, words[:, :message_bytes]
        )[:, :spec.parity_bytes] ^ words[:, message_bytes:]
        out = np.zeros((len(codewords), 2 * spec.t), dtype=np.int64)
        dirty = np.flatnonzero(remainders.any(axis=1))
        if dirty.size:
            bits = np.unpackbits(remainders[dirty], axis=1)
            for b, row in zip(dirty, bits):
                out[b, 0::2] = self._odd_syndromes_of_bits(row)
            self._fill_even_syndromes(out)
        return out

    def syndromes_vectorized(self, codeword: bytes) -> list[int]:
        """Fast-path equivalent of :meth:`syndromes` (same return value)."""
        return self._syndromes([codeword])[0].tolist()

    def syndromes_batch(self, codewords: Sequence[bytes]) -> np.ndarray:
        """Syndromes of a batch of received words.

        Returns an int64 array of shape ``(len(codewords), 2t)``; row b is
        identical to ``syndromes(codewords[b])``.  Every word must be
        ``k/8 + parity_bytes`` bytes long.
        """
        return self._syndromes(codewords)

    @staticmethod
    def all_zero(syndromes: list[int]) -> bool:
        """Error-free shortcut used by the hardware (Fig. 2 exit arc)."""
        return not any(syndromes)

    @staticmethod
    def all_zero_batch(syndromes: np.ndarray) -> np.ndarray:
        """Per-row error-free flags for a :meth:`syndromes_batch` result."""
        return ~syndromes.any(axis=1)

    def syndromes_of_error_positions(self, positions: list[int]) -> list[int]:
        """Syndromes of a pure error pattern (for tests / fault injection).

        ``positions`` are codeword bit indices counted from the start of the
        byte stream (0 = MSB of byte 0), matching the decoder's reporting.
        """
        spec = self.spec
        field = self.field
        n = spec.n_stored
        out = [0] * (2 * spec.t)
        for i in range(1, 2 * spec.t + 1):
            acc = 0
            for pos in positions:
                exponent = n - 1 - pos  # power of x at this bit
                acc ^= field.alpha_pow(i * exponent)
            out[i - 1] = acc
        return out
