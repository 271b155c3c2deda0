"""Chien search — third decoding stage of Fig. 2.

Finds the roots of the error-locator polynomial by evaluating it at the
field elements corresponding to valid codeword positions.  For a shortened
code only n of the 2^m - 1 elements are candidates — the paper's hardware
keeps "the first element of GF(2^m) from which the Chien search must
initiate" in a small ROM per correction capability; here the candidate set
is derived from n directly.

The software implementation is numpy-vectorized over all candidate
positions (equivalent to an h = n fully-parallel evaluator) and runs in
two passes: a uint8 screen XOR-accumulates only the *low byte* of every
``coeff * alpha^(-j*i)`` term (half the gather traffic of a full
evaluation; a zero value implies a zero low byte, so no root is missed),
then the few surviving candidates (~n/256 plus the real roots) are
evaluated exactly.  Per-degree position exponents ``(i * -j) mod order``
come from a lazily-grown intp table shared by every live search over the
same code (one per die), so the screen loop is one add, one gather and
one XOR per locator coefficient.  The hardware latency model in
:mod:`repro.bch.hardware` accounts for the real h-way datapath.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


class _ExponentRows:
    """Rows 0..d of ``(i * eval_log_j) mod order`` for one code, grown to
    the highest locator degree any search over that code has seen."""

    __slots__ = ("rows", "__weakref__")

    def __init__(self):
        self.rows: np.ndarray | None = None


#: The exponent rows of every code some live search uses, keyed by
#: (field, n_stored); an entry goes when its last user does.
_EXPONENT_ROWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class ChienSearch:
    """Root search over the valid positions of a (shortened) BCH code."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.field: GF2m = spec.field()
        n = spec.n_stored  # byte-aligned stream (codeword * x^pad)
        order = self.field.order
        # Position j (power of x in the stream polynomial) has locator
        # X = alpha^j; lambda's roots are X^{-1} = alpha^{-j}.  We evaluate
        # lambda at alpha^e with e = (-j) mod order for j = 0..n-1.
        exponents = (order - np.arange(n, dtype=np.int64)) % order
        self._eval_logs = exponents
        key = (self.field, n)
        shared = _EXPONENT_ROWS.get(key)
        if shared is None:
            shared = _EXPONENT_ROWS[key] = _ExponentRows()
        self._exponents = shared
        # Lazy per-instance fast-path table and scratch buffers.
        self._exp2_lo: np.ndarray | None = None
        self._acc8: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def _degree_exponents(self, degree: int) -> np.ndarray:
        """Rows 0..degree (at least) of ``(i * eval_log_j) mod order``.

        Stored as intp: numpy re-casts any other index dtype to intp on
        every fancy-indexing gather, which would cost a full extra pass
        per locator coefficient.  Growing keeps the rows already built.
        """
        rows = self._exponents.rows
        if rows is None or rows.shape[0] <= degree:
            order = np.intp(self.field.order)
            pl = (self._eval_logs % self.field.order).astype(np.intp)
            grown = np.zeros((max(degree + 1, 2), pl.size), dtype=np.intp)
            start = 1
            if rows is not None:
                start = rows.shape[0]
                grown[:start] = rows
            for i in range(start, grown.shape[0]):
                np.add(grown[i - 1], pl, out=grown[i])
                np.subtract(
                    grown[i], order, out=grown[i], where=grown[i] >= order
                )
            grown.flags.writeable = False
            self._exponents.rows = rows = grown
        return rows

    def error_positions(self, locator: GFPoly) -> list[int]:
        """Bit positions (0 = MSB of byte 0) whose locator inverse is a root.

        Returns positions sorted ascending; the caller cross-checks the
        count against the locator degree to detect decoding failure.
        """
        if locator.field != self.field:
            raise ValueError("locator polynomial is over a different field")
        if locator.degree <= 0:
            return []
        coeffs = np.asarray(locator.coeffs, dtype=np.int64)
        nz = np.flatnonzero(coeffs)
        coeff_logs = self.field.log[coeffs[nz]].astype(np.intp)
        ipl = self._degree_exponents(int(nz[-1]))
        if self._exp2_lo is None:
            self._exp2_lo = (self.field.exp2_u16 & 0xFF).astype(np.uint8)
        n = self.spec.n_stored
        if self._acc8 is None or self._acc8.size != n:
            self._acc8 = np.empty(n, dtype=np.uint8)
            self._scratch = np.empty(n, dtype=np.intp)
        # Pass 1: XOR only the low byte of every term over all positions.
        acc8, scratch = self._acc8, self._scratch
        acc8[:] = 0
        exp2_lo = self._exp2_lo
        for row, log_c in zip(nz, coeff_logs):
            np.add(ipl[row], log_c, out=scratch)
            acc8 ^= exp2_lo[scratch]
        candidates = np.flatnonzero(acc8 == 0)
        if candidates.size == 0:
            return []
        # Pass 2: exact evaluation at the surviving candidates only.
        exp2 = self.field.exp2_u16
        values = np.zeros(candidates.size, dtype=np.uint16)
        for row, log_c in zip(nz, coeff_logs):
            values ^= exp2[ipl[row, candidates] + log_c]
        exponents_j = candidates[values == 0]  # j = power of x
        positions = sorted(int(n - 1 - j) for j in exponents_j)
        return positions

    def root_count_in_field(self, locator: GFPoly) -> int:
        """Number of roots over the *whole* field (diagnostic for failures)."""
        if locator.degree <= 0:
            return 0
        all_logs = np.arange(self.field.order, dtype=np.int64)
        values = self.field.eval_poly_vec(
            np.asarray(locator.coeffs, dtype=np.int64), all_logs
        )
        return int(np.count_nonzero(values == 0))
