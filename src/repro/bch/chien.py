"""Chien search — third decoding stage of Fig. 2.

Finds the roots of the error-locator polynomial by evaluating it at the
field elements corresponding to valid codeword positions.  For a shortened
code only n of the 2^m - 1 elements are candidates — the paper's hardware
keeps "the first element of GF(2^m) from which the Chien search must
initiate" in a small ROM per correction capability; here the candidate set
is derived from n directly.

The software implementation is numpy-vectorized over all candidate
positions (equivalent to an h = n fully-parallel evaluator).  Term i of
lambda at position j is alpha^(log c_i - i*j), so every term walks the
antilog table backwards with stride i.  A read-only uint8 table E holds
the low byte of alpha^(-k mod order) for k < order + t*n, and the search
runs in two passes: a screen XORs, per coefficient, the strided view
``E[k0 : k0 + i*n : i]`` (k0 = -log c_i mod order) into one byte per
position, with no index arithmetic and no gather (a zero value implies
a zero low byte, so no root is missed); then the few surviving
candidates (~n/256 plus the real roots) are evaluated exactly.  E is
shared by every live search over the same code (one per die) and freed
with the last.  The hardware latency model in :mod:`repro.bch.hardware`
accounts for the real h-way datapath.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


#: Screen tables of the codes some live search uses, keyed by (field,
#: length); an entry goes when its last user does.
_SCREEN_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _build_screen_table(field: GF2m, length: int) -> np.ndarray:
    """Read-only uint8 table whose entry k is the low byte of
    alpha^(-k mod order), for k < ``length``: one period, repeated."""
    order = field.order
    period = (field.exp[-np.arange(order) % order] & 0xFF).astype(np.uint8)
    table = np.resize(period, length)
    table.flags.writeable = False
    return table


class ChienSearch:
    """Root search over the valid positions of a (shortened) BCH code."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.field: GF2m = spec.field()
        self._table: np.ndarray | None = None

    def _screen_table(self) -> np.ndarray:
        """This code's screen table (see :func:`_build_screen_table`),
        order + t * n_stored entries: one strided view for every
        coefficient of a degree-t locator.  Built on first use and shared
        with every search of the code.
        """
        if self._table is None:
            spec = self.spec
            key = (self.field, self.field.order + spec.t * spec.n_stored)
            table = _SCREEN_TABLES.get(key)
            if table is None:
                table = _SCREEN_TABLES[key] = _build_screen_table(*key)
            self._table = table
        return self._table

    def error_positions(self, locator: GFPoly) -> list[int]:
        """Bit positions (0 = MSB of byte 0) whose locator inverse is a root.

        Returns positions sorted ascending; the caller cross-checks the
        count against the locator degree to detect decoding failure.
        Any degree is accepted: a coefficient beyond degree t, whose view
        would overrun the table, is screened in runs of positions that
        each fit.
        """
        if locator.field != self.field:
            raise ValueError("locator polynomial is over a different field")
        if locator.degree <= 0:
            return []
        order = self.field.order
        n = self.spec.n_stored
        table = self._screen_table()
        # Position j (power of x in the stream polynomial) has locator
        # X = alpha^j; lambda's roots are X^{-1} = alpha^{-j}, and term i
        # of lambda(alpha^{-j}) is alpha^(log c_i - i*j).
        c0, *higher = locator.coeffs
        log = self.field.log_list
        terms = [(i, log[c]) for i, c in enumerate(higher, 1) if c]
        # Pass 1: XOR only the low byte of every term over all positions.
        acc = np.full(n, c0 & 0xFF, dtype=np.uint8)
        for i, log_c in terms:
            run = (table.size - order) // i + 1
            for j in range(0, n, run):
                k0 = (i * j - log_c) % order
                count = min(run, n - j)
                acc[j:j + count] ^= table[k0:k0 + i * count:i]
        candidates = np.flatnonzero(acc == 0)
        if candidates.size == 0:
            return []
        # Pass 2: exact evaluation at the surviving candidates only.
        degrees, logs = np.array(terms, dtype=np.int64).T
        exponents = (logs[:, None] - degrees[:, None] * candidates) % order
        values = np.bitwise_xor.reduce(self.field.exp[exponents], axis=0)
        roots = candidates[values == c0]  # j = power of x
        return (n - 1 - roots[::-1]).tolist()

    def root_count_in_field(self, locator: GFPoly) -> int:
        """Number of roots over the *whole* field (diagnostic for failures)."""
        if locator.degree <= 0:
            return 0
        all_logs = np.arange(self.field.order, dtype=np.int64)
        values = self.field.eval_poly_vec(
            np.asarray(locator.coeffs, dtype=np.int64), all_logs
        )
        return int(np.count_nonzero(values == 0))
