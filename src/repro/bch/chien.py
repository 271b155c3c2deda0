"""Chien search — third decoding stage of Fig. 2.

Finds the roots of the error-locator polynomial by evaluating it at the
field elements corresponding to valid codeword positions.  For a shortened
code only n of the 2^m - 1 elements are candidates — the paper's hardware
keeps "the first element of GF(2^m) from which the Chien search must
initiate" in a small ROM per correction capability; here the candidate set
is derived from n directly.

The software implementation is numpy-vectorized over all candidate
positions (equivalent to an h = n fully-parallel evaluator).  Term i of
lambda at position j is alpha^-(k0 + i*j) with k0 = -log c_i mod N,
N = 2^m - 1, so every term walks the antilog table backwards with stride
i.  With d = gcd(i, N) and P = N/d that walk stays in the residue class
k0 mod d and visits its P exponents in a fixed order, so the field keeps
one read-only uint8 row per degree i, d x P low bytes:
``row_i[c, s]`` is the low byte of alpha^-(c + d*((i/d)*s mod P)).  Term
i at position j is ``row_i[k0 mod d, (s0 + j) mod P]`` with
s0 = (k0 div d) * (i/d)^-1 mod P: one contiguous slice per coefficient,
split only where it wraps at P.  The search runs in two passes: a screen
XORs those slices into one byte per position, with no index arithmetic
and no gather (a zero value implies a zero low byte, so no root is
missed); then the few surviving candidates (~n/256 plus the real roots)
are evaluated exactly.  The rows are built on first use, up to the
highest degree searched, shared by every live search over the field
whatever its code (one per die and capability), and freed with the
last.  The hardware latency model in :mod:`repro.bch.hardware` accounts
for the real h-way datapath.
"""

from __future__ import annotations

import weakref
from math import gcd

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


class _ScreenRows(list):
    """Screen rows of one field, indexed by locator degree.

    Entry i >= 1 is ``(row, d, P, inverse)``: the read-only d x P uint8
    row of degree i (see the module docstring) and (i/d)^-1 mod P; entry
    0 is unused.  ``base`` holds the low bytes of alpha^-k for k < N,
    from which every row is gathered.
    """

    __slots__ = ("base", "__weakref__")

    def __init__(self, field: GF2m):
        super().__init__([None])
        order = field.order
        low_bytes = field.exp[-np.arange(order) % order] & 0xFF
        self.base = low_bytes.astype(np.uint8)

    def extend_to(self, degree: int) -> None:
        """Append the rows of every degree up to ``degree``."""
        order = self.base.size
        for i in range(len(self), degree + 1):
            d = gcd(i, order)
            period = order // d
            step = i // d
            columns = d * (step * np.arange(period) % period)
            row = self.base[np.arange(d)[:, None] + columns]
            row.flags.writeable = False
            self.append((row, d, period, pow(step, -1, period)))


#: Screen rows of the fields some live search uses; an entry goes when
#: its last user does.
_FIELD_ROWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _field_rows(field: GF2m, degree: int) -> _ScreenRows:
    """The field's shared screen rows, extended up to ``degree``."""
    rows = _FIELD_ROWS.get(field)
    if rows is None:
        rows = _FIELD_ROWS[field] = _ScreenRows(field)
    if len(rows) <= degree:
        rows.extend_to(degree)
    return rows


class ChienSearch:
    """Root search over the valid positions of a (shortened) BCH code."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.field: GF2m = spec.field()
        # The field's screen rows, taken on the first search.
        self._rows: _ScreenRows | tuple = ()

    def error_positions(self, locator: GFPoly) -> list[int]:
        """Bit positions (0 = MSB of byte 0) whose locator inverse is a root.

        Returns positions sorted ascending; the caller cross-checks the
        count against the locator degree to detect decoding failure.
        Any degree is accepted.
        """
        if locator.field != self.field:
            raise ValueError("locator polynomial is over a different field")
        if locator.degree <= 0:
            return []
        order = self.field.order
        n = self.spec.n_stored
        # Position j (power of x in the stream polynomial) has locator
        # X = alpha^j; lambda's roots are X^{-1} = alpha^{-j}, and term i
        # of lambda(alpha^{-j}) is alpha^(log c_i - i*j).
        c0, *higher = locator.coeffs
        rows = self._rows
        if len(rows) <= len(higher):
            rows = self._rows = _field_rows(self.field, len(higher))
        log = self.field.log_list
        terms = [(i, log[c]) for i, c in enumerate(higher, 1) if c]
        # Pass 1: XOR only the low byte of every term over all positions.
        acc = np.full(n, c0 & 0xFF, dtype=np.uint8)
        for i, log_c in terms:
            row, d, period, inverse = rows[i]
            k0 = -log_c % order
            line = row[k0 % d]
            s = k0 // d * inverse % period
            j = 0
            while n - j > period - s:  # the rest wraps past the row's end
                end = j + period - s
                acc[j:end] ^= line[s:]
                j, s = end, 0
            acc[j:] ^= line[s:s + n - j]
        candidates = np.flatnonzero(acc == 0)
        if candidates.size == 0:
            return []
        # Pass 2: exact evaluation at the surviving candidates only.
        degrees, logs = np.array(terms, dtype=np.int64).T
        exponents = (logs[:, None] - degrees[:, None] * candidates) % order
        values = np.bitwise_xor.reduce(self.field.exp[exponents], axis=0)
        roots = candidates[values == c0]  # j = power of x
        return (n - 1 - roots[::-1]).tolist()
