"""Berlekamp-Massey (BM) — second decoding stage of Fig. 2.

Builds the error-locator polynomial lambda(x) whose roots are the
inverses of the error locations.  The syndromes of a binary word obey
S_2i = S_i^2, so every second discrepancy of the recursion is zero and
its step only shifts the correction term; the simplified binary
algorithm runs the t steps whose discrepancy can be nonzero (Berlekamp
1968; Lin & Costello, *Error Control Coding*, 2nd ed., section 6.2).
The locator is normalised to lambda(0) = 1 and the correction term is
stored already divided by its discrepancy, so each length change costs
one field inversion and lambda is never rescaled.  The locator is a
nonzero scalar multiple of the one the paper's inversionless (iBM)
datapath computes: same degree, same roots.  The hardware model charges
that datapath ``bm_cycles_per_iteration`` clocks for each of its t
iterations (:mod:`repro.bch.hardware`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


@dataclass(frozen=True)
class BerlekampResult:
    """Outcome of the BM recursion.

    Attributes
    ----------
    error_locator:
        lambda(x), low-order-first coefficients, lambda(0) = 1.
    degree:
        Claimed number of errors nu = deg(lambda) when consistent.
    iterations:
        Number of update iterations executed: t for the 2t syndromes
        of a t-error-correcting code, the count the hardware model
        charges.
    """

    error_locator: GFPoly
    degree: int
    iterations: int


def berlekamp_massey(field: GF2m, syndromes: list[int]) -> BerlekampResult:
    """Run binary BM on ``[S_1 .. S_2t]`` of a binary received word.

    Returns the error-locator polynomial; the caller (decoder) validates it
    by Chien search (root count must equal the claimed degree).

    The loops index the field's plain-list log/antilog tables directly
    instead of calling :meth:`GF2m.mul`: the recursion is O(t^2) scalar
    multiplications and per-call numpy scalar indexing would dominate.
    """
    exp2 = field.exp2_list
    log = field.log_list
    order = field.order
    s_log = [log[s] for s in syndromes]  # -1 marks a zero syndrome
    # At step r the correction term is x^shift * q(x), q held as logs
    # (-1 for a zero coefficient): the previous locator before the last
    # length change, divided by that step's discrepancy.
    lam = [1]
    q, shift = [0], 1
    length = 0  # current LFSR length L
    steps = range(0, len(syndromes), 2)
    for r in steps:
        # Discrepancy: delta = sum_{i=0..L} lam_i * S_{r+1-i}.
        delta = 0
        for c, s in zip(lam, s_log[r::-1]):
            if c and s >= 0:
                delta ^= exp2[log[c] + s]
        if delta:
            log_delta = log[delta]
            term, term_shift = q, shift
            if 2 * length <= r:
                length = r + 1 - length
                q = [(log[c] - log_delta) % order if c else -1 for c in lam]
                shift = 0
            # lam(x) += delta * x^term_shift * term(x), in place.
            lam.extend([0] * (term_shift + len(term) - len(lam)))
            for i, lq in enumerate(term, term_shift):
                if lq >= 0:
                    lam[i] ^= exp2[lq + log_delta]
        # This step's shift and the skipped step's.
        shift += 2

    locator = GFPoly(field, lam)
    return BerlekampResult(
        error_locator=locator, degree=locator.degree, iterations=len(steps)
    )
