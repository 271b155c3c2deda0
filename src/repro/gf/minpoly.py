"""Cyclotomic cosets and minimal polynomials over GF(2).

The BCH generator polynomial is the least common multiple of the minimal
polynomials of alpha, alpha^2, ..., alpha^(2t); because conjugates share a
minimal polynomial, the LCM reduces to a product over distinct cyclotomic
cosets (Micheloni et al., "Error Correction Codes for Non-Volatile
Memories", ch. 3).
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import GaloisFieldError
from repro.gf.field import GF2m, get_field
from repro.gf.polygf import GFPoly


def cyclotomic_coset(i: int, m: int) -> tuple[int, ...]:
    """The 2-cyclotomic coset of ``i`` modulo ``2^m - 1``, sorted."""
    n = (1 << m) - 1
    i %= n
    coset = set()
    j = i
    while j not in coset:
        coset.add(j)
        j = (j * 2) % n
    return tuple(sorted(coset))


def cyclotomic_cosets(m: int, up_to: int | None = None) -> list[tuple[int, ...]]:
    """All distinct cosets with representative <= ``up_to`` (default: all)."""
    n = (1 << m) - 1
    limit = n - 1 if up_to is None else up_to
    seen: set[int] = set()
    cosets = []
    for i in range(1, limit + 1):
        if i % n in seen:
            continue
        coset = cyclotomic_coset(i, m)
        seen.update(coset)
        cosets.append(coset)
    return cosets


@lru_cache(maxsize=None)
def _minimal_polynomial_cached(i: int, m: int, primitive_poly: int) -> int:
    field = get_field(m, primitive_poly)
    coset = cyclotomic_coset(i, m)
    roots = [field.alpha_pow(j) for j in coset]
    poly = GFPoly.from_roots(field, roots)
    # A minimal polynomial over GF(2) must have 0/1 coefficients.
    mask = 0
    for degree, coeff in enumerate(poly.coeffs):
        if coeff not in (0, 1):
            raise GaloisFieldError(
                f"minimal polynomial of alpha^{i} has non-binary coefficient {coeff}"
            )
        if coeff:
            mask |= 1 << degree
    return mask


def minimal_polynomial(field: GF2m, i: int) -> int:
    """Minimal polynomial of alpha^i over GF(2), as an integer bit mask.

    The returned integer encodes the polynomial with bit ``d`` equal to the
    coefficient of ``x^d``; it always has degree dividing ``m``.
    """
    return _minimal_polynomial_cached(i % field.order, field.m, field.primitive_poly)
