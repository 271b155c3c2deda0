"""Dense polynomials over GF(2^m).

Coefficients are stored low-order first in a plain list of field elements.
This class carries the error-locator polynomial and its algebra; the
Berlekamp-Massey recursion and the Chien search work on its coefficient
list with the field's tables directly (:mod:`repro.bch.berlekamp`,
:mod:`repro.bch.chien`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import GaloisFieldError
from repro.gf.field import GF2m


class GFPoly:
    """A polynomial with coefficients in GF(2^m)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF2m, coeffs: Iterable[int] = ()):
        self.field = field
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        for c in trimmed:
            if not 0 <= c < field.q:
                raise GaloisFieldError(f"coefficient {c} outside GF(2^{field.m})")
        self.coeffs = trimmed

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: GF2m) -> "GFPoly":
        """The zero polynomial."""
        return cls(field, [])

    @classmethod
    def one(cls, field: GF2m) -> "GFPoly":
        """The constant polynomial 1."""
        return cls(field, [1])

    @classmethod
    def monomial(cls, field: GF2m, degree: int, coeff: int = 1) -> "GFPoly":
        """``coeff * x**degree``."""
        if degree < 0:
            raise GaloisFieldError("monomial degree must be non-negative")
        return cls(field, [0] * degree + [coeff])

    @classmethod
    def from_roots(cls, field: GF2m, roots: Sequence[int]) -> "GFPoly":
        """Monic polynomial with the given roots: prod (x - r)."""
        poly = cls.one(field)
        for r in roots:
            poly = poly * cls(field, [r, 1])  # (x + r) == (x - r) over GF(2^m)
        return poly

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Polynomial degree (-1 for the zero polynomial)."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self.coeffs

    def coeff(self, i: int) -> int:
        """Coefficient of x^i (0 beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def leading_coeff(self) -> int:
        """Coefficient of the highest-degree term (0 for zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    # -- arithmetic -------------------------------------------------------------

    def _check_field(self, other: "GFPoly") -> None:
        if other.field != self.field:
            raise GaloisFieldError("mixed-field polynomial arithmetic")

    def __add__(self, other: "GFPoly") -> "GFPoly":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        coeffs = [self.coeff(i) ^ other.coeff(i) for i in range(n)]
        return GFPoly(self.field, coeffs)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "GFPoly") -> "GFPoly":
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return GFPoly.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        mul = self.field.mul
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return GFPoly(self.field, out)

    def scale(self, c: int) -> "GFPoly":
        """Multiply every coefficient by the scalar ``c``."""
        mul = self.field.mul
        return GFPoly(self.field, [mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "GFPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return GFPoly(self.field, [0] * k + self.coeffs)

    def divmod(self, other: "GFPoly") -> tuple["GFPoly", "GFPoly"]:
        """Euclidean division: returns (quotient, remainder)."""
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        divisor = other.coeffs
        ddeg = other.degree
        inv_lead = field.inv(other.leading_coeff())
        qdeg = len(rem) - 1 - ddeg
        if qdeg < 0:
            return GFPoly.zero(field), GFPoly(field, rem)
        quot = [0] * (qdeg + 1)
        for i in range(len(rem) - 1, ddeg - 1, -1):
            coeff = rem[i]
            if coeff == 0:
                continue
            factor = field.mul(coeff, inv_lead)
            quot[i - ddeg] = factor
            offset = i - ddeg
            for j, d in enumerate(divisor):
                if d:
                    rem[offset + j] ^= field.mul(factor, d)
        return GFPoly(field, quot), GFPoly(field, rem)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, point: int) -> int:
        """Horner evaluation at a field element."""
        acc = 0
        mul = self.field.mul
        for c in reversed(self.coeffs):
            acc = mul(acc, point) ^ c
        return acc

    def formal_derivative(self) -> "GFPoly":
        """Formal derivative; over GF(2^m) even-power terms vanish."""
        coeffs = [
            self.coeffs[i] if i % 2 == 1 else 0 for i in range(1, len(self.coeffs))
        ]
        return GFPoly(self.field, coeffs)

    def roots(self) -> list[int]:
        """Brute-force root search over the whole field (small fields only)."""
        return [x for x in range(self.field.q) if self(x) == 0]

    # -- dunder -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GFPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GFPoly(GF(2^{self.field.m}), {self.coeffs})"
