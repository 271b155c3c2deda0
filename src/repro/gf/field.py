"""Binary extension fields GF(2^m) with log/antilog tables.

The field is built from a primitive polynomial p(x) of degree m; elements
are integers in [0, 2^m) whose bits are polynomial coefficients.  A full
exponentiation table of the primitive element alpha is precomputed, which
makes scalar multiplication two table lookups; the decoder's hot loops
index plain-list copies of the tables or gather from them with numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import GaloisFieldError

#: Default primitive polynomials (bit i = coefficient of x^i), one per degree.
#: These are the standard choices used by BCH/CRC hardware generators.
_PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def default_primitive_poly(m: int) -> int:
    """Return the library's default primitive polynomial for GF(2^m)."""
    try:
        return _PRIMITIVE_POLYS[m]
    except KeyError:
        raise GaloisFieldError(f"no default primitive polynomial for m={m}") from None


class GF2m:
    """The finite field GF(2^m).

    Parameters
    ----------
    m:
        Field degree; the field has ``2**m`` elements.
    primitive_poly:
        Optional primitive polynomial as an integer bit mask including the
        x^m term.  Defaults to the standard polynomial for the degree.

    Notes
    -----
    Construction verifies primitivity: the powers of alpha = x must cycle
    through all 2^m - 1 nonzero elements.
    """

    __slots__ = (
        "m", "q", "order", "primitive_poly", "exp", "log", "_exp2",
        "_exp2_list", "_log_list",
    )

    def __init__(self, m: int, primitive_poly: int | None = None):
        if not 2 <= m <= 16:
            raise GaloisFieldError(f"supported degrees are 2..16, got {m}")
        if primitive_poly is None:
            primitive_poly = default_primitive_poly(m)
        if primitive_poly >> m != 1:
            raise GaloisFieldError(
                f"primitive polynomial 0x{primitive_poly:x} does not have degree {m}"
            )
        self.m = m
        self.q = 1 << m
        self.order = self.q - 1
        self.primitive_poly = primitive_poly

        def lfsr():
            value = 1
            while True:
                yield value
                value <<= 1
                if value & self.q:
                    value ^= primitive_poly

        # alpha^0 .. alpha^order from a plain-int LFSR, then one scatter
        # for the logs.  p(x) is primitive iff alpha^0 .. alpha^(order-1)
        # are pairwise distinct (the scatter fills `order` slots) and
        # alpha^order == 1.
        powers = np.fromiter(lfsr(), dtype=np.int64, count=self.q)
        exp = powers[:-1]
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp] = np.arange(self.order, dtype=np.int64)
        if powers[-1] != 1 or np.count_nonzero(log >= 0) != self.order:
            raise GaloisFieldError(
                f"polynomial 0x{primitive_poly:x} is not primitive for m={m}"
            )
        self.exp = exp
        self.log = log
        # Doubled exponent table: avoids the modulo reduction in scalar mul.
        self._exp2 = np.concatenate([exp, exp])
        # Lazily-built variants for hot paths (see the accessors below).
        self._exp2_list = None
        self._log_list = None

    # -- scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (carry-less XOR)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        if a == 0 or b == 0:
            return 0
        return int(self._exp2[self.log[a] + self.log[b]])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises on division by zero."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return int(self.exp[(self.log[a] - self.log[b]) % self.order])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return int(self.exp[(self.order - self.log[a]) % self.order])

    def pow(self, a: int, e: int) -> int:
        """Field exponentiation ``a**e`` (negative exponents allowed)."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no negative powers")
            return 0
        return int(self.exp[(self.log[a] * e) % self.order])

    def alpha_pow(self, e: int) -> int:
        """Power ``alpha**e`` of the primitive element."""
        return int(self.exp[e % self.order])

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise GaloisFieldError("zero has no multiplicative order")
        loga = int(self.log[a])
        from math import gcd

        return self.order // gcd(self.order, loga)

    # -- hot-path table accessors --------------------------------------------

    @property
    def exp2_list(self) -> list[int]:
        """Doubled antilog table as a plain list (fast scalar indexing)."""
        if self._exp2_list is None:
            self._exp2_list = self._exp2.tolist()
        return self._exp2_list

    @property
    def log_list(self) -> list[int]:
        """Log table as a plain list (fast scalar indexing; log[0] = -1)."""
        if self._log_list is None:
            self._log_list = self.log.tolist()
        return self._log_list

    # -- vectorized operations ---------------------------------------------

    def square_vec(self, a: np.ndarray) -> np.ndarray:
        """Element-wise field squaring (used for even BCH syndromes)."""
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        # 2*log < 2*order, so the doubled table needs no modulo reduction.
        out[nz] = self._exp2[2 * self.log[a[nz]]]
        return out

    # -- dunder helpers ------------------------------------------------------

    def __contains__(self, a: int) -> bool:
        return 0 <= a < self.q

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GF2m(m={self.m}, primitive_poly=0x{self.primitive_poly:x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2m)
            and other.m == self.m
            and other.primitive_poly == self.primitive_poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.primitive_poly))


def get_field(m: int, primitive_poly: int | None = None) -> GF2m:
    """Memoized field constructor (table building for m=16 is not free).

    The default polynomial is resolved before the cache lookup, so
    ``get_field(m)`` and ``get_field(m, default_primitive_poly(m))`` return
    the same object.
    """
    if primitive_poly is None:
        primitive_poly = default_primitive_poly(m)
    return _field(m, primitive_poly)


@lru_cache(maxsize=None)
def _field(m: int, primitive_poly: int) -> GF2m:
    return GF2m(m, primitive_poly)
