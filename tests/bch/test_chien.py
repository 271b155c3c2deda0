"""Chien search tests."""

from math import gcd

import numpy as np
import pytest

from repro.bch import chien as chien_module
from repro.bch.berlekamp import berlekamp_massey
from repro.bch.chien import ChienSearch
from repro.bch.params import design_code
from repro.bch.syndrome import SyndromeCalculator
from repro.gf.field import get_field
from repro.gf.polygf import GFPoly


def rootless_quadratic(field):
    """x^2 + x + c with trace(c) = 1: irreducible over GF(2^m), so it
    has no root in the field."""

    def trace(c):
        total = 0
        for _ in range(field.m):
            total ^= c
            c = field.mul(c, c)
        return total

    c = next(c for c in range(1, field.q) if trace(c) == 1)
    return GFPoly(field, [c, 1, 1])


def locator_with_roots(spec, exponents, extra_roots=()):
    """Locator with a root alpha^(-j) for every exponent j, the extra
    roots, and a factor with no roots in the field."""
    field = spec.field()
    roots = [field.alpha_pow(-j) for j in exponents] + list(extra_roots)
    return GFPoly.from_roots(field, roots) * rootless_quadratic(field)


def positions_by_definition(spec, locator):
    """Positions whose stream exponent j has locator(alpha^(-j)) == 0,
    by Horner evaluation at every j."""
    field = spec.field()
    n = spec.n_stored
    return sorted(
        n - 1 - j for j in range(n) if locator(field.alpha_pow(-j)) == 0
    )


class TestChienSearch:
    def _positions_via_chien(self, spec, positions):
        calc = SyndromeCalculator(spec)
        syndromes = calc.syndromes_of_error_positions(positions)
        bm = berlekamp_massey(spec.field(), syndromes)
        return ChienSearch(spec).error_positions(bm.error_locator)

    def test_round_trip_positions(self, small_spec):
        for positions in ([0], [small_spec.n_stored - 1], [5, 60], [1, 2, 3]):
            assert self._positions_via_chien(small_spec, positions) == sorted(positions)

    def test_round_trip_medium(self, medium_spec):
        positions = [0, 17, 512, 1000, 1100]
        assert self._positions_via_chien(medium_spec, positions) == sorted(positions)

    def test_constant_locator_no_positions(self, small_spec):
        chien = ChienSearch(small_spec)
        one = GFPoly.one(small_spec.field())
        assert chien.error_positions(one) == []

    def test_positions_limited_to_stored_length(self, small_spec):
        # A locator whose root corresponds to an exponent >= n_stored must
        # yield no position (shortened-code exclusion).
        field = small_spec.field()
        n = small_spec.n_stored
        out_of_range_exponent = n + 1  # valid field exponent, invalid position
        root = field.alpha_pow(-out_of_range_exponent % field.order)
        poly = GFPoly.from_roots(field, [root])
        chien = ChienSearch(small_spec)
        assert chien.error_positions(poly) == []

    def test_locator_over_another_field_rejected(self, small_spec, gf16):
        chien = ChienSearch(small_spec)
        with pytest.raises(ValueError, match="different field"):
            chien.error_positions(GFPoly(gf16, [1, 1]))


class TestChienByDefinition:
    """``error_positions`` against the locator evaluated at every
    position, for locators built from chosen roots: inside and outside
    the stored length, zero, and a factor with no roots.  Degrees run
    past t, and past the field's shortest row period at t = 65.  In
    GF(2^6), N = 63 has the divisors 3, 7, 9 and 21, so most degrees
    wrap their row several times within the 48 stored positions."""

    @pytest.mark.parametrize("k, t", [(32, 2), (64, 3), (512, 10), (1024, 8)])
    def test_matches_evaluation_at_every_position(self, k, t, rng):
        spec = design_code(k, t)
        assert spec.m <= 11
        n, order = spec.n_stored, spec.field().order
        chien = ChienSearch(spec)
        for inside, outside in ((1, 0), (t, 0), (t - 1, 2), (2 * t, 3),
                                (3 * t + 4, 1), (0, 4)):
            exponents = (
                rng.choice(n, inside, replace=False).tolist()
                + rng.choice(np.arange(n, order), outside,
                             replace=False).tolist()
            )
            for extra in ((), (0,)):
                locator = locator_with_roots(spec, exponents, extra)
                expected = positions_by_definition(spec, locator)
                assert expected == sorted(
                    n - 1 - j for j in exponents if j < n
                )
                assert chien.error_positions(locator) == expected

    def test_page_code_finds_the_chosen_roots(self, rng):
        spec = design_code(32768, 65)
        n, order = spec.n_stored, spec.field().order
        chien = ChienSearch(spec)
        for inside, outside in ((63, 0), (40, 23), (60, 10)):
            exponents = (
                rng.choice(n, inside, replace=False).tolist()
                + rng.choice(np.arange(n, order), outside,
                             replace=False).tolist()
            )
            locator = locator_with_roots(spec, exponents)
            assert locator.degree == inside + outside + 2
            assert chien.error_positions(locator) == sorted(
                n - 1 - j for j in exponents if j < n
            )


class TestScreenRows:
    """The per-field screen rows against the layout in the module
    docstring, for every degree up to N in fields whose N has several
    divisors (15 = 3 * 5, 63 = 3^2 * 7)."""

    @pytest.mark.parametrize("m", [4, 6])
    def test_rows_match_their_definition(self, m):
        field = get_field(m)
        order = field.order
        rows = chien_module._ScreenRows(field)
        rows.extend_to(order)
        assert len(rows) == order + 1
        for i in range(1, order + 1):
            row, d, period, inverse = rows[i]
            assert (d, period) == (gcd(i, order), order // gcd(i, order))
            assert row.shape == (d, period) and row.dtype == np.uint8
            assert not row.flags.writeable
            assert i // d * inverse % period == 1 % period
            c = np.arange(d)[:, None]
            s = np.arange(period)[None, :]
            k = c + d * (i // d * s % period)
            assert np.array_equal(row, field.exp[-k % order] & 0xFF)

    @pytest.mark.parametrize("m", [4, 6])
    def test_each_term_walks_its_row_from_s0(self, m):
        # Term i at position j is alpha^-(k0 + i*j); read from row
        # k0 mod d at column (s0 + j) mod P, over more than two full
        # turns of the field so every row wraps.
        field = get_field(m)
        order = field.order
        rows = chien_module._ScreenRows(field)
        rows.extend_to(order)
        k0 = np.arange(order)[:, None]
        j = np.arange(2 * order + 1)[None, :]
        for i in range(1, order + 1):
            row, d, period, inverse = rows[i]
            s0 = k0 // d * inverse % period
            read = row[k0 % d, (s0 + j) % period]
            expected = field.exp[-(k0 + i * j) % order] & 0xFF
            assert np.array_equal(read, expected), f"degree {i}"

    def test_rows_grow_to_the_highest_degree_searched(self, rng):
        spec = design_code(512, 10)
        n = spec.n_stored
        low, high = ChienSearch(spec), ChienSearch(spec)
        few = rng.choice(n, 3, replace=False).tolist()
        small = locator_with_roots(spec, few)
        assert low.error_positions(small) == sorted(n - 1 - j for j in few)
        rows = low._rows
        assert len(rows) > small.degree
        built = list(rows)
        many = rng.choice(n, 40, replace=False).tolist()
        big = locator_with_roots(spec, many)
        expected = sorted(n - 1 - j for j in many)
        assert high.error_positions(big) == expected
        # One shared object, extended in place; earlier rows are kept.
        assert high._rows is rows and len(rows) > big.degree
        assert all(a is b for a, b in zip(built, rows))
        assert low.error_positions(big) == expected
