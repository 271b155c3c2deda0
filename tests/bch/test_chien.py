"""Chien search tests."""

import numpy as np
import pytest

from repro.bch.berlekamp import berlekamp_massey
from repro.bch.chien import ChienSearch
from repro.bch.params import design_code
from repro.bch.syndrome import SyndromeCalculator
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

    def test_root_count_in_field(self, small_spec):
        field = small_spec.field()
        roots = [field.alpha_pow(2), field.alpha_pow(9)]
        poly = GFPoly.from_roots(field, roots)
        chien = ChienSearch(small_spec)
        assert chien.root_count_in_field(poly) == 2

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


class TestChienByDefinition:
    """``error_positions`` against the locator evaluated at every
    position, for locators built from chosen roots: inside and outside
    the stored length, zero, and a factor with no roots.  Degrees run
    past t, where the screen goes in runs of positions."""

    @pytest.mark.parametrize("k, t", [(64, 3), (512, 10), (1024, 8)])
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
