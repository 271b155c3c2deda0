"""Cyclotomic cosets and minimal polynomials."""

from repro.bch.params import generator_polynomial
from repro.gf.field import GF2m, get_field
from repro.gf.minpoly import (
    _minimal_polynomial_cached,
    cyclotomic_coset,
    cyclotomic_cosets,
    minimal_polynomial,
)
from repro.gf.poly2 import poly2_deg, poly2_eval_in_field, poly2_mod, poly2_mul


class TestCosets:
    def test_known_cosets_m4(self):
        assert cyclotomic_coset(1, 4) == (1, 2, 4, 8)
        assert cyclotomic_coset(3, 4) == (3, 6, 9, 12)
        assert cyclotomic_coset(5, 4) == (5, 10)
        assert cyclotomic_coset(7, 4) == (7, 11, 13, 14)

    def test_coset_closure_under_doubling(self):
        n = (1 << 6) - 1
        for i in (1, 3, 5, 9):
            coset = set(cyclotomic_coset(i, 6))
            assert {(2 * j) % n for j in coset} == coset

    def test_cosets_partition_nonzero_exponents(self):
        m = 5
        all_elements: set[int] = set()
        for coset in cyclotomic_cosets(m):
            assert not (all_elements & set(coset)), "cosets must be disjoint"
            all_elements.update(coset)
        assert all_elements == set(range(1, (1 << m) - 1))


class TestMinimalPolynomials:
    def test_minpoly_of_alpha_is_primitive_poly(self):
        for m in (4, 8, 16):
            field = get_field(m)
            assert minimal_polynomial(field, 1) == field.primitive_poly

    def test_minpoly_annihilates_all_conjugates(self):
        field = get_field(6)
        for i in (1, 3, 5, 7, 9):
            minpoly = minimal_polynomial(field, i)
            for j in cyclotomic_coset(i, 6):
                assert poly2_eval_in_field(minpoly, field.alpha_pow(j), field) == 0

    def test_minpoly_degree_equals_coset_size(self):
        field = get_field(8)
        for i in (1, 3, 5, 17, 85):
            assert poly2_deg(minimal_polynomial(field, i)) == len(
                cyclotomic_coset(i, 8)
            )

    def test_minpoly_divides_x_q_minus_x(self):
        m = 6
        field = get_field(m)
        x_order_plus_1 = (1 << ((1 << m) - 1)) | 1  # x^(2^m - 1) + 1
        for i in (1, 3, 5, 9, 21):
            assert poly2_mod(x_order_plus_1, minimal_polynomial(field, i)) == 0

    def test_conjugate_indices_share_minpoly(self):
        field = get_field(8)
        assert minimal_polynomial(field, 3) == minimal_polynomial(field, 6)
        assert minimal_polynomial(field, 3) == minimal_polynomial(field, 12)

    def test_product_over_cosets_is_squarefree(self):
        # Distinct cosets give coprime minimal polynomials.
        field = get_field(5)
        p1 = minimal_polynomial(field, 1)
        p3 = minimal_polynomial(field, 3)
        assert p1 != p3
        product = poly2_mul(p1, p3)
        assert poly2_deg(product) == poly2_deg(p1) + poly2_deg(p3)


class TestFieldReuse:
    def test_recomputed_minpolys_build_no_field(self, monkeypatch):
        # The t = 65 page code: every odd index 1..129 over GF(2^16).
        field = get_field(16)
        generator = generator_polynomial(16, 65)
        builds = []
        original = GF2m.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(GF2m, "__init__", counting_init)
        _minimal_polynomial_cached.cache_clear()
        product = 1
        seen = set()
        for i in range(1, 2 * 65, 2):
            minpoly = minimal_polynomial(field, i)
            if minpoly not in seen:
                seen.add(minpoly)
                product = poly2_mul(product, minpoly)
        assert product == generator
        assert builds == []
