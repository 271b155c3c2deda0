"""GF(2^m) field arithmetic tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GaloisFieldError
from repro.gf.field import GF2m, default_primitive_poly, get_field

elements16 = st.integers(min_value=0, max_value=15)
nonzero16 = st.integers(min_value=1, max_value=15)


class TestConstruction:
    def test_all_supported_degrees_build(self):
        for m in range(2, 17):
            field = get_field(m)
            assert field.q == 1 << m
            assert field.order == (1 << m) - 1

    def test_non_primitive_polynomial_rejected(self):
        # x^4 + 1 is not even irreducible.
        with pytest.raises(GaloisFieldError):
            GF2m(4, 0b10001)

    def test_reducible_polynomial_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive (order 5).
        with pytest.raises(GaloisFieldError):
            GF2m(4, 0b11111)

    def test_wrong_degree_rejected(self):
        with pytest.raises(GaloisFieldError):
            GF2m(4, 0b1011)  # degree 3 polynomial for m=4

    def test_unsupported_degree_rejected(self):
        with pytest.raises(GaloisFieldError):
            GF2m(1)
        with pytest.raises(GaloisFieldError):
            GF2m(17)

    def test_default_poly_unknown_degree(self):
        with pytest.raises(GaloisFieldError):
            default_primitive_poly(25)

    def test_exp_log_are_inverse(self, gf16):
        for e in range(gf16.order):
            assert gf16.log[gf16.exp[e]] == e

    @pytest.mark.parametrize("m", range(2, 17))
    def test_tables_match_element_by_element_lfsr(self, m):
        field = GF2m(m)
        exp = []
        log = [-1] * field.q
        value = 1
        for i in range(field.order):
            exp.append(value)
            log[value] = i
            value <<= 1
            if value & field.q:
                value ^= field.primitive_poly
        assert field.exp.tolist() == exp
        assert field.log.tolist() == log

    def test_get_field_default_polynomial_forms_share_one_object(self):
        poly = default_primitive_poly(16)
        field = get_field(16)
        assert get_field(16, poly) is field
        assert get_field(16, primitive_poly=poly) is field

    def test_equality_and_hash(self):
        assert get_field(4) == GF2m(4)
        assert hash(GF2m(4)) == hash(GF2m(4))
        assert GF2m(4) != GF2m(5)


class TestScalarOps:
    def test_add_is_xor(self, gf16):
        assert gf16.add(0b1010, 0b0110) == 0b1100

    def test_mul_identity_and_zero(self, gf16):
        for a in range(gf16.q):
            assert gf16.mul(a, 1) == a
            assert gf16.mul(a, 0) == 0

    def test_mul_matches_polynomial_multiplication(self, gf16):
        # alpha * alpha^2 == alpha^3 in the exp table.
        a = gf16.alpha_pow(1)
        b = gf16.alpha_pow(2)
        assert gf16.mul(a, b) == gf16.alpha_pow(3)

    def test_div_and_inv(self, gf16):
        for a in range(1, gf16.q):
            assert gf16.mul(a, gf16.inv(a)) == 1
            assert gf16.div(a, a) == 1

    def test_div_by_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.div(3, 0)
        with pytest.raises(ZeroDivisionError):
            gf16.inv(0)

    def test_pow(self, gf16):
        a = gf16.alpha_pow(3)
        assert gf16.pow(a, 0) == 1
        assert gf16.pow(a, 1) == a
        assert gf16.pow(a, 2) == gf16.mul(a, a)
        assert gf16.pow(a, -1) == gf16.inv(a)
        assert gf16.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            gf16.pow(0, -2)

    def test_element_order_divides_group_order(self, gf16):
        for a in range(1, gf16.q):
            order = gf16.element_order(a)
            assert gf16.order % order == 0
            assert gf16.pow(a, order) == 1

    def test_primitive_element_has_full_order(self, gf16):
        assert gf16.element_order(gf16.alpha_pow(1)) == gf16.order


class TestFieldAxioms:
    @given(a=elements16, b=elements16, c=elements16)
    @settings(max_examples=200)
    def test_mul_associative_and_distributive(self, a, b, c):
        field = get_field(4)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        left = field.mul(a, b ^ c)
        right = field.mul(a, b) ^ field.mul(a, c)
        assert left == right

    @given(a=elements16, b=elements16)
    @settings(max_examples=200)
    def test_mul_commutative(self, a, b):
        field = get_field(4)
        assert field.mul(a, b) == field.mul(b, a)

    @given(a=nonzero16, b=nonzero16)
    @settings(max_examples=200)
    def test_div_is_mul_by_inverse(self, a, b):
        field = get_field(4)
        assert field.div(a, b) == field.mul(a, field.inv(b))
