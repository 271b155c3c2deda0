"""Binary Berlekamp-Massey tests."""

from repro.bch.berlekamp import berlekamp_massey
from repro.bch.hardware import EccLatencyModel
from repro.bch.syndrome import SyndromeCalculator
from repro.gf.field import get_field


def locator_for(spec, positions):
    calc = SyndromeCalculator(spec)
    syndromes = calc.syndromes_of_error_positions(positions)
    return berlekamp_massey(spec.field(), syndromes)


class TestBerlekampMassey:
    def test_no_errors_gives_constant(self, small_spec):
        result = locator_for(small_spec, [])
        assert result.degree == 0
        # t iterations, the count the hardware model charges.
        assert result.iterations == small_spec.t
        model = EccLatencyModel()
        assert (model.decode_breakdown(small_spec).berlekamp_cycles
                == model.hw.bm_cycles_per_iteration * result.iterations)

    def test_degree_equals_error_count(self, small_spec):
        for count, positions in ((1, [4]), (2, [4, 30]), (3, [4, 30, 70])):
            result = locator_for(small_spec, positions)
            assert result.degree == count

    def test_locator_roots_are_inverse_locators(self, small_spec):
        field = small_spec.field()
        positions = [3, 50]
        result = locator_for(small_spec, positions)
        n = small_spec.n_stored
        for pos in positions:
            exponent = n - 1 - pos
            root = field.alpha_pow(-exponent % field.order)
            assert result.error_locator(root) == 0

    def test_locator_constant_term_nonzero(self, small_spec):
        result = locator_for(small_spec, [1, 2, 3])
        assert result.error_locator.coeff(0) != 0

    def test_medium_code_full_capability(self, medium_spec):
        positions = [7, 100, 500, 900, 1030, 64, 222, 333][: medium_spec.t]
        result = locator_for(medium_spec, positions)
        assert result.degree == len(positions)

    def test_overload_exceeds_t(self, small_spec):
        # t+1 errors: BM produces a locator that cannot have degree <= t
        # with matching root count; degree may exceed t or roots won't match.
        positions = [1, 20, 40, 60]  # t = 3
        result = locator_for(small_spec, positions)
        field = small_spec.field()
        n = small_spec.n_stored
        roots_found = sum(
            1
            for pos in range(n)
            if result.error_locator(
                field.alpha_pow(-(n - 1 - pos) % field.order)
            ) == 0
        )
        assert result.degree > small_spec.t or roots_found != result.degree
