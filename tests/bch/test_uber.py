"""UBER model tests — anchored to the paper's Fig. 7 checkpoints."""

import math

import pytest
from scipy import stats

from repro import params
from repro.bch.uber import (
    monte_carlo_uber,
    achieved_uber,
    log10_uber_eq1,
    max_rber_for_t,
    required_t,
    uber_eq1,
    uber_exact,
)
from repro.errors import CodeDesignError


class TestEq1:
    def test_zero_rber(self):
        assert uber_eq1(0.0, 33000, 5) == 0.0
        assert log10_uber_eq1(0.0, 33000, 5) == -math.inf

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log10_uber_eq1(1.5, 33000, 5)
        with pytest.raises(ValueError):
            log10_uber_eq1(1e-5, 5, 5)

    def test_monotone_decreasing_in_t_on_valid_branch(self):
        rber = 1e-4
        previous = 0.0
        for t in range(10, 40):
            value = log10_uber_eq1(rber, 32768 + 16 * t, t)
            if t > 10:
                assert value < previous
            previous = value

    def test_monotone_increasing_in_rber(self):
        n, t = 32768 + 16 * 8, 8
        values = [log10_uber_eq1(r, n, t) for r in (1e-6, 1e-5, 1e-4)]
        assert values == sorted(values)

    def test_linear_scale_consistency(self):
        n, t = 33000, 10
        assert uber_eq1(1e-4, n, t) == pytest.approx(
            10 ** log10_uber_eq1(1e-4, n, t)
        )


class TestPaperCheckpoints:
    """The exact required-t values of Fig. 7 / 'Fig. ??'."""

    @pytest.mark.parametrize(
        "rber,expected_t",
        [
            (1e-6, 3),      # best case, tMIN = 3
            (2.5e-6, 4),
            (2.75e-4, 27),
            (1e-3, 65),     # ISPP-SV worst case, tMAX = 65
            (8e-5, 14),     # ISPP-DV worst case, tMAX = 14
        ],
    )
    def test_required_t_matches_paper(self, rber, expected_t):
        assert required_t(rber) == expected_t

    def test_required_t_meets_target(self):
        for rber in (1e-6, 1e-5, 1e-4, 5e-4):
            t = required_t(rber)
            assert achieved_uber(rber, t) <= 1e-11

    def test_required_t_minimality(self):
        rber = 1e-4
        t = required_t(rber)
        assert achieved_uber(rber, t - 1) > 1e-11

    def test_unreachable_target_raises(self):
        with pytest.raises(CodeDesignError):
            required_t(5e-2)

    def test_zero_rber_returns_t_min(self):
        assert required_t(0.0, t_min=2) == 2


class TestMaxRber:
    def test_inverse_of_required_t(self):
        for t in (3, 14, 30):
            edge = max_rber_for_t(t)
            assert required_t(edge) <= t
            assert required_t(edge * 1.05) > t
        # t = 65 is the provisioned ceiling: just past its edge nothing fits.
        edge = max_rber_for_t(65)
        assert required_t(edge) <= 65
        with pytest.raises(CodeDesignError):
            required_t(edge * 1.05)

    def test_monotone_in_t(self):
        values = [max_rber_for_t(t) for t in (3, 10, 30, 65)]
        assert values == sorted(values)

    def test_t65_edge_near_1e_minus_3(self):
        assert max_rber_for_t(65) == pytest.approx(1e-3, rel=0.05)


def _stress_point(t, stress):
    """``run_uber_mc``'s (RBER, n, t): n = k + m t is the designed n at m = 16."""
    n = params.MESSAGE_BITS + params.GF_DEGREE * t
    return stress * (t + 1) / n, n, t


class TestExactTail:
    def test_exact_upper_bounds_eq1_regime(self):
        # Where errors are rare, the (t+1)-term dominates but the exact
        # tail includes the heavier patterns too: exact >= eq1.
        n, t = 32768 + 16 * 6, 6
        rber = 1e-5
        assert uber_exact(rber, n, t) >= uber_eq1(rber, n, t)

    def test_exact_close_to_eq1_when_rare(self):
        n, t = 32768 + 16 * 10, 10
        rber = 1e-5
        ratio = uber_exact(rber, n, t) / uber_eq1(rber, n, t)
        assert 1.0 <= ratio < 2.0

    def test_exact_diverges_at_high_load(self):
        # n*p >> t: Eq. (1) underestimates catastrophically (DESIGN.md note).
        n, t = 32768 + 16 * 6, 6
        rber = 1e-3
        assert uber_exact(rber, n, t) > 1e3 * uber_eq1(rber, n, t)

    def test_zero_rber(self):
        assert uber_exact(0.0, 1000, 2) == 0.0

    # The four ``run_uber_mc`` stress points, then the points above.
    @pytest.mark.parametrize(("rber", "n", "t"), [
        _stress_point(3, 1.6),
        _stress_point(14, 1.0),
        _stress_point(14, 1.3),
        _stress_point(65, 1.1),
        (1e-5, 32768 + 16 * 6, 6),
        (1e-5, 32768 + 16 * 10, 10),
        (1e-3, 32768 + 16 * 6, 6),
        (0.0, 1000, 2),
    ])
    def test_is_binomial_survival_per_bit(self, rber, n, t):
        # The reference comes from the installed scipy, so the pin holds
        # bit for bit across scipy versions.
        assert uber_exact(rber, n, t) == float(stats.binom.sf(t, n, rber)) / n


class TestMonteCarloUber:
    """Monte-Carlo UBER through the codec: determinism and statistical
    sanity."""

    def test_deterministic_across_chunking_runs(self):
        first = monte_carlo_uber(1e-3, 4, pages=16, k=2048, seed=3, chunk_pages=4)
        second = monte_carlo_uber(1e-3, 4, pages=16, k=2048, seed=3, chunk_pages=4)
        assert first == second

    def test_low_stress_recovers_everything(self):
        result = monte_carlo_uber(1e-4, 8, pages=16, k=2048, seed=5)
        assert result.failed_pages == 0
        assert result.corrected_bits == result.injected_bits

    def test_high_stress_fails_pages(self):
        # n*rber far above t: essentially every page is uncorrectable.
        result = monte_carlo_uber(2e-2, 4, pages=8, k=2048, seed=9)
        assert result.failed_pages == result.pages
        assert result.page_failure_rate == 1.0
        assert result.uber == pytest.approx(result.pages * 1.0 / (result.pages * result.n))

    def test_tracks_binomial_tail(self):
        # Stress point near the knee: MC page-failure rate within a loose
        # band of the exact binomial tail.
        t, k = 6, 2048
        result = monte_carlo_uber(3.4e-3, t, pages=96, k=k, seed=17, chunk_pages=24)
        exact = uber_exact(3.4e-3, result.n, t) * result.n
        assert 0.05 < exact < 0.95
        assert abs(result.page_failure_rate - exact) < 0.25

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_uber(1e-3, 4, pages=0, k=2048)
        with pytest.raises(ValueError):
            monte_carlo_uber(1e-3, 4, pages=8, k=2048, chunk_pages=0)
