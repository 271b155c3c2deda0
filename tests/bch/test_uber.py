"""UBER model tests — anchored to the paper's Fig. 7 checkpoints."""

import math

import pytest
from scipy import stats

from repro import params
from repro.bch.codec import AdaptiveBCHCodec
from repro.bch.uber import (
    monte_carlo_uber,
    log10_uber_eq1,
    max_rber_for_t,
    required_t,
    uber_eq1,
    uber_exact,
)
from repro.errors import CodeDesignError, ConfigurationError

#: The paper's code: a 4 KiB page over GF(2^16).
K, M = params.MESSAGE_BITS, 16


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
        assert required_t(rber, K, M) == expected_t

    def test_required_t_meets_target(self):
        for rber in (1e-6, 1e-5, 1e-4, 5e-4):
            t = required_t(rber, K, M)
            assert uber_eq1(rber, K + M * t, t) <= 1e-11

    def test_required_t_minimality(self):
        rber = 1e-4
        t = required_t(rber, K, M)
        assert uber_eq1(rber, K + M * (t - 1), t - 1) > 1e-11

    def test_unreachable_target_raises(self):
        with pytest.raises(CodeDesignError):
            required_t(5e-2, K, M)

    def test_zero_rber_returns_t_min(self):
        assert required_t(0.0, K, M, t_min=2) == 2


class TestMaxRber:
    def test_inverse_of_required_t(self):
        for t in (3, 14, 30):
            edge = max_rber_for_t(t, K, M)
            assert required_t(edge, K, M) <= t
            assert required_t(edge * 1.05, K, M) > t
        # t = 65 is the provisioned ceiling: just past its edge nothing fits.
        edge = max_rber_for_t(65, K, M)
        assert required_t(edge, K, M) <= 65
        with pytest.raises(CodeDesignError):
            required_t(edge * 1.05, K, M)

    def test_monotone_in_t(self):
        values = [max_rber_for_t(t, K, M) for t in (3, 10, 30, 65)]
        assert values == sorted(values)

    def test_t65_edge_near_1e_minus_3(self):
        assert max_rber_for_t(65, K, M) == pytest.approx(1e-3, rel=0.05)


def _stress_point(t, stress):
    """``run_uber_mc``'s (RBER, n, t): n = k + m t is the designed n at m = 16."""
    n = K + M * t
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
        # n*p >> t: Eq. (1) underestimates catastrophically (see the
        # repro.bch.uber module docstring).
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

    @pytest.fixture(scope="class")
    def codec(self):
        # A 256-byte message over GF(2^12) for every t below.
        return AdaptiveBCHCodec(k=2048, t_max=8)

    def test_deterministic_across_chunking_runs(self, codec):
        first = monte_carlo_uber(codec, 1e-3, 4, pages=16, seed=3, chunk_pages=4)
        second = monte_carlo_uber(codec, 1e-3, 4, pages=16, seed=3, chunk_pages=4)
        assert first == second

    def test_low_stress_recovers_everything(self, codec):
        result = monte_carlo_uber(codec, 1e-4, 8, pages=16, seed=5)
        assert result.failed_pages == 0
        assert result.corrected_bits == result.injected_bits

    def test_high_stress_fails_pages(self, codec):
        # n*rber far above t: essentially every page is uncorrectable.
        result = monte_carlo_uber(codec, 2e-2, 4, pages=8, seed=9)
        assert result.failed_pages == result.pages
        assert result.page_failure_rate == 1.0
        assert result.uber == pytest.approx(result.pages * 1.0 / (result.pages * result.n))

    def test_tracks_binomial_tail(self, codec):
        # Stress point near the knee: MC page-failure rate within a loose
        # band of the exact binomial tail.
        t = 6
        result = monte_carlo_uber(codec, 3.4e-3, t, pages=96, seed=17, chunk_pages=24)
        exact = uber_exact(3.4e-3, result.n, t) * result.n
        assert 0.05 < exact < 0.95
        assert abs(result.page_failure_rate - exact) < 0.25

    def test_measures_the_codec_it_is_given(self, codec):
        result = monte_carlo_uber(codec, 1e-4, 6, pages=4, seed=1)
        assert result.n == codec.spec_for(6).n == 2048 + 12 * 6
        with pytest.raises(ConfigurationError, match="outside supported range"):
            monte_carlo_uber(codec, 1e-4, 9, pages=4)

    def test_invalid_arguments(self, codec):
        with pytest.raises(ValueError):
            monte_carlo_uber(codec, 1e-3, 4, pages=0)
        with pytest.raises(ValueError):
            monte_carlo_uber(codec, 1e-3, 4, pages=8, chunk_pages=0)
