"""Cross-layer policy tests — the section 6.3 mode definitions."""

import pytest

from repro.core.config import CrossLayerConfig
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import CodeDesignError, ConfigurationError
from repro.nand.ispp import IsppAlgorithm


@pytest.fixture(scope="module")
def policy():
    return CrossLayerPolicy()


class TestPolicy:
    def test_baseline_uses_sv_with_tracking_t(self, policy):
        fresh = policy.config_for(OperatingMode.BASELINE, 0.0)
        assert fresh.algorithm is IsppAlgorithm.SV
        assert fresh.ecc_t == 6
        eol = policy.config_for(OperatingMode.BASELINE, 1e5)
        assert eol.ecc_t == 65

    def test_min_uber_keeps_baseline_t(self, policy):
        for age in (0.0, 1e3, 1e5):
            baseline = policy.config_for(OperatingMode.BASELINE, age)
            min_uber = policy.config_for(OperatingMode.MIN_UBER, age)
            assert min_uber.algorithm is IsppAlgorithm.DV
            assert min_uber.ecc_t == baseline.ecc_t

    def test_max_read_relaxes_t(self, policy):
        for age in (0.0, 1e4, 1e5):
            baseline = policy.config_for(OperatingMode.BASELINE, age)
            max_read = policy.config_for(OperatingMode.MAX_READ_THROUGHPUT, age)
            assert max_read.algorithm is IsppAlgorithm.DV
            assert max_read.ecc_t < baseline.ecc_t

    def test_paper_extreme_ts(self, policy):
        assert policy.config_for(OperatingMode.MAX_READ_THROUGHPUT, 0.0).ecc_t == 3
        assert policy.config_for(OperatingMode.MAX_READ_THROUGHPUT, 1e5).ecc_t == 14

    def test_all_configs_meet_uber_target(self, policy):
        from repro.bch.uber import uber_eq1

        for mode in OperatingMode:
            for age in (0.0, 1e2, 1e4, 1e5):
                config = policy.config_for(mode, age)
                rber = policy.rber_for(config, age)
                n = policy.k + policy.m * config.ecc_t
                assert uber_eq1(rber, n, config.ecc_t) <= policy.uber_target

    def test_max_read_sizes_only_the_dv_t(self, policy):
        # Past rated endurance ISPP-SV needs more than t_max; max-read
        # never runs ISPP-SV, so its configuration still exists.
        with pytest.raises(CodeDesignError):
            policy.config_for(OperatingMode.BASELINE, 1.2e5)
        assert policy.config_for(OperatingMode.MAX_READ_THROUGHPUT, 1.2e5) == (
            CrossLayerConfig(IsppAlgorithm.DV, 15)
        )

    def test_config_for_reads_the_model_rber(self, policy):
        for mode in OperatingMode:
            for age in (0.0, 1e3, 1e5):
                assert policy.config_for(mode, age) == policy.config_for_rber(
                    mode,
                    policy.rber_model.rber(IsppAlgorithm.SV, age),
                    policy.rber_model.rber(IsppAlgorithm.DV, age),
                )

    def test_worst_case_runs_the_mode_algorithm_at_t_max(self, policy):
        for mode in OperatingMode:
            worst = policy.worst_case(mode)
            assert worst.ecc_t == policy.t_max
            assert worst.algorithm is policy.config_for(mode, 0.0).algorithm

    def test_required_t_monotone_in_age(self, policy):
        ts = [
            policy.required_t_for(IsppAlgorithm.SV, age)
            for age in (0.0, 1e2, 1e3, 1e4, 1e5)
        ]
        assert ts == sorted(ts)

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            CrossLayerPolicy(t_min=10, t_max=5)

    def test_code_without_a_field_rejected_when_built(self):
        # k + m * t_max must fit GF(2^m) for some m <= 16.
        assert CrossLayerPolicy(k=32768, t_max=2047).m == 16
        with pytest.raises(CodeDesignError, match="no field"):
            CrossLayerPolicy(k=32768, t_max=2048)
