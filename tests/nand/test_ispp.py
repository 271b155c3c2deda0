"""ISPP engine tests (ISPP-SV and ISPP-DV mechanics)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NandOperationError
from repro.nand.ispp import IsppAlgorithm, IsppEngine, IsppSchedule


@pytest.fixture()
def engine(rng):
    return IsppEngine(rng=rng)


def random_targets(rng, n=4096):
    return rng.integers(0, 4, n)


class TestSchedule:
    def test_vpp_staircase_and_clamp(self):
        sched = IsppSchedule()
        assert sched.vpp_at(0) == 14.0
        assert sched.vpp_at(4) == 15.0
        assert sched.vpp_at(100) == 19.0  # clamped at the pump ceiling

    def test_invalid_schedules(self):
        with pytest.raises(ConfigurationError):
            IsppSchedule(vpp_end=13.0)
        with pytest.raises(ConfigurationError):
            IsppSchedule(delta=0)
        with pytest.raises(ConfigurationError):
            IsppSchedule(dv_attenuation=1.0)
        with pytest.raises(ConfigurationError):
            IsppSchedule(dv_preverify_offset=0)
        with pytest.raises(ConfigurationError):
            IsppSchedule(max_pulses=0)


class TestProgramPage:
    def test_all_cells_reach_verify(self, engine, rng):
        targets = random_targets(rng)
        result = engine.program_page(targets, IsppAlgorithm.SV)
        assert result.failed_cells == 0
        vfy = np.array([np.nan, 0.8, 2.0, 3.2])
        programmed = targets > 0
        assert np.all(result.vth[programmed] >= vfy[targets[programmed]] - 1e-9)

    def test_erased_cells_untouched(self, engine, rng):
        targets = np.zeros(2048, dtype=np.int64)
        result = engine.program_page(targets, IsppAlgorithm.SV)
        assert result.pulses == 0
        assert np.all(np.abs(result.deltas) < 1e-12)

    def test_levels_ordered(self, engine, rng):
        targets = random_targets(rng)
        result = engine.program_page(targets, IsppAlgorithm.SV)
        means = [result.vth[targets == lv].mean() for lv in range(4)]
        assert means[0] < means[1] < means[2] < means[3]

    def test_dv_compacts_distributions(self, rng):
        engine = IsppEngine(rng=np.random.default_rng(11))
        targets = np.full(8192, 2)
        sv = engine.program_page(targets, IsppAlgorithm.SV)
        dv = engine.program_page(targets, IsppAlgorithm.DV)
        assert dv.vth.std() < sv.vth.std()

    def test_dv_centres_match_sv(self, rng):
        engine = IsppEngine(rng=np.random.default_rng(12))
        targets = np.full(8192, 2)
        sv = engine.program_page(targets, IsppAlgorithm.SV).vth.mean()
        dv = engine.program_page(targets, IsppAlgorithm.DV).vth.mean()
        assert dv == pytest.approx(sv, abs=0.05)

    def test_dv_needs_more_pulses_and_verifies(self, engine, rng):
        targets = random_targets(rng)
        sv = engine.program_page(targets, IsppAlgorithm.SV)
        dv = engine.program_page(targets, IsppAlgorithm.DV)
        assert dv.pulses >= sv.pulses
        assert dv.preverify_ops > 0
        assert sv.preverify_ops == 0
        assert dv.verify_ops + dv.preverify_ops > 1.8 * sv.verify_ops

    def test_activity_traces_consistent(self, engine, rng):
        targets = random_targets(rng)
        result = engine.program_page(targets, IsppAlgorithm.DV)
        assert len(result.pulse_vpp) == result.pulses
        assert len(result.active_cells_per_pulse) == result.pulses
        assert result.verify_ops == int(result.verifies_per_pulse.sum())
        assert result.preverify_ops == int(result.preverifies_per_pulse.sum())
        # Active population shrinks monotonically.
        assert np.all(np.diff(result.active_cells_per_pulse) <= 0)

    def test_aging_speeds_up_programming(self, rng):
        engine = IsppEngine(rng=np.random.default_rng(13))
        targets = np.full(8192, 3)
        fresh = engine.program_page(targets, IsppAlgorithm.SV, pe_cycles=0)
        aged = engine.program_page(targets, IsppAlgorithm.SV, pe_cycles=1e5)
        assert aged.pulses <= fresh.pulses

    def test_invalid_targets(self, engine):
        with pytest.raises(NandOperationError):
            engine.program_page(np.array([4]), IsppAlgorithm.SV)
        with pytest.raises(NandOperationError):
            engine.program_page(np.array([]), IsppAlgorithm.SV)
        with pytest.raises(NandOperationError):
            engine.program_page(np.zeros((2, 2), dtype=int), IsppAlgorithm.SV)

    def test_read_noise_scales_with_age(self, engine):
        fresh = engine.read_noise(100_000, 0.0).std()
        aged = engine.read_noise(100_000, 1e5).std()
        assert aged > fresh
