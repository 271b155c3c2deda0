"""NAND timing model tests."""

import numpy as np
import pytest

from repro.nand.ispp import IsppAlgorithm, IsppEngine
from repro.nand.timing import NandTimingModel
from repro.params import NandTimingParams


@pytest.fixture()
def sv_result(rng):
    engine = IsppEngine(rng=rng)
    return engine.program_page(rng.integers(0, 4, 8192), IsppAlgorithm.SV)


class TestTimingModel:
    def test_program_decomposition(self, sv_result):
        model = NandTimingModel()
        timing = model.program_timing(sv_result)
        p = model.params
        assert timing.pulse_time_s == pytest.approx(
            sv_result.pulses * (p.t_pulse_setup + p.t_program_pulse)
        )
        assert timing.verify_time_s == pytest.approx(
            sv_result.verify_ops * p.t_verify
        )
        assert timing.total_s == pytest.approx(
            timing.pulse_time_s + timing.verify_time_s + timing.overhead_s
        )

    def test_sv_program_time_in_expected_band(self, sv_result):
        timing = NandTimingModel().program_timing(sv_result)
        # Calibrated ISPP-SV program time: several hundred microseconds.
        assert 0.4e-3 < timing.total_s < 1.2e-3

    def test_dv_program_time_near_paper_value(self, rng):
        engine = IsppEngine(rng=rng)
        result = engine.program_page(rng.integers(0, 4, 8192), IsppAlgorithm.DV)
        timing = NandTimingModel().program_timing(result)
        # Paper quotes ~1.5 ms for the ISPP-DV program.
        assert 1.0e-3 < timing.total_s < 1.8e-3

    def test_preverify_charged_separately(self, rng):
        engine = IsppEngine(rng=rng)
        result = engine.program_page(rng.integers(0, 4, 4096), IsppAlgorithm.DV)
        params = NandTimingParams()
        timing = NandTimingModel(params).program_timing(result)
        expected = (
            result.verify_ops * params.t_verify
            + result.preverify_ops * params.t_preverify
        )
        assert timing.verify_time_s == pytest.approx(expected)

    def test_read_and_erase_times(self):
        model = NandTimingModel()
        assert model.read_time_s() == pytest.approx(75e-6)
        assert model.erase_time_s() == pytest.approx(2.5e-3)

    def test_invalid_params(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            NandTimingParams(t_verify=0)


class TestCommandPhases:
    def test_read_phase_decomposition(self):
        from repro.nand.timing import PhaseResource

        phases = NandTimingModel.read_phases(
            75e-6, 10e-6, 160e-6, decode_hold_s=106e-6
        )
        assert [p.resource for p in phases] == [
            PhaseResource.PLANE, PhaseResource.CHANNEL, PhaseResource.ECC,
        ]
        assert phases[0].duration_s == pytest.approx(75e-6)
        assert phases[2].occupancy_s == pytest.approx(106e-6)
        # Hold is clamped to the duration.
        clamped = NandTimingModel.read_phases(
            75e-6, 10e-6, 50e-6, decode_hold_s=106e-6
        )
        assert clamped[2].occupancy_s == pytest.approx(50e-6)

    def test_raw_read_drops_the_ecc_phase(self):
        from repro.nand.timing import PhaseResource

        phases = NandTimingModel.read_phases(75e-6, 10e-6)
        assert [p.resource for p in phases] == [
            PhaseResource.PLANE, PhaseResource.CHANNEL,
        ]

    def test_program_phase_decomposition(self):
        from repro.nand.timing import PhaseResource

        phases = NandTimingModel.program_phases(
            600e-6, 10e-6, 52e-6, encode_hold_s=51e-6
        )
        assert [p.resource for p in phases] == [
            PhaseResource.ECC, PhaseResource.CHANNEL, PhaseResource.PLANE,
        ]
        assert phases[0].occupancy_s == pytest.approx(51e-6)

    def test_erase_phase_and_cache_busy(self):
        from repro.nand.timing import PhaseResource

        (phase,) = NandTimingModel.erase_phases(2.5e-3)
        assert phase.resource is PhaseResource.PLANE
        assert NandTimingModel().cache_busy_s() == pytest.approx(3e-6)

    def test_invalid_phase_rejected(self):
        from repro.errors import SimulationError
        from repro.nand.timing import CommandPhase, PhaseResource

        with pytest.raises(SimulationError):
            CommandPhase(PhaseResource.PLANE, -1.0)
        with pytest.raises(SimulationError):
            CommandPhase(PhaseResource.ECC, 1e-6, hold_s=2e-6)

    def test_nan_phase_rejected(self):
        from repro.errors import SimulationError
        from repro.nand.timing import CommandPhase, PhaseResource

        with pytest.raises(SimulationError):
            CommandPhase(PhaseResource.PLANE, float("nan"))
        with pytest.raises(SimulationError):
            CommandPhase(PhaseResource.ECC, 1e-6, hold_s=float("nan"))
