"""The paper's headline numbers, asserted in one place.

Every quantitative claim of the abstract/evaluation that the reproduction
targets is pinned here, so this file is their one list (the lifetime
curve's end-of-life anchor is ``repro.nand.rber.EOL_RBER_SV``); if a
refactor moves any of these, this file is the tripwire.
"""

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSuite

GRID = np.logspace(0, 5, 7)


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(seed=20120316)


class TestHeadlineClaims:
    def test_adaptive_ecc_range_3_to_65(self, suite):
        """'a BCH codec architecture ... with correction capability in the
        range t = 3..65' (section 6.2)."""
        fig07 = suite.run_fig07()
        assert fig07.data["t_min"] == 3
        assert fig07.data["t_sv_max"] == 65
        assert fig07.data["t_dv_max"] == 14

    def test_rber_improvement_one_order_of_magnitude(self, suite):
        """'improve RBER figures up to one order of magnitude' (Fig. 5)."""
        model = suite.rber_model
        for n in (0, 1e3, 1e5):
            ratio = model.rber_sv(n) / model.rber_dv(n)
            assert 10 <= ratio <= 15

    def test_power_shift_about_7mw(self, suite):
        """'A shift of just 7.5 mW between the two algorithms' (Fig. 6)."""
        result = suite.run_fig06(grid=np.logspace(0, 5, 3), n_cells=8192)
        delta_match = [
            w for w in result.notes.split() if w.startswith(("+", "-"))
        ]
        series = result.data["series"]
        sv = np.mean([series.columns[f"ispp-sv-L{l}"] for l in (1, 2, 3)])
        dv = np.mean([series.columns[f"ispp-dv-L{l}"] for l in (1, 2, 3)])
        assert (dv - sv) * 1e3 == pytest.approx(7.5, abs=3.0)

    def test_decode_dominates_page_read(self, suite):
        """'page read ... 75 us against the 150 us of the decoding
        operation' (section 6.3.2)."""
        point = suite.analyzer.point(
            __import__("repro.core.modes", fromlist=["OperatingMode"]).OperatingMode.BASELINE,
            1e5,
        )
        assert point.read_array_s == pytest.approx(75e-6)
        assert point.decode_s > 1.5e-4  # >150 us at end of life

    def test_read_gain_up_to_30_percent(self, suite):
        """'improve the memory read throughput of up to 30% at the end of
        memory lifetime' (Fig. 11)."""
        result = suite.run_fig11(GRID)
        gains = result.data["gains"]
        assert gains[-1] == pytest.approx(31, abs=5)
        assert np.max(gains) == gains[-1]

    def test_write_loss_about_40_percent(self, suite):
        """'the write throughput loss ... on average amounts to 40%'
        (Fig. 9)."""
        result = suite.run_fig09(GRID)
        losses = result.data["losses"]
        assert np.mean(losses) == pytest.approx(44, abs=6)
        assert losses.min() > 30 and losses.max() < 55

    def test_uber_improvement_without_read_penalty(self, suite):
        """Section 6.3.1: min-UBER mode boosts UBER at identical decode
        latency (same t, same decoding time)."""
        from repro.core.modes import OperatingMode

        for age in (0.0, 1e4, 1e5):
            base = suite.analyzer.point(OperatingMode.BASELINE, age)
            boost = suite.analyzer.point(OperatingMode.MIN_UBER, age)
            assert boost.decode_s == base.decode_s        # no read penalty
            assert boost.log10_uber < base.log10_uber - 5  # UBER boost
            assert boost.program_s > base.program_s        # write price

    def test_constant_uber_in_max_read_mode(self, suite):
        """Section 6.3.2: relaxed ECC still meets UBER = 1e-11."""
        from repro.core.modes import OperatingMode

        for age in (0.0, 1e4, 1e5):
            point = suite.analyzer.point(OperatingMode.MAX_READ_THROUGHPUT, age)
            assert point.log10_uber <= -11

    def test_ecc_power_relaxation_7mw_to_1mw(self, suite):
        """'the power consumption of the ECC can be reduced ... from 7 mW
        to 1 mW' (section 6.3.2)."""
        from repro.core.pareto import ecc_power_w

        assert ecc_power_w(65) * 1e3 == pytest.approx(7.0, abs=0.5)
        assert ecc_power_w(3) * 1e3 == pytest.approx(1.3, abs=0.5)

    def test_dv_program_time_about_1_5_ms(self, suite):
        """'1.5 ms against the ECC encoder latency' (section 6.3.3)."""
        from repro.nand.ispp import IsppAlgorithm

        program_s = suite.analyzer.program_time_s(IsppAlgorithm.DV, 0.0)
        assert 1.0e-3 < program_s < 1.8e-3
        encode_s = suite.analyzer.latency_model.encode_latency_s(
            suite.analyzer.spec(14)
        )
        # "about two orders of magnitude lower" -- within a factor ~30x.
        assert program_s / encode_s > 20

    def test_parity_fits_spare_area(self, suite):
        """Section 6.2's 4 KiB-block design keeps parity within the spare."""
        from repro.controller.spare import SpareAreaLayout

        spare = SpareAreaLayout()
        assert spare.fits(suite.analyzer.spec(65).parity_bytes)
