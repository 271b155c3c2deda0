"""Experiment registry tests — every figure runner produces sound output."""

import hashlib

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSuite

GRID = np.logspace(0, 5, 5)

#: sha256 of ``run_uber_mc()``'s table at its defaults (four stress
#: points, 96 pages each in chunks of 24, seed 2012).  It was recorded
#: while the chunks still fanned out over two worker processes; they run
#: inline now, and each chunk's own ``SeedSequence`` spawn kept it.
UBER_MC_TABLE_SHA256 = (
    "47a93b1e5a7b4c6b969f38f47bb63177d3642f101cc61cfd1ddc357757d064ee"
)


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(seed=777)


class TestFigureRunners:
    def test_fig03_levels_separated(self, suite):
        result = suite.run_fig03(n_cells=8192)
        stats = result.data["stats"]
        means = [s.mean for s in stats]
        assert means == sorted(means)
        assert "L0" in result.table

    def test_fig04_fit_quality(self, suite):
        result = suite.run_fig04()
        assert result.data["fit"].rmse < 0.1
        assert "RMSE" in result.table

    def test_fig05_order_of_magnitude_gap(self, suite):
        result = suite.run_fig05(mc_points=(1e4,), mc_cells=8192)
        sv, dv = result.data["sv"], result.data["dv"]
        assert np.allclose(sv / dv, 12.5)
        assert result.chart is not None

    def test_fig06_power_band_and_delta(self, suite):
        result = suite.run_fig06(grid=np.logspace(0, 5, 3), n_cells=4096)
        series = result.data["series"]
        for label, values in series.columns.items():
            assert np.all((values > 0.12) & (values < 0.20)), label
        sv = np.mean([series.columns[f"ispp-sv-L{l}"] for l in (1, 2, 3)])
        dv = np.mean([series.columns[f"ispp-dv-L{l}"] for l in (1, 2, 3)])
        assert 3e-3 < dv - sv < 13e-3

    def test_fig07_paper_ts(self, suite):
        result = suite.run_fig07()
        assert result.data["t_min"] == 3
        assert result.data["t_sv_max"] == 65
        assert result.data["t_dv_max"] == 14

    def test_fig08_latency_divergence(self, suite):
        result = suite.run_fig08(GRID)
        sv_dec = result.data["sv_decode_s"]
        dv_dec = result.data["dv_decode_s"]
        assert sv_dec[-1] > 1.4 * dv_dec[-1]

    def test_fig09_band(self, suite):
        result = suite.run_fig09(GRID)
        losses = result.data["losses"]
        assert losses.min() > 30 and losses.max() < 55

    def test_fig10_gap(self, suite):
        result = suite.run_fig10(GRID)
        gap = result.data["nominal"] - result.data["improved"]
        assert np.all(gap > 5)

    def test_fig11_gain(self, suite):
        result = suite.run_fig11(GRID)
        gains = result.data["gains"]
        assert gains[-1] == pytest.approx(31, abs=5)


class TestAblations:
    def test_blocksize_small_blocks_overflow(self, suite):
        result = suite.run_ablation_blocksize()
        rows = {row[0]: row for row in result.data["rows"]}
        assert rows[4096][4] == "yes"
        assert rows[512][3] > rows[4096][3]  # more parity per page

    def test_chien_budget_monotone(self, suite):
        result = suite.run_ablation_chien()
        rows = result.data["rows"]
        # With h_max fixed at 8, a larger budget never slows decode at t=65.
        h8 = [r for r in rows if r[1] == 8]
        decodes = [r[4] for r in sorted(h8, key=lambda r: r[0])]
        assert decodes == sorted(decodes, reverse=True)

    def test_tworound_mitigation(self, suite):
        result = suite.run_ablation_tworound(np.logspace(0, 5, 3))
        for _, serial_wt, pipelined_wt, recovered in result.data["rows"]:
            assert pipelined_wt >= serial_wt
            assert recovered >= 0

    def test_retention_past_t_max_renders_overflow_cell(self, suite):
        result = suite.run_ablation_retention(
            pe_points=(1e3, 1e5), retention_hours=(0.0, 2e4), n_cells=2048,
        )
        rows = {(row[0], row[1]): row for row in result.data["rows"]}
        fresh, worn = rows[(1e3, 0.0)], rows[(1e5, 2e4)]
        assert fresh[3].isdigit() and fresh[5].isdigit()
        assert worn[3] == worn[5] == ">65"  # CodeDesignError from required_t

    def test_retention_propagates_other_faults(self, suite, monkeypatch):
        def broken(rber):
            raise ValueError("not a code-design limit")

        monkeypatch.setattr(suite.policy, "required_t", broken)
        with pytest.raises(ValueError, match="not a code-design limit"):
            suite.run_ablation_retention(
                pe_points=(1e3,), retention_hours=(0.0,), n_cells=1024,
            )

    def test_pareto_includes_dv(self, suite):
        result = suite.run_ablation_pareto(ages=(1e5,))
        front = result.data[1e5]
        assert any(p.algorithm.value == "ispp-dv" for p in front)

    def test_partition_slc_halves_capacity(self, suite):
        result = suite.run_ablation_partition(ages=(1e5,))
        rows = {row[1]: row for row in result.data["rows"]}
        slc, sv = rows["static slc"], rows["static mlc-sv"]
        # Static SLC buys a lower RBER and t with half the capacity.
        assert slc[2] == sv[2] / 2
        assert slc[3] < sv[3] and slc[4] < sv[4]
        # The runtime modes reach the static MLC points at full capacity.
        assert rows["runtime baseline"][2:] == sv[2:]
        assert rows["runtime max-read-throughput"][2:] == (
            rows["static mlc-dv"][2:]
        )


class TestUberMonteCarlo:
    def test_in_process_sweep_tracks_exact_tail(self, suite):
        result = suite.run_uber_mc(pages=8, chunk_pages=8)
        rows = result.data["rows"]
        assert [row[0] for row in rows] == [3, 14, 14, 65]
        for _, _, pages, _, failed, rate, exact in rows:
            assert pages == 8
            assert rate == failed / pages
            assert 0.0 < exact < 1.0
            # Eight pages: the rate's binomial sd is at most about 0.18.
            assert abs(rate - exact) < 0.5

    def test_default_sweep_table_is_pinned(self, suite):
        table = suite.run_uber_mc().table
        assert hashlib.sha256(table.encode()).hexdigest() == (
            UBER_MC_TABLE_SHA256
        )

    def test_render_produces_report(self, suite):
        result = suite.run_fig07()
        text = result.render()
        assert "fig07" in text and "notes" in text
