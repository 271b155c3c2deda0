"""Experiment registry: one runner per paper figure plus ablations.

Each ``run_figNN`` regenerates the corresponding figure's data — same axes,
same sweep, same configurations — and returns an :class:`ExperimentResult`
with a printable table/chart and the raw arrays.  The CLI
(``python -m repro run``) and the benchmark harness (`benchmarks/`) both
consume this module, so the reproduction has a single source of truth.

Fast defaults keep a full-suite run to tens of seconds; every runner takes
explicit grids/sizes for higher fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import params as canon
from repro.analysis.ascii_plot import ascii_chart, format_table
from repro.analysis.series import LifetimeSeries
from repro.bch.codec import AdaptiveBCHCodec
from repro.bch.hardware import EccLatencyModel
from repro.bch.params import design_code
from repro.bch.uber import log10_uber_eq1
from repro.controller.spare import SpareAreaLayout
from repro.controller.controller import NandController
from repro.core.modes import OperatingMode
from repro.core.pareto import enumerate_operating_points, pareto_front
from repro.core.policy import CrossLayerPolicy
from repro.core.tradeoff import TradeoffAnalyzer
from repro.errors import CodeDesignError
from repro.hv.subsystem import HighVoltageSubsystem
from repro.nand.distributions import distribution_report, level_statistics
from repro.nand.ispp import IsppAlgorithm
from repro.nand.program import PageProgrammer
from repro.nand.rber import LifetimeRberModel, MonteCarloRber
from repro.params import EccHardwareParams
from repro.sim.host import HostWorkload, run_host_workload
from repro.sim.stats import LatencyStats
from repro.workloads.traces import (
    mixed_trace,
    multimedia_playback_trace,
    os_upgrade_trace,
)


@dataclass
class ExperimentResult:
    """Output of one experiment runner."""

    exp_id: str
    title: str
    table: str
    data: dict = field(default_factory=dict)
    chart: str | None = None
    notes: str = ""

    def render(self) -> str:
        """Full printable report."""
        parts = [f"== {self.exp_id}: {self.title} ==", self.table]
        if self.chart:
            parts.append(self.chart)
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n\n".join(parts)


class ExperimentSuite:
    """Shared models + all figure runners.

    Building the suite loads scipy (``scipy.optimize`` for the Fig. 4
    fit, ``scipy.special`` in :class:`MonteCarloRber`), so a runner
    imports nothing while it runs and importing this module loads none.
    """

    def __init__(self, seed: int = 2012):
        from repro.analysis.fitting import fit_cell_model

        self._fit_cell_model = fit_cell_model
        self.rng = np.random.default_rng(seed)
        self.rber_model = LifetimeRberModel()
        self.policy = CrossLayerPolicy(rber_model=self.rber_model)
        self.programmer = PageProgrammer(rng=self.rng)
        self.analyzer = TradeoffAnalyzer(
            policy=self.policy, programmer=self.programmer
        )
        self.hv = HighVoltageSubsystem()
        self.mc = MonteCarloRber(self.programmer)
        # Shared batch codec for the Monte-Carlo ECC cross-checks: code
        # designs, encoder tables and syndrome power tables are cached
        # across figure runners.
        self.codec = AdaptiveBCHCodec(
            k=self.policy.k, t_max=self.policy.t_max, t_min=self.policy.t_min
        )

    # -- batched Monte-Carlo ECC helper ---------------------------------------

    def ecc_mc_batch(self, rber: float, t: int, pages: int) -> dict:
        """Push one batch of pages through the real codec at the given RBER.

        Random pages are encoded with ``encode_batch``, stored in a
        scratch :class:`~repro.nand.array.NandArray` and read back through
        its batched error-injection kernel at ``rber``, then decoded with
        ``decode_batch`` (permissive) — one Monte-Carlo UBER sample batch
        through the same storage substrate the system simulation uses.
        Returns summary statistics.
        """
        from repro.nand.array import NandArray
        from repro.nand.geometry import NandGeometry

        spec = self.codec.spec_for(t)
        messages = [self.rng.bytes(spec.k // 8) for _ in range(pages)]
        codewords = self.codec.encode_batch(messages, t=t)
        word_bytes = len(codewords[0])
        scratch = NandArray(
            NandGeometry(
                blocks=1, pages_per_block=pages,
                page_data_bytes=word_bytes, page_spare_bytes=0,
            ),
            self.rng,
        )
        flats = np.arange(pages)
        scratch.program_pages(flats, codewords)
        raw = scratch.read_pages(flats, np.full(pages, rber))
        reference = np.frombuffer(
            b"".join(codewords), dtype=np.uint8
        ).reshape(pages, word_bytes)
        injected = np.unpackbits(raw ^ reference, axis=1).sum(axis=1)
        corrupted = [row.tobytes() for row in raw]
        results = self.codec.decode_batch(corrupted, t=t, strict=False)
        recovered = sum(
            1
            for message, result in zip(messages, results)
            if result.success and result.data == message
        )
        return {
            "rber": rber,
            "t": t,
            "pages": pages,
            "mean_injected": float(injected.mean()) if injected.size else 0.0,
            "mean_corrected": float(
                np.mean([r.corrected_bits for r in results])
            ),
            "clean_fraction": sum(r.early_exit for r in results) / pages,
            "failures": sum(not r.success for r in results),
            "recovered": recovered,
        }

    # -- default sweep axes ---------------------------------------------------

    def lifetime_grid(self, points: int = 11) -> np.ndarray:
        """1..1e5 P/E cycles, log-spaced (Figs. 6, 8-11 x-axis)."""
        return np.logspace(0, 5, points)

    def extended_grid(self, points: int = 9) -> np.ndarray:
        """1e2..1e6 P/E cycles (Fig. 5 x-axis)."""
        return np.logspace(2, 6, points)

    # -- Fig. 3: threshold-voltage distributions --------------------------------

    def run_fig03(self, n_cells: int = 16384) -> ExperimentResult:
        """L0-L3 VTH distributions with read/verify levels marked."""
        outcome = self.programmer.program_random_page(
            n_cells, IsppAlgorithm.SV, pe_cycles=0.0
        )
        vth_read = self.programmer.read_vth(outcome)
        table = distribution_report(outcome.levels, vth_read, self.programmer.levels)
        stats = level_statistics(outcome.levels, vth_read)
        return ExperimentResult(
            exp_id="fig03",
            title="MLC threshold-voltage distributions (ISPP-SV, fresh device)",
            table=table,
            data={"stats": stats},
            notes=(
                "four well-separated levels; read levels R1-R3 sit in the "
                "gaps and verify levels at the lower edges, as in Fig. 3"
            ),
        )

    # -- Fig. 4: compact model fit ------------------------------------------------

    def run_fig04(self) -> ExperimentResult:
        """Compact-model fit of the experimental ISPP staircase."""
        fit = self._fit_cell_model()
        rows = [
            [float(v), float(e), float(p), float(p - e)]
            for v, e, p in zip(fit.dataset.vcg, fit.dataset.vth, fit.predicted)
        ]
        table = format_table(
            ["VCG [V]", "experimental VTH [V]", "simulated VTH [V]", "error [V]"],
            rows,
        )
        summary = (
            f"fitted onset={fit.params.onset:.2f} V, "
            f"softness={fit.params.softness:.2f} V, "
            f"VTH0={fit.params.vth_initial:.2f} V | "
            f"RMSE={fit.rmse * 1e3:.1f} mV, max |err|={fit.max_abs_error * 1e3:.1f} mV"
        )
        return ExperimentResult(
            exp_id="fig04",
            title="Compact-model fit, VTH vs VCG during ISPP (7 us, 1 V step)",
            table=table + "\n" + summary,
            data={"fit": fit},
            notes="paper reports visual overlay; we quantify the fit error",
        )

    # -- Fig. 5: RBER over lifetime --------------------------------------------------

    def run_fig05(
        self,
        grid: np.ndarray | None = None,
        mc_points: tuple[float, ...] = (1e2, 1e4, 1e5),
        mc_cells: int = 16384,
    ) -> ExperimentResult:
        """RBER vs P/E cycles for ISPP-SV and ISPP-DV, canonical + MC."""
        grid = self.extended_grid() if grid is None else grid
        sv = np.array([self.rber_model.rber_sv(n) for n in grid])
        dv = np.array([self.rber_model.rber_dv(n) for n in grid])
        series = LifetimeSeries("fig05", "pe_cycles", grid)
        series.add("rber_sv", sv).add("rber_dv", dv)
        mc_rows = []
        for n in mc_points:
            mc_sv = self.mc.estimate(n, IsppAlgorithm.SV, mc_cells).rber
            mc_dv = self.mc.estimate(n, IsppAlgorithm.DV, mc_cells).rber
            mc_rows.append([
                float(n), mc_sv, self.rber_model.rber_sv(n),
                mc_dv, self.rber_model.rber_dv(n),
            ])
        mc_table = format_table(
            ["pe_cycles", "MC rber_sv", "model rber_sv", "MC rber_dv",
             "model rber_dv"],
            mc_rows,
        )
        chart = ascii_chart(
            grid, {"SV": sv, "DV": dv}, logx=True, logy=True,
            x_label="P/E cycles", y_label="RBER",
        )
        gap = float(np.mean(sv / dv))
        return ExperimentResult(
            exp_id="fig05",
            title="RBER characterisation, ISPP-SV vs ISPP-DV",
            table=series.to_table() + "\n\nMonte-Carlo cross-check:\n" + mc_table,
            chart=chart,
            data={"grid": grid, "sv": sv, "dv": dv, "mc_rows": mc_rows},
            notes=(
                f"ISPP-DV improves RBER by {gap:.1f}x across the lifetime "
                "(paper: about one order of magnitude)"
            ),
        )

    # -- Fig. 6: program power --------------------------------------------------------

    def run_fig06(
        self,
        grid: np.ndarray | None = None,
        n_cells: int = 8192,
    ) -> ExperimentResult:
        """Program power vs P/E cycles for {SV, DV} x {L1, L2, L3}."""
        grid = self.lifetime_grid(6) if grid is None else grid
        series = LifetimeSeries("fig06", "pe_cycles", grid)
        columns: dict[str, list[float]] = {}
        for algorithm in IsppAlgorithm:
            for level in (1, 2, 3):
                label = f"{algorithm.value}-L{level}"
                powers = []
                for n in grid:
                    targets = self.programmer.uniform_pattern_levels(level, n_cells)
                    outcome = self.programmer.program_levels(
                        targets, algorithm, float(n)
                    )
                    powers.append(self.hv.program_power(outcome.ispp).average_power_w)
                columns[label] = powers
                series.add(label, np.asarray(powers))
        sv_mean = np.mean([columns[f"ispp-sv-L{l}"] for l in (1, 2, 3)])
        dv_mean = np.mean([columns[f"ispp-dv-L{l}"] for l in (1, 2, 3)])
        delta_mw = (dv_mean - sv_mean) * 1e3
        return ExperimentResult(
            exp_id="fig06",
            title="Program power, ISPP-SV vs ISPP-DV, L1/L2/L3 patterns",
            table=series.to_table(),
            data={"series": series},
            notes=(
                f"DV-SV average power shift = {delta_mw:+.1f} mW "
                "(paper: ~7.5 mW); pattern ordering L1 < L2 < L3 holds"
            ),
        )

    # -- Fig. 7 (+ the mislabelled 'Fig. ??'): UBER vs RBER -----------------------------

    def run_fig07(self, mc_pages: int = 12) -> ExperimentResult:
        """UBER vs RBER for the paper's correction capabilities.

        Besides the analytic Eq. (1) sweep, one batch of real pages is
        pushed through the codec at the two end-of-life operating points
        (``mc_pages`` pages each, encoded/decoded through the batched
        datapath) as a Monte-Carlo sanity check of the correction claim.
        """
        k, m = self.policy.k, self.policy.m
        sv_checkpoints = [2.5e-6, 5e-6, 1e-5, 2.75e-4, 3.35e-4, 1e-3]
        dv_checkpoints = [8e-7, 1e-6, 2.5e-6, 2.75e-5, 5e-5, 8e-5]
        rows = []
        for label, checkpoints in (("ISPP-SV", sv_checkpoints),
                                   ("ISPP-DV", dv_checkpoints)):
            for rber in checkpoints:
                t = self.policy.required_t(rber)
                n = k + m * t
                rows.append([label, rber, t, log10_uber_eq1(rber, n, t)])
        table = format_table(
            ["algorithm range", "RBER", "required t", "log10 UBER at t"], rows
        )
        t_sv_max = self.policy.required_t(
            self.rber_model.rber_sv(canon.RATED_PE_CYCLES)
        )
        t_dv_max = self.policy.required_t(
            self.rber_model.rber_dv(canon.RATED_PE_CYCLES)
        )
        t_min = self.policy.required_t(self.rber_model.rber_dv(0.0))
        mc_rows = []
        if mc_pages > 0:
            for label, rber, t in (
                ("ISPP-SV EOL", sv_checkpoints[-1], t_sv_max),
                ("ISPP-DV EOL", dv_checkpoints[-1], t_dv_max),
            ):
                mc = self.ecc_mc_batch(rber, t, mc_pages)
                mc_rows.append([
                    label, rber, t, mc["pages"], mc["mean_injected"],
                    mc["mean_corrected"], mc["failures"], mc["recovered"],
                ])
            table += "\n\nMonte-Carlo decode batch (real codec):\n" + format_table(
                ["operating point", "RBER", "t", "pages", "mean injected",
                 "mean corrected", "failures", "recovered"],
                mc_rows,
            )
        notes = (
            f"tMIN={t_min} (paper: 3), tMAX ISPP-SV={t_sv_max} (paper: 65), "
            f"tMAX ISPP-DV={t_dv_max} (paper: 14)"
        )
        if mc_rows:
            if all(row[6] == 0 and row[7] == row[3] for row in mc_rows):
                notes += "; MC batch decodes at both EOL points recover every page"
            else:
                notes += "; MC batch decode saw failures — see the MC table"
        return ExperimentResult(
            exp_id="fig07",
            title="UBER-RBER relation of the adaptive BCH (target 1e-11)",
            table=table,
            data={
                "t_sv_max": t_sv_max, "t_dv_max": t_dv_max, "t_min": t_min,
                "mc_rows": mc_rows,
            },
            notes=notes,
        )

    # -- Fig. 8: ECC latency over lifetime --------------------------------------------

    def run_fig08(self, grid: np.ndarray | None = None) -> ExperimentResult:
        """Encode/decode latency under the constant-UBER policy."""
        grid = self.lifetime_grid() if grid is None else grid
        data = self.analyzer.latency_series(grid)
        series = LifetimeSeries("fig08", "pe_cycles", grid)
        for key in ("sv_encode_s", "dv_encode_s", "sv_decode_s", "dv_decode_s"):
            series.add(key.replace("_s", "_us"), data[key] * 1e6)
        chart = ascii_chart(
            grid,
            {
                "SV dec": data["sv_decode_s"] * 1e6,
                "DV dec": data["dv_decode_s"] * 1e6,
                "SV enc": data["sv_encode_s"] * 1e6,
                "DV enc": data["dv_encode_s"] * 1e6,
            },
            logx=True, x_label="P/E cycles", y_label="latency [us]",
        )
        return ExperimentResult(
            exp_id="fig08",
            title="ECC encode/decode latency at 80 MHz, constant UBER 1e-11",
            table=series.to_table(),
            chart=chart,
            data={"grid": grid, **data},
            notes=(
                "SV decoding grows with the reconfigured t (up to "
                f"{float(data['sv_decode_s'][-1] * 1e6):.0f} us); DV stays near "
                f"{float(data['dv_decode_s'][-1] * 1e6):.0f} us — paper shows the "
                "same divergence with ~160 us worst case"
            ),
        )

    # -- Fig. 9: write-throughput loss ---------------------------------------------------

    def run_fig09(self, grid: np.ndarray | None = None) -> ExperimentResult:
        """Write-throughput penalty of the cross-layer (DV) configuration."""
        grid = self.lifetime_grid() if grid is None else grid
        grid, losses = self.analyzer.write_loss_series(grid)
        series = LifetimeSeries("fig09", "pe_cycles", grid)
        series.add("write_loss_percent", losses)
        chart = ascii_chart(
            grid, {"loss%": losses}, logx=True,
            x_label="P/E cycles", y_label="write loss [%]",
        )
        return ExperimentResult(
            exp_id="fig09",
            title="Write-throughput loss vs baseline (ISPP-DV switch)",
            table=series.to_table(),
            chart=chart,
            data={"grid": grid, "losses": losses},
            notes=(
                f"loss spans {losses.min():.1f}%..{losses.max():.1f}% "
                "(paper Fig. 9: ~40-48%)"
            ),
        )

    # -- Fig. 10: UBER improvement --------------------------------------------------------

    def run_fig10(
        self, grid: np.ndarray | None = None, mc_pages: int = 8
    ) -> ExperimentResult:
        """Nominal vs physical-layer-modified UBER (min-UBER mode).

        A Monte-Carlo batch at end of life feeds real pages through the
        codec at the nominal t for both RBER regimes: the drop in mean
        corrected bits per page is the observable face of the UBER gain.
        """
        grid = self.lifetime_grid() if grid is None else grid
        grid, nominal, improved = self.analyzer.uber_series(grid)
        series = LifetimeSeries("fig10", "pe_cycles", grid)
        series.add("log10_uber_nominal", nominal)
        series.add("log10_uber_min_uber_mode", improved)
        series.add("improvement_orders", nominal - improved)
        chart = ascii_chart(
            grid,
            {"nominal": nominal, "min-UBER": improved},
            logx=True, x_label="P/E cycles", y_label="log10 UBER",
        )
        mc = {}
        table = series.to_table()
        if mc_pages > 0:
            age = float(grid[-1])
            t_nom = self.policy.required_t_for(IsppAlgorithm.SV, age)
            mc_sv = self.ecc_mc_batch(self.rber_model.rber_sv(age), t_nom, mc_pages)
            mc_dv = self.ecc_mc_batch(self.rber_model.rber_dv(age), t_nom, mc_pages)
            mc = {"mc_sv": mc_sv, "mc_dv": mc_dv}
            table += "\n\n" + format_table(
                ["EOL regime", "RBER", "t", "mean corrected bits/page",
                 "failures"],
                [["nominal (SV)", mc_sv["rber"], t_nom,
                  mc_sv["mean_corrected"], mc_sv["failures"]],
                 ["min-UBER (DV)", mc_dv["rber"], t_nom,
                  mc_dv["mean_corrected"], mc_dv["failures"]]],
            )
        return ExperimentResult(
            exp_id="fig10",
            title="UBER improvement from the physical-layer switch (same ECC)",
            table=table,
            chart=chart,
            data={"grid": grid, "nominal": nominal, "improved": improved, **mc},
            notes=(
                "nominal holds just under the 1e-11 target; switching to "
                "ISPP-DV with unchanged t drops UBER by "
                f"{float((nominal - improved).min()):.0f}.."
                f"{float((nominal - improved).max()):.0f} orders of magnitude "
                "(paper text claims 2-4 orders; Eq. (1) with its own t "
                "schedule yields far more — see EXPERIMENTS.md)"
            ),
        )

    # -- Fig. 11: read-throughput gain ------------------------------------------------------

    def run_fig11(
        self, grid: np.ndarray | None = None, mc_pages: int = 8
    ) -> ExperimentResult:
        """Read-throughput gain of the max-read cross-layer mode.

        The Monte-Carlo batch quantifies where the gain comes from: pages
        programmed ISPP-DV carry far fewer raw errors, so the max-read
        mode decodes at a much smaller t (shorter Chien/BM datapath) and
        a measurable fraction of pages takes the all-zero-syndrome early
        exit.
        """
        grid = self.lifetime_grid() if grid is None else grid
        grid, gains = self.analyzer.read_gain_series(grid)
        series = LifetimeSeries("fig11", "pe_cycles", grid)
        series.add("read_gain_percent", gains)
        chart = ascii_chart(
            grid, {"gain%": gains}, logx=True,
            x_label="P/E cycles", y_label="read gain [%]",
        )
        mc = {}
        table = series.to_table()
        if mc_pages > 0:
            age = float(grid[-1])
            t_sv = self.policy.required_t_for(IsppAlgorithm.SV, age)
            t_dv = self.policy.required_t_for(IsppAlgorithm.DV, age)
            mc_sv = self.ecc_mc_batch(self.rber_model.rber_sv(age), t_sv, mc_pages)
            mc_dv = self.ecc_mc_batch(self.rber_model.rber_dv(age), t_dv, mc_pages)
            mc = {"mc_baseline": mc_sv, "mc_max_read": mc_dv}
            table += "\n\n" + format_table(
                ["EOL mode", "RBER", "t", "mean corrected bits/page",
                 "clean-page fraction"],
                [["baseline (SV)", mc_sv["rber"], t_sv,
                  mc_sv["mean_corrected"], mc_sv["clean_fraction"]],
                 ["max-read (DV)", mc_dv["rber"], t_dv,
                  mc_dv["mean_corrected"], mc_dv["clean_fraction"]]],
            )
        return ExperimentResult(
            exp_id="fig11",
            title="Read-throughput gain at constant UBER (max-read mode)",
            table=table,
            chart=chart,
            data={"grid": grid, "gains": gains, **mc},
            notes=(
                f"gain grows from {gains[0]:.1f}% to {gains[-1]:.1f}% at end "
                "of life (paper Fig. 11: up to ~30%)"
            ),
        )

    # -- ablations ----------------------------------------------------------------------

    def run_ablation_blocksize(self) -> ExperimentResult:
        """ECC block size vs parity overhead (section 2's Chen critique)."""
        spare = SpareAreaLayout()
        eol_rber = self.rber_model.rber_sv(canon.RATED_PE_CYCLES)
        latency = EccLatencyModel()
        rows = []
        for block_bytes in (512, 1024, 2048, 4096):
            k = block_bytes * 8
            blocks_per_page = 4096 // block_bytes
            policy = CrossLayerPolicy(k=k, t_max=200, rber_model=self.rber_model)
            t = policy.required_t(eol_rber)
            spec = design_code(k, t, policy.m)
            parity_page = spec.parity_bytes * blocks_per_page
            decode_page = latency.decode_latency_s(spec) * blocks_per_page
            rows.append([
                block_bytes, spec.m, t, parity_page,
                "yes" if spare.fits(parity_page) else "NO",
                decode_page * 1e6,
            ])
        table = format_table(
            ["ECC block [B]", "GF degree m", "required t", "parity/page [B]",
             "fits 224 B spare", "page decode [us]"],
            rows,
        )
        return ExperimentResult(
            exp_id="abl_blocksize",
            title="ECC block-size ablation at end-of-life RBER",
            table=table,
            data={"rows": rows},
            notes=(
                "small blocks need more parity bits per page and saturate "
                "the spare area — the paper's argument for 4 KiB blocks"
            ),
        )

    def run_ablation_chien(self) -> ExperimentResult:
        """Chien parallelism / multiplier-budget sweep (section 4)."""
        rows = []
        for budget in (65, 130, 260, 520):
            for h_max in (2, 4, 8):
                hw = EccHardwareParams(
                    chien_max_parallelism=h_max,
                    chien_multiplier_budget=max(budget, h_max),
                )
                latency = EccLatencyModel(hw)
                dec_sv = latency.decode_latency_s(self.analyzer.spec(65))
                dec_dv = latency.decode_latency_s(self.analyzer.spec(14))
                rows.append([
                    budget, h_max,
                    hw.chien_parallelism(65), hw.chien_parallelism(14),
                    dec_sv * 1e6, dec_dv * 1e6,
                    100.0 * ((canon.T_READ_ARRAY + dec_sv)
                             / (canon.T_READ_ARRAY + dec_dv) - 1.0),
                ])
        table = format_table(
            ["mult budget", "h_max", "h(t=65)", "h(t=14)",
             "decode t=65 [us]", "decode t=14 [us]", "EOL read gain [%]"],
            rows,
        )
        return ExperimentResult(
            exp_id="abl_chien",
            title="Chien-search parallelism ablation",
            table=table,
            data={"rows": rows},
            notes=(
                "the multiplier budget sets how much decode latency grows "
                "with t, and therefore the size of the Fig. 11 gain"
            ),
        )

    def run_ablation_tworound(self, grid: np.ndarray | None = None) -> ExperimentResult:
        """Two-round data-load mitigation of the write loss (section 6.3.3)."""
        grid = self.lifetime_grid(6) if grid is None else grid
        rows = []
        for n in grid:
            new = self.analyzer.point(OperatingMode.MAX_READ_THROUGHPUT, float(n))
            serial_wt = new.throughput.write_bytes_per_s / 1e6
            pipe = self.analyzer.throughput_model.pipelined_point(
                new.read_array_s, new.decode_s, new.encode_s, new.program_s
            )
            pipe_wt = pipe.write_bytes_per_s / 1e6
            rows.append([
                float(n), serial_wt, pipe_wt,
                100.0 * (pipe_wt / serial_wt - 1.0),
            ])
        table = format_table(
            ["pe_cycles", "DV write serial [MB/s]", "DV write two-round [MB/s]",
             "recovered [%]"],
            rows,
        )
        return ExperimentResult(
            exp_id="abl_tworound",
            title="Write-throughput mitigation by two-round (overlapped) data load",
            table=table,
            data={"rows": rows},
            notes=(
                "overlapping the data load + encode of the next page with "
                "the ISPP-DV program of the current one recovers part of "
                "the section 6.3.3 write penalty"
            ),
        )

    def run_ablation_pareto(
        self, ages: tuple[float, ...] = (1.0, 1e4, 1e5)
    ) -> ExperimentResult:
        """Cross-layer operating-point space and its Pareto front."""
        rows = []
        data = {}
        t_probe = sorted({3, 6, 10, 14, 20, 27, 33, 40, 53, 65})
        for age in ages:
            points = enumerate_operating_points(self.analyzer, age, t_probe)
            feasible = [
                p for p in points
                if p.log10_uber <= np.log10(self.policy.uber_target)
            ]
            front = pareto_front(feasible)
            dv_on_front = sum(
                1 for p in front if p.algorithm is IsppAlgorithm.DV
            )
            rows.append([
                age, len(points), len(feasible), len(front), dv_on_front,
            ])
            data[age] = front
        table = format_table(
            ["pe_cycles", "points", "UBER-feasible", "Pareto front",
             "ISPP-DV on front"],
            rows,
        )
        return ExperimentResult(
            exp_id="abl_pareto",
            title="Operating-point enumeration and Pareto analysis",
            table=table,
            data=data,
            notes=(
                "cross-layer (ISPP-DV) points populate the Pareto front "
                "wherever read throughput or UBER is prioritised — the "
                "'new trade-offs' of the title"
            ),
        )

    def run_ablation_partition(
        self, ages: tuple[float, ...] = (1.0, 1e4, 1e5)
    ) -> ExperimentResult:
        """Boot-time SLC/MLC partitioning vs runtime cross-layer (section 2).

        The related-work alternative ([20], [21]) buys reliability by
        *statically* dedicating SLC segments at boot, permanently halving
        their capacity; the cross-layer approach reaches comparable
        operating points at runtime with no capacity loss.
        """
        from repro.core.partition import CellMode, PartitionPlanner, PartitionSpec

        planner = PartitionPlanner(analyzer=self.analyzer)
        blocks = planner.geometry.blocks
        rows = []
        for age in ages:
            for mode in CellMode:
                m = planner.evaluate(PartitionSpec("seg", blocks, mode), age)
                rows.append([
                    age, f"static {mode.value}", m.capacity_bytes / 2**30,
                    m.rber, m.required_t if m.required_t is not None else ">65",
                    m.read_mb_s, m.write_mb_s,
                ])
            # Runtime cross-layer: full MLC capacity, mode per workload.
            for om in (OperatingMode.BASELINE, OperatingMode.MAX_READ_THROUGHPUT):
                p = self.analyzer.point(om, age)
                full_capacity = (
                    blocks * planner.geometry.pages_per_block
                    * planner.geometry.page_data_bytes / 2**30
                )
                rows.append([
                    age, f"runtime {om.value}", full_capacity,
                    p.rber, p.config.ecc_t, p.read_mb_s, p.write_mb_s,
                ])
        table = format_table(
            ["pe_cycles", "scheme", "capacity [GiB]", "RBER", "t",
             "read MB/s", "write MB/s"],
            rows,
        )
        return ExperimentResult(
            exp_id="abl_partition",
            title="Boot-time SLC/MLC partitioning vs runtime cross-layer",
            table=table,
            data={"rows": rows},
            notes=(
                "static SLC wins raw RBER but permanently halves capacity "
                "and fixes the choice at boot; the cross-layer modes retune "
                "per workload at runtime with full MLC density"
            ),
        )

    def run_ablation_retention(
        self,
        pe_points: tuple[float, ...] = (1e3, 1e4, 1e5),
        retention_hours: tuple[float, ...] = (0.0, 1e3, 5e3, 2e4),
        n_cells: int = 8192,
    ) -> ExperimentResult:
        """Data retention x cycling x program algorithm (section 1 [4]).

        Shows the cross-layer consequence of storage time: the ISPP-DV RBER
        headroom keeps the adaptive ECC inside its t range for roughly an
        order of magnitude more shelf time than ISPP-SV on a worn device.
        """
        rows = []
        for pe in pe_points:
            for hours in retention_hours:
                row = [pe, hours]
                for algorithm in IsppAlgorithm:
                    rber = self.mc.estimate(
                        pe, algorithm, n_cells, retention_h=hours
                    ).rber
                    try:
                        t = self.policy.required_t(rber)
                        t_text = str(t)
                    except CodeDesignError:
                        t_text = ">65"
                    row.extend([rber, t_text])
                rows.append(row)
        table = format_table(
            ["pe_cycles", "storage [h]", "RBER SV", "t(SV)", "RBER DV", "t(DV)"],
            rows,
        )
        return ExperimentResult(
            exp_id="abl_retention",
            title="Retention loss vs cycling vs program algorithm",
            table=table,
            data={"rows": rows},
            notes=(
                "charge loss erodes the sensing margins with log(time), "
                "accelerated by wear; ISPP-DV's compacted distributions "
                "keep the ECC in range markedly longer"
            ),
        )

    def run_system_services(self) -> ExperimentResult:
        """Differentiated storage services (the paper's future work).

        Three namespaces with distinct service classes share one mid-life
        device through the FTL; each transparently gets its own
        cross-layer configuration.
        """
        from repro.ftl.service import DifferentiatedStorage, ServiceClass
        from repro.nand.geometry import NandGeometry
        from repro.workloads.patterns import random_page

        rng = np.random.default_rng(404)
        controller = NandController(
            NandGeometry(blocks=12, pages_per_block=8),
            policy=self.policy,
            rng=rng,
        )
        controller.device.array._wear[:] = 10_000
        storage = DifferentiatedStorage(controller)
        storage.create_namespace("vault", ServiceClass.MISSION_CRITICAL, 4)
        storage.create_namespace("media", ServiceClass.STREAMING, 4)
        storage.create_namespace("misc", ServiceClass.DEFAULT, 4)
        storage.refresh_configs(pe_reference=1e4)

        latencies: dict[str, dict[str, float]] = {}
        for name in ("vault", "media", "misc"):
            ns = storage.namespace(name)
            writes = min(8, ns.logical_capacity)
            # Whole namespaces stream through the batched FTL datapath
            # (one allocation pass + encode_batch per write burst, one
            # read_pages + decode_batch per read pass).
            write_s = sum(storage.write_many(
                name,
                [(lpn, random_page(4096, rng)) for lpn in range(writes)],
            ))
            read_s = 0.0
            for _ in range(3):
                read_s += sum(
                    latency
                    for _, latency in storage.read_many(name, list(range(writes)))
                )
            latencies[name] = {
                "write_us": write_s / writes * 1e6,
                "read_us": read_s / (3 * writes) * 1e6,
            }
        rows = []
        for entry in storage.report():
            name = entry["namespace"]
            rows.append([
                name, entry["class"], entry["config"],
                latencies[name]["read_us"], latencies[name]["write_us"],
                entry["corrected_bits"],
            ])
        table = format_table(
            ["namespace", "service class", "configuration",
             "avg read [us]", "avg write [us]", "corrected bits"],
            rows,
        )
        return ExperimentResult(
            exp_id="sys_services",
            title="Differentiated storage services on one device",
            table=table,
            data={"rows": rows, "report": storage.report()},
            notes=(
                "streaming reads fastest, vault collects ~an order of "
                "magnitude fewer raw errors, default pays neither write "
                "penalty — three service levels, one chip"
            ),
        )

    def run_system_des(self) -> ExperimentResult:
        """End-to-end controller simulation on the motivating workloads.

        Each workload runs twice: straight into the controller (physical
        addressing) and through an FTL (logical addressing with
        out-of-place updates), both on the batched datapath.
        """
        from repro.ftl.ftl import FlashTranslationLayer
        from repro.sim.host import run_ftl_workload

        rows = []
        for mode in (OperatingMode.BASELINE, OperatingMode.MAX_READ_THROUGHPUT):
            for name, trace in (
                ("multimedia", multimedia_playback_trace(blocks=1, pages_per_block=6,
                                                         read_passes=4)),
                ("os-upgrade", os_upgrade_trace(blocks=1, pages_per_block=6)),
                ("mixed", mixed_trace(blocks=1, pages_per_block=6)),
            ):
                controller = NandController(
                    policy=self.policy, rng=np.random.default_rng(99)
                )
                controller.set_mode(mode)
                result = run_host_workload(
                    controller, HostWorkload(name, trace, batch_pages=8)
                )
                ftl_controller = NandController(
                    policy=self.policy, rng=np.random.default_rng(99)
                )
                ftl_controller.set_mode(mode)
                ftl_result = run_ftl_workload(
                    FlashTranslationLayer(ftl_controller, blocks=[0, 1]),
                    HostWorkload(name, trace, batch_pages=8),
                )
                rows.append([
                    mode.value, name, result.read_mb_s, result.write_mb_s,
                    ftl_result.read_mb_s, ftl_result.write_mb_s,
                    result.corrected_bits, result.uncorrectable_pages,
                ])
        table = format_table(
            ["mode", "workload", "read MB/s", "write MB/s",
             "FTL read MB/s", "FTL write MB/s",
             "corrected bits", "uncorrectable"],
            rows,
        )
        return ExperimentResult(
            exp_id="sys_des",
            title="Discrete-event system simulation (controller + device)",
            table=table,
            data={"rows": rows},
            notes=(
                "read-dominated workloads gain from max-read mode; "
                "write-heavy ones pay the ISPP-DV program-time penalty; "
                "the FTL columns add map/GC overhead on the same traces"
            ),
        )

    def run_system_ssd(self) -> ExperimentResult:
        """Multi-channel / multi-die SSD scaling on the DES scheduler.

        A multi-stream playback trace runs against die-striped SSDs of
        growing topology (same per-die geometry, same seed structure);
        throughput comes from the command scheduler's makespans, so the
        table shows how channels scale the serial bus + ECC section while
        extra dies behind one bus saturate it.
        """
        from repro.nand.geometry import NandGeometry
        from repro.sim.host import run_ssd_workload
        from repro.ssd import DieStripedFtl, SsdDevice, SsdTopology
        from repro.workloads.traces import queued_playback_trace

        geometry = NandGeometry(blocks=8, pages_per_block=8)
        trace = queued_playback_trace(
            streams=4, blocks_per_stream=1, pages_per_block=6, read_passes=3
        )
        rows = []
        baseline_read = None
        for channels, dies_per_channel in ((1, 1), (1, 4), (2, 2), (4, 1)):
            topology = SsdTopology(
                channels=channels,
                dies_per_channel=dies_per_channel,
                geometry=geometry,
            )
            ssd = SsdDevice(topology, policy=self.policy, seed=2012)
            for controller in ssd.controllers:
                controller.device.array._wear[:] = 10_000
            ssd.set_mode(OperatingMode.BASELINE, pe_reference=1e4)
            workload = HostWorkload.from_trace(
                "playback", trace, batch_pages=24
            )
            result = run_ssd_workload(DieStripedFtl(ssd), workload)
            if baseline_read is None:
                baseline_read = result.read_mb_s
            tails = result.latency_percentiles()
            # Scheduler-level accounting surfaced per run: the mean
            # busy fraction of the dies and channel buses over the run.
            die_util = (
                sum(result.die_busy_s)
                / (topology.dies * result.elapsed_s)
                if result.elapsed_s else 0.0
            )
            bus_util = (
                sum(result.channel_busy_s)
                / (topology.channels * result.elapsed_s)
                if result.elapsed_s else 0.0
            )
            rows.append([
                topology.describe(), topology.dies, workload.queue_depth,
                result.read_mb_s, result.write_mb_s,
                result.read_mb_s / baseline_read,
                tails["read_p50_s"] * 1e6,
                tails["read_p95_s"] * 1e6,
                tails["read_p99_s"] * 1e6,
                tails["queue_p95_s"] * 1e6,
                tails["service_p95_s"] * 1e6,
                die_util,
                bus_util,
            ])
        table = format_table(
            ["topology", "dies", "QD", "read MB/s", "write MB/s",
             "read speedup", "read p50 [us]", "read p95 [us]",
             "read p99 [us]", "queue p95 [us]", "service p95 [us]",
             "die util", "bus util"],
            rows,
        )
        return ExperimentResult(
            exp_id="sys_ssd",
            title="Multi-die SSD scaling (DES command scheduler)",
            table=table,
            data={"rows": rows},
            notes=(
                "reads are channel-bound: dies behind one bus saturate "
                "its transfer+decode section, extra channels keep "
                "scaling; programs overlap almost linearly with dies; "
                "the latency percentiles expose the queueing tail behind "
                "shared buses (p99 >> p50 once a channel saturates), and "
                "the queue/service split shows how much of it is the "
                "QD admission wait versus device time"
            ),
        )

    def run_system_pipeline(self) -> ExperimentResult:
        """Command-pipeline modes of the phase scheduler at end of life.

        Separate die-striped read and write batches (so each overlap is
        visible against the phase that binds it) run under every pipeline
        configuration on two topologies: 1ch x 1die, where the 75 us
        sense dominates and cache reads pay off, and 1ch x 4die, where
        four dies already hide sensing and only the pipelined ECC engine
        can lift the fused transfer + decode bus ceiling.  Multi-plane
        placement targets the ISPP program phase and therefore shows up
        in the write column.  Speedups are against the serial
        (paper-faithful) mode on the same topology.
        """
        from repro.nand.geometry import NandGeometry
        from repro.ssd import (
            DieStripedFtl, PipelineConfig, SsdDevice, SsdTopology,
        )

        rng = np.random.default_rng(2012)
        modes = [
            PipelineConfig.serial(),
            PipelineConfig(cache_read=True),
            PipelineConfig(pipelined_ecc=True),
            PipelineConfig(multi_plane=True),
            PipelineConfig.full(),
        ]
        batch = 24
        payloads = [(lpn, rng.bytes(4096)) for lpn in range(batch)]
        rows = []
        for channels, dies_per_channel in ((1, 1), (1, 4)):
            topology = SsdTopology(
                channels=channels,
                dies_per_channel=dies_per_channel,
                geometry=NandGeometry(blocks=8, pages_per_block=8),
            )
            baseline: dict[str, float] = {}
            for config in modes:
                ssd = SsdDevice(
                    topology, policy=self.policy, seed=2012, pipeline=config
                )
                for controller in ssd.controllers:
                    controller.device.array._wear[:] = 100_000
                ssd.set_mode(OperatingMode.BASELINE, pe_reference=1e5)
                ftl = DieStripedFtl(ssd, plane_interleave=config.multi_plane)
                ftl.write_many(list(payloads))
                write_s = ftl.last_schedule.makespan_s
                ftl.read_many([lpn for lpn, _ in payloads])
                read_s = ftl.last_schedule.makespan_s
                read_mb_s = batch * 4096 / read_s / 1e6
                write_mb_s = batch * 4096 / write_s / 1e6
                if not baseline:
                    baseline = {"read": read_mb_s, "write": write_mb_s}
                tail = LatencyStats()
                for latency in ftl.last_schedule.latencies():
                    tail.observe(latency)
                p95 = tail.p95_s
                rows.append([
                    topology.describe(), config.describe(),
                    read_mb_s, write_mb_s,
                    read_mb_s / baseline["read"],
                    write_mb_s / baseline["write"],
                    p95 * 1e6,
                ])
        table = format_table(
            ["topology", "pipeline", "read MB/s", "write MB/s", "read x",
             "write x", "read p95 [us]"],
            rows,
        )
        return ExperimentResult(
            exp_id="sys_pipeline",
            title="Command-pipeline modes at end of life (phase scheduler)",
            table=table,
            data={"rows": rows},
            notes=(
                "serial reproduces the paper's non-pipelined FSM; cache "
                "reads hide the sense at 1 die (at 4 dies sensing is "
                "already overlapped and tRCBSY makes caching a wash); "
                "the pipelined ECC engine lifts the per-channel read "
                "ceiling on both topologies; multi-plane placement "
                "overlaps ISPP and shows up as the write-column gain"
            ),
        )

    def run_system_openloop(self) -> ExperimentResult:
        """Open-loop arrival-rate sweep: throughput saturation and knee.

        A mixed playback stream (sequential re-reads with a metadata
        write every 8 ops) is arrival-stamped at a growing fraction of
        the device's measured saturation rate and driven through the
        :class:`~repro.ssd.session.SsdSession` queue pair on a
        1ch x 4die full-pipeline SSD at end of life.  Below saturation
        the completed rate tracks the offered rate and latency stays at
        the service time; past the knee the backlog grows, completed
        MB/s flat-lines at device capacity and the p95/p99 tail is
        dominated by submit->dispatch queueing — the steady-state
        behaviour the closed-loop batch-drain runner cannot see.
        """
        from repro.nand.geometry import NandGeometry
        from repro.sim.host import (
            OpenLoopWorkload, preread_lpns, run_open_loop_workload,
        )
        from repro.ssd import DieStripedFtl, PipelineConfig, SsdDevice, SsdTopology
        from repro.workloads.traces import (
            TraceOp, TraceOpKind, fixed_rate_arrivals,
        )

        rng = np.random.default_rng(2012)
        pages, passes, write_every = 48, 2, 8
        ops: list[TraceOp] = []
        for index in range(pages * passes):
            ops.append(TraceOp(TraceOpKind.READ, 0, index % pages))
            if (index + 1) % write_every == 0:
                ops.append(TraceOp(
                    TraceOpKind.WRITE, 1, index % 16, rng.bytes(4096)
                ))
        # Pages read before being written must be pre-written under the
        # host runner's own first-seen LPN naming.
        preread = preread_lpns(ops)

        def build() -> DieStripedFtl:
            topology = SsdTopology(
                channels=1,
                dies_per_channel=4,
                geometry=NandGeometry(blocks=8, pages_per_block=16),
            )
            ssd = SsdDevice(
                topology, policy=self.policy, seed=2012,
                pipeline=PipelineConfig.full(),
            )
            for controller in ssd.controllers:
                controller.device.array._wear[:] = 100_000
            ssd.set_mode(OperatingMode.BASELINE, pe_reference=1e5)
            ftl = DieStripedFtl(ssd, plane_interleave=True)
            ftl.write_many([(lpn, rng.bytes(4096)) for lpn in preread])
            return ftl

        # Saturation probe: offer everything at t=0 and measure the
        # completed rate — the device's sustained capacity.
        probe = run_open_loop_workload(
            build(), OpenLoopWorkload("probe", ops, queue_depth=16)
        )
        capacity_ops_s = (
            (probe.stats.reads + probe.stats.writes) / probe.elapsed_s
        )
        rows = []
        for fraction in (0.3, 0.6, 0.9, 1.05, 1.2, 1.5):
            offered = fraction * capacity_ops_s
            result = run_open_loop_workload(
                build(),
                OpenLoopWorkload(
                    f"openloop-{fraction:.2f}",
                    fixed_rate_arrivals(ops, offered),
                    queue_depth=16,
                ),
            )
            tails = result.latency_percentiles()
            die_util = (
                sum(result.die_busy_s)
                / (len(result.die_busy_s) * result.elapsed_s)
                if result.elapsed_s and result.die_busy_s else 0.0
            )
            rows.append([
                fraction, offered, result.read_mb_s,
                tails["read_p50_s"] * 1e6,
                tails["read_p95_s"] * 1e6,
                tails["read_p99_s"] * 1e6,
                tails["queue_p95_s"] * 1e6,
                tails["service_p95_s"] * 1e6,
                die_util,
            ])
        table = format_table(
            ["offered/sat", "offered ops/s", "read MB/s", "read p50 [us]",
             "read p95 [us]", "read p99 [us]", "queue p95 [us]",
             "service p95 [us]", "die util"],
            rows,
        )
        return ExperimentResult(
            exp_id="sys_openloop",
            title="Open-loop arrival sweep (SsdSession queue pair)",
            table=table,
            data={"rows": rows, "capacity_ops_s": capacity_ops_s},
            notes=(
                "below saturation the completed rate tracks the offered "
                "rate and p95 sits at the device service time; past the "
                "knee (offered/sat > 1) the submission backlog grows and "
                "the latency tail is pure host-side queueing while read "
                "MB/s flat-lines at capacity — the saturation curve the "
                "batch-drain host model cannot produce"
            ),
        )

    def run_system_observe(self) -> ExperimentResult:
        """Device telemetry snapshot: tracing, utilization, SMART counters.

        One mixed open-loop stream runs on a 1ch x 4die full-pipeline
        SSD through a recorder-carrying
        :class:`~repro.ssd.session.SsdSession`.  The report has three
        sections: the phase-trace reconciliation (per-resource span
        totals vs the scheduler's own busy accumulators — equal to
        float tolerance by construction), the time-windowed utilization
        series the spans roll up into, and the SMART-style counter
        registry ``SsdSession.metrics()`` assembles from every layer
        (media ops, corrected bits, GC, wear, dispatch path).
        """
        from repro.nand.geometry import NandGeometry
        from repro.obs import TraceRecorder
        from repro.sim.host import (
            OpenLoopWorkload, preread_lpns, run_open_loop_workload,
        )
        from repro.ssd import (
            DieStripedFtl, PipelineConfig, SsdDevice, SsdTopology,
        )
        from repro.ssd.session import SsdSession
        from repro.workloads.traces import (
            TraceOp, TraceOpKind, fixed_rate_arrivals,
        )

        rng = np.random.default_rng(2012)
        ops: list[TraceOp] = []
        for index in range(96):
            ops.append(TraceOp(TraceOpKind.READ, 0, index % 32))
            if (index + 1) % 6 == 0:
                ops.append(TraceOp(
                    TraceOpKind.WRITE, 1, index % 16, rng.bytes(4096)
                ))
        preread = preread_lpns(ops)
        topology = SsdTopology(
            channels=1,
            dies_per_channel=4,
            geometry=NandGeometry(blocks=8, pages_per_block=16),
        )
        ssd = SsdDevice(
            topology, policy=self.policy, seed=2012,
            pipeline=PipelineConfig.full(),
        )
        for controller in ssd.controllers:
            controller.device.array._wear[:] = 100_000
        ssd.set_mode(OperatingMode.BASELINE, pe_reference=1e5)
        ftl = DieStripedFtl(ssd, plane_interleave=True)
        ftl.write_many([(lpn, rng.bytes(4096)) for lpn in preread])
        recorder = TraceRecorder()
        session = SsdSession(ftl, recorder=recorder)
        result = run_open_loop_workload(
            ftl,
            OpenLoopWorkload(
                "observe", fixed_rate_arrivals(ops, 40_000), queue_depth=16
            ),
            session=session,
        )
        totals = recorder.busy_totals()
        recon_rows = []
        for resource, spans, accumulators in (
            ("die", totals["die"], result.die_busy_s),
            ("channel", totals["channel"], result.channel_busy_s),
            ("ecc", totals["ecc"], result.ecc_busy_s),
        ):
            for index, (span_s, busy_s) in enumerate(
                zip(spans, accumulators)
            ):
                recon_rows.append([
                    f"{resource} {index}", busy_s * 1e6, span_s * 1e6,
                    abs(span_s - busy_s) * 1e9,
                    busy_s / result.elapsed_s if result.elapsed_s else 0.0,
                ])
        recon_table = format_table(
            ["resource", "accumulator [us]", "trace spans [us]",
             "|delta| [ns]", "utilization"],
            recon_rows,
        )
        series = recorder.utilization(result.elapsed_s / 8 or 1e-3)
        util_rows = [
            [
                f"window {index}",
                *(f"{row[index]:.2f}" for row in series.die),
                f"{series.queue_depth[index]:.1f}",
            ]
            for index in range(series.windows)
        ]
        util_table = format_table(
            ["", *(f"die {die}" for die in range(len(series.die))), "QD"],
            util_rows,
        )
        metrics = session.metrics()
        table = (
            recon_table
            + "\n\nutilization per window (busy fraction):\n" + util_table
            + "\n\nSMART counters:\n" + metrics.render()
        )
        return ExperimentResult(
            exp_id="sys_observe",
            title="Device telemetry (phase trace + utilization + SMART)",
            table=table,
            data={
                "reconciliation": recon_rows,
                "busy_totals": totals,
                "spans": len(recorder),
                "counters": metrics.as_dict(),
            },
            notes=(
                "per-resource span totals reconcile with the scheduler's "
                "busy accumulators to float tolerance; the windowed view "
                "shows utilization ramping with the arrival process; the "
                "SMART registry is the pull-based health snapshot every "
                "layer populates (export a Perfetto timeline with "
                "TraceRecorder.export_chrome_trace)"
            ),
        )

    def run_system_sustained(self) -> ExperimentResult:
        """Sustained-write steady state under the three session GC modes.

        A small 1ch x 4die full-pipeline drive is filled sequentially
        and then random-overwritten past its over-provisioning under
        each :data:`~repro.ssd.session.GC_MODES` entry: ``sync``
        (collections inside the data path, accounted serially
        off-timeline),
        ``foreground`` (GC-origin commands on the timeline, host
        admission frozen while they fly — the stall baseline) and
        ``background`` (watermark/idle-triggered collections overlap
        host I/O on idle dies with host-priority dispatch).  The table
        is the experiment-suite face of
        ``benchmarks/bench_sustained_write.py``: completion-windowed
        throughput gives the fresh->steady cliff, the FTL counters give
        the steady-state write amplification, and the GC accounting
        splits serial vs scheduled collection time.
        """
        import random as _random

        from repro.ftl.gc import GcConfig
        from repro.nand.geometry import NandGeometry
        from repro.sim.host import OpenLoopWorkload, run_open_loop_workload
        from repro.ssd import (
            DieStripedFtl, PipelineConfig, SsdDevice, SsdTopology,
        )
        from repro.ssd.session import GC_MODES, SsdSession
        from repro.workloads.traces import TraceOp, TraceOpKind

        def run_mode(gc_mode: str) -> dict:
            topology = SsdTopology(
                channels=1,
                dies_per_channel=4,
                geometry=NandGeometry(blocks=6, pages_per_block=16),
            )
            ssd = SsdDevice(
                topology, policy=self.policy, seed=2012,
                pipeline=PipelineConfig.full(),
            )
            ssd.set_mode(OperatingMode.BASELINE)
            session = SsdSession(
                ssd=ssd, queue_depth=8, gc_mode=gc_mode,
                gc_config=GcConfig(policy="cost_benefit"),
            )
            ftl = DieStripedFtl(ssd, plane_interleave=True, session=session)
            session.ftl = ftl
            capacity = ftl.logical_capacity
            rng = _random.Random(7)
            page = bytes(4096)
            ops = [
                TraceOp(TraceOpKind.WRITE, 0, lpn, page)
                for lpn in range(capacity)
            ]
            for index in range(int(capacity * 1.5)):
                if index % 4 == 3:
                    ops.append(TraceOp(
                        TraceOpKind.READ, 0, rng.randrange(capacity)
                    ))
                else:
                    ops.append(TraceOp(
                        TraceOpKind.WRITE, 0, rng.randrange(capacity), page
                    ))
            window = max(24, len(ops) // 16)
            rates: list[float] = []
            state = {"count": 0, "last_t": 0.0, "last_n": 0}

            def sample(completion) -> None:
                done = session.completions
                if not done or done[-1].tag != completion.tag:
                    return
                state["count"] += 1
                if state["count"] - state["last_n"] < window:
                    return
                elapsed = completion.done_s - state["last_t"]
                if elapsed > 0:
                    rates.append(
                        (state["count"] - state["last_n"]) / elapsed
                    )
                state["last_t"] = completion.done_s
                state["last_n"] = state["count"]

            session.core.on_finish.append(sample)
            result = run_open_loop_workload(
                ftl,
                OpenLoopWorkload(
                    f"sustained-{gc_mode}", ops, queue_depth=8
                ),
                session=session,
            )
            session.core.on_finish.remove(sample)
            gc = ftl.gc_stats
            fresh = max(rates[: max(1, len(rates) // 4)])
            tail = rates[-max(1, len(rates) // 4):]
            steady = sum(tail) / len(tail)
            return {
                "mode": gc_mode,
                "elapsed_s": result.elapsed_s,
                "steady_ops_s": steady,
                "cliff": fresh / steady if steady else 0.0,
                "wa": (ftl.stats.host_writes + gc.pages_migrated)
                / ftl.stats.host_writes,
                "collections": gc.collections,
                "background": gc.background_collections,
                "serial_gc_s": gc.migration_time_s,
                "scheduled_gc_s": gc.scheduled_busy_s,
            }

        runs = [run_mode(mode) for mode in GC_MODES]
        fg_steady = next(
            r["steady_ops_s"] for r in runs if r["mode"] == "foreground"
        )
        rows = [
            [
                r["mode"], r["steady_ops_s"], f"{r['cliff']:.1f}x",
                r["wa"], r["collections"], r["background"],
                r["serial_gc_s"] * 1e3, r["scheduled_gc_s"] * 1e3,
                r["steady_ops_s"] / fg_steady,
            ]
            for r in runs
        ]
        table = format_table(
            ["gc mode", "steady ops/s", "cliff", "WA", "colls", "bg colls",
             "serial GC [ms]", "scheduled GC [ms]", "vs foreground"],
            rows,
        )
        bg_gain = next(
            r["steady_ops_s"] for r in runs if r["mode"] == "background"
        ) / fg_steady
        return ExperimentResult(
            exp_id="sys_sustained",
            title="Sustained-write steady state (session GC modes)",
            table=table,
            data={"runs": runs},
            notes=(
                "every mode falls off the fresh-write cliff at the same "
                "WA — the migrations are identical — but foreground pays "
                "them as stalls while background overlaps them on idle "
                f"dies ({bg_gain:.1f}x the foreground steady rate); sync "
                "accounts migrations serially off-timeline (the "
                "pre-scheduled accounting, kept as the equivalence anchor)"
            ),
        )

    def run_uber_mc(
        self,
        pages: int = 96,
        chunk_pages: int = 24,
    ) -> ExperimentResult:
        """Monte-Carlo UBER sweep through the real codec.

        Each operating point pushes ``pages`` random pages through
        encode -> binomial corruption -> decode at a stress RBER chosen
        around the capability knee (n * RBER near t), where failures are
        observable with small samples; the exact binomial tail is the
        reference.  Each chunk of ``chunk_pages`` draws from its own
        ``SeedSequence`` spawn of the sweep's seed.
        """
        from repro.bch.uber import monte_carlo_uber, uber_exact

        k, m = self.policy.k, self.policy.m
        points = []
        for t, stress in ((3, 1.6), (14, 1.0), (14, 1.3), (65, 1.1)):
            n = k + m * t
            points.append((t, stress * (t + 1) / n))
        rows = []
        for t, rber in points:
            mc = monte_carlo_uber(
                self.codec, rber, t, pages, seed=2012,
                chunk_pages=chunk_pages,
            )
            exact_page = uber_exact(rber, mc.n, t) * mc.n
            rows.append([
                t, rber, mc.pages, mc.injected_bits / mc.pages,
                mc.failed_pages, mc.page_failure_rate, exact_page,
            ])
        table = format_table(
            ["t", "RBER", "pages", "mean injected", "failed",
             "MC page-fail rate", "exact tail P(>t)"],
            rows,
        )
        return ExperimentResult(
            exp_id="uber_mc",
            title="Monte-Carlo UBER vs the binomial tail (real codec)",
            table=table,
            data={"rows": rows},
            notes=(
                "MC page-failure rates track the exact binomial tail at "
                "every stress point; per-chunk SeedSequence spawns make "
                "the sweep reproducible"
            ),
        )

