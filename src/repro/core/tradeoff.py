"""Lifetime trade-off quantification (paper Figs. 8-11).

:class:`TradeoffAnalyzer` evaluates a cross-layer operating mode over the
device lifetime: ECC encode/decode latency from the hardware model,
program time from the ISPP Monte-Carlo, read/write throughput from the
serial page model, and the achieved UBER from Eq. (1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import params as canon
from repro.bch.hardware import EccLatencyModel
from repro.bch.params import BCHCodeSpec, design_code
from repro.bch.uber import log10_uber_eq1
from repro.controller.throughput import ThroughputModel, ThroughputPoint
from repro.core.config import CrossLayerConfig
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.nand.ispp import IsppAlgorithm
from repro.nand.program import PageProgrammer
from repro.params import EccHardwareParams


@dataclass(frozen=True)
class TradeoffPoint:
    """Every headline metric of one (mode, lifetime point) evaluation."""

    pe_cycles: float
    mode: OperatingMode
    config: CrossLayerConfig
    rber: float
    log10_uber: float
    encode_s: float
    decode_s: float
    program_s: float
    read_array_s: float
    throughput: ThroughputPoint

    @property
    def read_mb_s(self) -> float:
        """Serial read throughput in MB/s."""
        return self.throughput.read_bytes_per_s / 1e6

    @property
    def write_mb_s(self) -> float:
        """Serial write throughput in MB/s."""
        return self.throughput.write_bytes_per_s / 1e6


class TradeoffAnalyzer:
    """Evaluates cross-layer operating points over the lifetime."""

    #: Cells per Monte-Carlo timing run (pulse counts saturate well below
    #: a full page's population).
    TIMING_CELLS = 8192

    def __init__(
        self,
        policy: CrossLayerPolicy | None = None,
        hw: EccHardwareParams | None = None,
        programmer: PageProgrammer | None = None,
        page_bytes: int = canon.PAGE_DATA_BYTES,
        seed: int = 2012,
    ):
        self.policy = policy or CrossLayerPolicy()
        self.latency_model = EccLatencyModel(hw)
        self.programmer = programmer or PageProgrammer(
            rng=np.random.default_rng(seed)
        )
        self.throughput_model = ThroughputModel(page_bytes)
        self.page_bytes = page_bytes
        self._program_cache: dict[tuple[IsppAlgorithm, float], float] = {}

    # -- building blocks -----------------------------------------------------

    def spec(self, t: int) -> BCHCodeSpec:
        """Designed code for capability t (``design_code`` is memoized)."""
        return design_code(self.policy.k, t, self.policy.m)

    def program_time_s(self, algorithm: IsppAlgorithm, pe_cycles: float) -> float:
        """Monte-Carlo program time at an age (cached per exact age)."""
        key = (algorithm, float(pe_cycles))
        if key not in self._program_cache:
            outcome = self.programmer.program_random_page(
                self.TIMING_CELLS, algorithm, pe_cycles
            )
            self._program_cache[key] = outcome.timing.total_s
        return self._program_cache[key]

    # -- evaluation --------------------------------------------------------------

    def point(self, mode: OperatingMode, pe_cycles: float) -> TradeoffPoint:
        """Evaluate one mode at one lifetime point."""
        config = self.policy.config_for(mode, pe_cycles)
        spec = self.spec(config.ecc_t)
        rber = self.policy.rber_for(config, pe_cycles)
        encode_s = self.latency_model.encode_latency_s(spec)
        decode_s = self.latency_model.decode_latency_s(spec)
        program_s = self.program_time_s(config.algorithm, pe_cycles)
        read_array_s = canon.T_READ_ARRAY
        throughput = self.throughput_model.serial_point(
            read_array_s, decode_s, encode_s, program_s
        )
        return TradeoffPoint(
            pe_cycles=pe_cycles,
            mode=mode,
            config=config,
            rber=rber,
            log10_uber=log10_uber_eq1(rber, spec.n, spec.t),
            encode_s=encode_s,
            decode_s=decode_s,
            program_s=program_s,
            read_array_s=read_array_s,
            throughput=throughput,
        )

    def lifetime(
        self, mode: OperatingMode, grid: np.ndarray | None = None
    ) -> list[TradeoffPoint]:
        """Evaluate a mode across a P/E-cycle grid."""
        grid = self._grid(grid)
        return [self.point(mode, float(n)) for n in grid]

    # -- figure series -------------------------------------------------------------

    def write_loss_series(
        self, grid: np.ndarray | None = None,
        mode: OperatingMode = OperatingMode.MAX_READ_THROUGHPUT,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fig. 9: write-throughput loss (%) of a DV mode vs baseline."""
        grid = self._grid(grid)
        losses = []
        for n in grid:
            base = self.point(OperatingMode.BASELINE, float(n))
            new = self.point(mode, float(n))
            losses.append(self.throughput_model.loss_percent(
                new.throughput.write_bytes_per_s,
                base.throughput.write_bytes_per_s,
            ))
        return grid, np.asarray(losses)

    def read_gain_series(
        self, grid: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fig. 11: read-throughput gain (%) of max-read mode vs baseline."""
        grid = self._grid(grid)
        gains = []
        for n in grid:
            base = self.point(OperatingMode.BASELINE, float(n))
            new = self.point(OperatingMode.MAX_READ_THROUGHPUT, float(n))
            gains.append(self.throughput_model.gain_percent(
                new.throughput.read_bytes_per_s,
                base.throughput.read_bytes_per_s,
            ))
        return grid, np.asarray(gains)

    def uber_series(
        self, grid: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fig. 10: log10 UBER, nominal vs physical-layer modification."""
        grid = self._grid(grid)
        nominal = []
        improved = []
        for n in grid:
            nominal.append(self.point(OperatingMode.BASELINE, float(n)).log10_uber)
            improved.append(self.point(OperatingMode.MIN_UBER, float(n)).log10_uber)
        return grid, np.asarray(nominal), np.asarray(improved)

    def latency_series(
        self, grid: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """Fig. 8: encode/decode latency per algorithm over the lifetime.

        The ISPP-SV pair tracks the baseline mode; the ISPP-DV pair tracks
        the max-read mode (constant UBER with relaxed t), matching the
        paper's experiment.
        """
        grid = self._grid(grid)
        out = {
            "pe_cycles": grid,
            "sv_encode_s": [], "sv_decode_s": [],
            "dv_encode_s": [], "dv_decode_s": [],
        }
        for n in grid:
            sv = self.point(OperatingMode.BASELINE, float(n))
            dv = self.point(OperatingMode.MAX_READ_THROUGHPUT, float(n))
            out["sv_encode_s"].append(sv.encode_s)
            out["sv_decode_s"].append(sv.decode_s)
            out["dv_encode_s"].append(dv.encode_s)
            out["dv_decode_s"].append(dv.decode_s)
        return {k: np.asarray(v) for k, v in out.items()}

    def _grid(self, grid: np.ndarray | None) -> np.ndarray:
        if grid is None:
            grid = self.policy.rber_model.lifetime_grid()
        return np.asarray(grid, dtype=np.float64)
