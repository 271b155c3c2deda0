"""SLC/MLC hybrid partitioning — the boot-time alternative (section 2).

The paper's related work covers two prior degrees of freedom: segmented
memories with boot-time-configurable segment sizes [20] and mixed SLC/MLC
structures like Flex-OneNAND [21], both fixed "only at boot time".  This
module implements that scheme so the runtime cross-layer approach can be
compared against it quantitatively:

* an **SLC segment** stores one bit per cell with a wide sensing window —
  RBER roughly two orders of magnitude below MLC (section 1, [8]) and a
  short single-verify program — but halves capacity;
* an **MLC segment** runs the paper's ISPP-SV or ISPP-DV algorithms.

:class:`PartitionPlanner` scores boot-time plans (capacity, throughput,
required ECC) over the lifetime; the ablation bench contrasts the best
static plan against the runtime-reconfigurable cross-layer modes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro import params as canon
from repro.core.tradeoff import TradeoffAnalyzer
from repro.errors import CodeDesignError, ConfigurationError
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm


class CellMode(enum.Enum):
    """Per-segment storage mode."""

    SLC = "slc"
    MLC_SV = "mlc-sv"
    MLC_DV = "mlc-dv"


#: SLC RBER advantage over MLC ISPP-SV (section 1: MLC is "at least two
#: orders of magnitude worse" than SLC).
SLC_RBER_DIVISOR = 100.0

#: SLC programs a single level with one verify: ratio of its program time
#: to the MLC ISPP-SV full-sequence (single verify level, ~half the pulses).
SLC_PROGRAM_TIME_RATIO = 0.40


@dataclass(frozen=True)
class PartitionSpec:
    """One boot-time segment."""

    name: str
    blocks: int
    mode: CellMode

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ConfigurationError("a partition needs at least one block")


@dataclass(frozen=True)
class PartitionMetrics:
    """Lifetime-point metrics of one segment."""

    spec: PartitionSpec
    capacity_bytes: int
    rber: float
    required_t: int | None          # None when t_max is insufficient
    read_mb_s: float
    write_mb_s: float

    @property
    def bits_per_cell(self) -> int:
        """Storage density of the segment."""
        return 1 if self.spec.mode is CellMode.SLC else 2


class PartitionPlanner:
    """Scores boot-time SLC/MLC partition plans."""

    def __init__(
        self,
        geometry: NandGeometry | None = None,
        analyzer: TradeoffAnalyzer | None = None,
    ):
        self.geometry = geometry or NandGeometry()
        self.analyzer = analyzer or TradeoffAnalyzer()

    def _mode_rber(self, mode: CellMode, pe_cycles: float) -> float:
        model = self.analyzer.policy.rber_model
        if mode is CellMode.SLC:
            return model.rber_sv(pe_cycles) / SLC_RBER_DIVISOR
        if mode is CellMode.MLC_SV:
            return model.rber_sv(pe_cycles)
        return model.rber_dv(pe_cycles)

    def _mode_program_s(self, mode: CellMode, pe_cycles: float) -> float:
        sv_time = self.analyzer.program_time_s(IsppAlgorithm.SV, pe_cycles)
        if mode is CellMode.SLC:
            return sv_time * SLC_PROGRAM_TIME_RATIO
        if mode is CellMode.MLC_SV:
            return sv_time
        return self.analyzer.program_time_s(IsppAlgorithm.DV, pe_cycles)

    def evaluate(self, spec: PartitionSpec, pe_cycles: float) -> PartitionMetrics:
        """Metrics of one segment at one lifetime point."""
        if spec.blocks > self.geometry.blocks:
            raise ConfigurationError(
                f"partition {spec.name!r} exceeds the device ({spec.blocks} "
                f"> {self.geometry.blocks} blocks)"
            )
        rber = self._mode_rber(spec.mode, pe_cycles)
        try:
            t = self.analyzer.policy.required_t(rber)
        except CodeDesignError:
            t = None
        density = 1 if spec.mode is CellMode.SLC else 2
        capacity = (
            spec.blocks * self.geometry.pages_per_block
            * self.geometry.page_data_bytes * density // 2
        )
        if t is None:
            read_mb_s = write_mb_s = 0.0
        else:
            code = self.analyzer.spec(t)
            decode_s = self.analyzer.latency_model.decode_latency_s(code)
            encode_s = self.analyzer.latency_model.encode_latency_s(code)
            program_s = self._mode_program_s(spec.mode, pe_cycles)
            # SLC pages carry half the data per array operation.
            scale = density / 2
            point = self.analyzer.throughput_model.serial_point(
                canon.T_READ_ARRAY, decode_s, encode_s, program_s
            )
            read_mb_s = point.read_bytes_per_s * scale / 1e6
            write_mb_s = point.write_bytes_per_s * scale / 1e6
        return PartitionMetrics(
            spec=spec,
            capacity_bytes=capacity,
            rber=rber,
            required_t=t,
            read_mb_s=read_mb_s,
            write_mb_s=write_mb_s,
        )

    def evaluate_plan(
        self, plan: list[PartitionSpec], pe_cycles: float
    ) -> list[PartitionMetrics]:
        """Metrics for a whole plan (validates the block budget)."""
        total = sum(spec.blocks for spec in plan)
        if total > self.geometry.blocks:
            raise ConfigurationError(
                f"plan uses {total} blocks, device has {self.geometry.blocks}"
            )
        return [self.evaluate(spec, pe_cycles) for spec in plan]

    @staticmethod
    def plan_capacity(metrics: list[PartitionMetrics]) -> int:
        """Total usable capacity of a plan."""
        return sum(m.capacity_bytes for m in metrics)
