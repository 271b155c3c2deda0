"""SLC/MLC partition planner tests."""

import pytest

from repro.core.partition import (
    CellMode,
    PartitionPlanner,
    PartitionSpec,
    SLC_RBER_DIVISOR,
)
from repro.core.policy import CrossLayerPolicy
from repro.core.tradeoff import TradeoffAnalyzer
from repro.errors import ConfigurationError
from repro.nand.geometry import NandGeometry
from repro.nand.rber import LifetimeRberModel


@pytest.fixture(scope="module")
def planner():
    return PartitionPlanner(NandGeometry(blocks=64, pages_per_block=64))


class TestPartitionMetrics:
    def test_slc_halves_capacity(self, planner):
        slc = planner.evaluate(PartitionSpec("boot", 8, CellMode.SLC), 0.0)
        mlc = planner.evaluate(PartitionSpec("data", 8, CellMode.MLC_SV), 0.0)
        assert slc.capacity_bytes == mlc.capacity_bytes // 2
        assert slc.bits_per_cell == 1 and mlc.bits_per_cell == 2

    def test_slc_rber_two_orders_below_mlc(self, planner):
        slc = planner.evaluate(PartitionSpec("boot", 8, CellMode.SLC), 1e4)
        mlc = planner.evaluate(PartitionSpec("data", 8, CellMode.MLC_SV), 1e4)
        assert mlc.rber / slc.rber == pytest.approx(SLC_RBER_DIVISOR)

    def test_slc_needs_weaker_ecc(self, planner):
        slc = planner.evaluate(PartitionSpec("boot", 8, CellMode.SLC), 1e5)
        mlc = planner.evaluate(PartitionSpec("data", 8, CellMode.MLC_SV), 1e5)
        assert slc.required_t is not None and mlc.required_t is not None
        assert slc.required_t < mlc.required_t

    def test_mode_ordering_at_end_of_life(self, planner):
        metrics = {
            mode: planner.evaluate(PartitionSpec("p", 8, mode), 1e5)
            for mode in CellMode
        }
        assert (
            metrics[CellMode.SLC].rber
            < metrics[CellMode.MLC_DV].rber
            < metrics[CellMode.MLC_SV].rber
        )
        # SLC reads fastest per stored byte? No: it moves half the data per
        # operation, but with minimal decode; DV-MLC beats SV-MLC.
        assert metrics[CellMode.MLC_DV].read_mb_s > metrics[CellMode.MLC_SV].read_mb_s

    def test_t_sized_by_the_analyzer_policy(self):
        # At rated endurance the canonical model's ISPP-SV needs t = 65:
        # past a policy capped at t = 40, so the segment has no
        # capability to run.
        policy = CrossLayerPolicy(rber_model=LifetimeRberModel(), t_max=40)
        planner = PartitionPlanner(
            NandGeometry(blocks=64, pages_per_block=64),
            TradeoffAnalyzer(policy=policy),
        )
        mlc = planner.evaluate(PartitionSpec("data", 8, CellMode.MLC_SV), 1e5)
        assert mlc.required_t is None
        assert mlc.read_mb_s == mlc.write_mb_s == 0.0

    def test_slc_writes_fast_despite_density(self, planner):
        slc = planner.evaluate(PartitionSpec("log", 8, CellMode.SLC), 0.0)
        mlc_dv = planner.evaluate(PartitionSpec("data", 8, CellMode.MLC_DV), 0.0)
        assert slc.write_mb_s > mlc_dv.write_mb_s


class TestPlans:
    def test_plan_budget_enforced(self, planner):
        plan = [
            PartitionSpec("a", 40, CellMode.MLC_SV),
            PartitionSpec("b", 40, CellMode.SLC),
        ]
        with pytest.raises(ConfigurationError):
            planner.evaluate_plan(plan, 0.0)

    def test_hybrid_plan_capacity(self, planner):
        plan = [
            PartitionSpec("boot", 16, CellMode.SLC),
            PartitionSpec("data", 48, CellMode.MLC_SV),
        ]
        metrics = planner.evaluate_plan(plan, 0.0)
        full_mlc = planner.evaluate(PartitionSpec("all", 64, CellMode.MLC_SV), 0.0)
        assert PartitionPlanner.plan_capacity(metrics) == pytest.approx(
            full_mlc.capacity_bytes * (48 + 8) / 64
        )

    def test_invalid_partition(self):
        with pytest.raises(ConfigurationError):
            PartitionSpec("x", 0, CellMode.SLC)

    def test_oversized_partition(self, planner):
        with pytest.raises(ConfigurationError):
            planner.evaluate(PartitionSpec("x", 65, CellMode.SLC), 0.0)
