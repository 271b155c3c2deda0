"""CounterRegistry tests: registry semantics and per-layer population."""

import numpy as np
import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.nand.geometry import NandGeometry
from repro.obs import CounterRegistry
from repro.sim.host import OpenLoopWorkload, run_open_loop_workload
from repro.ssd import DieStripedFtl, SsdDevice, SsdSession, SsdTopology
from repro.workloads.traces import TraceOp, TraceOpKind, fixed_rate_arrivals


class TestRegistry:
    def test_set_get_iterate(self):
        registry = CounterRegistry()
        registry.set("alpha", 3, "ops")
        registry.set("beta", 1.5)
        assert registry.get("alpha") == 3
        assert "alpha" in registry and "gamma" not in registry
        assert len(registry) == 2
        assert registry.as_dict() == {"alpha": 3, "beta": 1.5}
        assert [c.name for c in registry] == ["alpha", "beta"]

    def test_ids_are_stable_across_overwrites(self):
        registry = CounterRegistry()
        first = registry.set("alpha", 1)
        registry.set("beta", 2)
        second = registry.set("alpha", 10)
        third = registry.set("gamma", 3)
        assert second.attr_id == first.attr_id
        assert [c.attr_id for c in registry] == [1, 2, third.attr_id]
        assert third.attr_id == 3  # overwrites do not burn ids

    def test_add_accumulates_across_layers(self):
        registry = CounterRegistry()
        registry.add("corrected", 5, "bits")  # e.g. one per controller
        registry.add("corrected", 7)
        counter = registry._counters["corrected"]
        assert counter.value == 12
        assert counter.unit == "bits"  # first-writer unit sticks

    def test_append_builds_per_die_vectors(self):
        registry = CounterRegistry()
        for die, wear in enumerate((100, 250, 80)):
            registry.append("wear", wear, "P/E cycles")
        assert registry.get("wear") == [100, 250, 80]

    def test_render_and_rows_summarise_vectors(self):
        registry = CounterRegistry()
        registry.set("scalar", 42, "ops")
        registry.set("vector", [1.0, 3.0], "s")
        registry.set("empty", [], "s")
        rows = {row[1]: row[2] for row in registry.rows()}
        assert rows["scalar"] == 42
        assert rows["vector"] == "min 1 / mean 2 / max 3"
        assert rows["empty"] == "-"
        text = registry.render()
        assert "ATTRIBUTE" in text and "scalar" in text and "42" in text


class TestSessionMetrics:
    @pytest.fixture(scope="class")
    def run(self):
        """One mixed open-loop run on a 1ch x 2die full-pipeline SSD."""
        topology = SsdTopology(
            channels=1,
            dies_per_channel=2,
            geometry=NandGeometry(blocks=8, pages_per_block=8),
        )
        ssd = SsdDevice(topology, policy=CrossLayerPolicy(), seed=2012)
        for controller in ssd.controllers:
            controller.device.array._wear[:] = 10_000
        ssd.set_mode(OperatingMode.BASELINE, pe_reference=1e4)
        ftl = DieStripedFtl(ssd)
        rng = np.random.default_rng(5)
        lpns = list(range(8))
        ftl.write_many([(lpn, rng.bytes(4096)) for lpn in lpns])
        ops = [TraceOp(TraceOpKind.READ, 0, lpn) for lpn in lpns * 4]
        ops += [
            TraceOp(TraceOpKind.WRITE, 1, lpn, rng.bytes(4096))
            for lpn in lpns
        ]
        session = SsdSession(ftl)
        result = run_open_loop_workload(
            ftl,
            OpenLoopWorkload(
                "mix", fixed_rate_arrivals(ops, 50_000), queue_depth=8
            ),
            session=session,
        )
        return session, result, len(ops)

    def test_metrics_assembles_every_layer(self, run):
        session, _, _ = run
        metrics = session.metrics()
        for name in (
            "media_page_reads", "media_page_programs", "die_max_wear",
            "ecc_words_decoded", "ecc_corrected_bits", "ecc_bits_processed",
            "host_reads", "host_writes", "gc_collections",
            "session_submissions", "session_in_flight",
            "die_busy_s", "channel_busy_s", "ecc_busy_s",
        ):
            assert name in metrics, name

    def test_counters_reflect_the_run(self, run):
        session, _, ops = run
        metrics = session.metrics()
        # 32 reads + 8 host writes (plus the pre-run prewrites on the
        # device's own accounting).
        assert metrics.get("host_reads") >= 32
        assert metrics.get("host_writes") >= 8
        assert metrics.get("media_page_reads") >= 32
        assert metrics.get("session_submissions") == ops
        assert metrics.get("session_in_flight") == 0
        assert metrics.get("die_max_wear") == [10_000, 10_000]
        rber = metrics.get("ecc_observed_rber")
        assert 0.0 < rber < 0.01

    def test_busy_vectors_match_core_accumulators(self, run):
        session, _, _ = run
        metrics = session.metrics()
        assert metrics.get("die_busy_s") == list(session.core.die_busy_s)
        assert metrics.get("channel_busy_s") == list(
            session.core.channel_busy_s
        )
        assert metrics.get("ecc_busy_s") == list(session.core.ecc_busy_s)

    def test_caller_registry_is_reused(self, run):
        session, _, _ = run
        registry = CounterRegistry()
        registry.set("custom", 1)
        returned = session.metrics(registry)
        assert returned is registry
        assert "custom" in returned and "host_reads" in returned
