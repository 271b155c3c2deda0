"""Die-striped FTL tests: routing, single-die equivalence, determinism.

The ISSUE 3 satellite coverage: a 1-channel x 1-die SSD must return
byte-identical data and identical error statistics (seeded RNG) to the
direct single-device path, and scheduler runs must be deterministic
(same seed + topology => same completion order and clock).
"""

import numpy as np
import pytest

from repro.controller.controller import NandController
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import ControllerError
from repro.ftl.ftl import FlashTranslationLayer
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm
from repro.sim.host import HostWorkload, run_ssd_workload
from repro.ssd import DieStripedFtl, SsdDevice, SsdTopology, spawn_die_rngs
from repro.workloads.traces import queued_playback_trace

GEOMETRY = NandGeometry(blocks=6, pages_per_block=8)
EOL_WEAR = 100_000


def _ssd(channels=1, dies_per_channel=1, seed=11, wear=EOL_WEAR):
    topology = SsdTopology(
        channels=channels, dies_per_channel=dies_per_channel, geometry=GEOMETRY
    )
    ssd = SsdDevice(topology, policy=CrossLayerPolicy(), seed=seed)
    for controller in ssd.controllers:
        controller.device.array._wear[:] = wear
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=float(wear))
    return ssd


def _payloads(count, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.bytes(GEOMETRY.page_data_bytes) for _ in range(count)]


class TestRouting:
    def test_round_robin_over_dies(self):
        ftl = DieStripedFtl(_ssd(channels=2, dies_per_channel=2))
        assert [ftl.route(lpn).die for lpn in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]
        assert [ftl.route(lpn).shard_lpn for lpn in range(8)] == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]

    def test_capacity_spans_every_die(self):
        single = DieStripedFtl(_ssd())
        quad = DieStripedFtl(_ssd(channels=2, dies_per_channel=2))
        assert quad.logical_capacity == 4 * single.logical_capacity

    def test_out_of_range_lpn_rejected(self):
        ftl = DieStripedFtl(_ssd())
        with pytest.raises(ControllerError):
            ftl.route(ftl.logical_capacity)


class TestSingleDieEquivalence:
    """1x1 topology == direct single-controller FTL, bit for bit."""

    def _reference_ftl(self, seed):
        controller = NandController(
            GEOMETRY,
            policy=CrossLayerPolicy(),
            rng=spawn_die_rngs(seed, 1)[0],
        )
        controller.device.array._wear[:] = EOL_WEAR
        controller.set_mode(OperatingMode.BASELINE, pe_reference=float(EOL_WEAR))
        return FlashTranslationLayer(
            controller, list(range(GEOMETRY.blocks))
        )

    def test_byte_identical_data_and_error_counts(self):
        seed = 29
        striped = DieStripedFtl(_ssd(seed=seed))
        reference = self._reference_ftl(seed)
        payloads = _payloads(24)
        items = list(enumerate(payloads))
        striped.write_many(items)
        reference.write_many(items)
        for _ in range(2):  # repeated reads advance disturb identically
            striped_reads = striped.read_many(list(range(24)))
            reference_reads = reference.read_many(list(range(24)))
            for (got, _), (expected, _), payload in zip(
                striped_reads, reference_reads, payloads
            ):
                assert got == expected == payload
        assert (
            striped.stats.corrected_bits > 0
        ), "EOL RBER should exercise the ECC"
        assert striped.stats.corrected_bits == reference.stats.corrected_bits

    def test_scalar_ops_match_reference(self):
        seed = 31
        striped = DieStripedFtl(_ssd(seed=seed))
        reference = self._reference_ftl(seed)
        payload = _payloads(1, seed=5)[0]
        striped.write_many([(0, payload)])
        reference.write(0, payload)
        assert striped.read_many([0])[0][0] == reference.read(0)[0] == payload
        striped.trim(0)
        assert not striped.is_mapped(0)


class TestMultiDie:
    def test_data_integrity_across_dies(self):
        ftl = DieStripedFtl(_ssd(channels=2, dies_per_channel=2))
        payloads = _payloads(32)
        ftl.write_many(list(enumerate(payloads)))
        for (data, _), payload in zip(
            ftl.read_many(list(range(32))), payloads
        ):
            assert data == payload

    def test_reads_overlap_across_dies(self):
        items = list(enumerate(_payloads(32)))
        lpns = [lpn for lpn, _ in items]
        single = DieStripedFtl(_ssd())
        single.write_many(items)
        single.read_many(lpns)
        quad = DieStripedFtl(_ssd(channels=4, dies_per_channel=1))
        quad.write_many(items)
        quad.read_many(lpns)
        speedup = (
            single.last_schedule.makespan_s / quad.last_schedule.makespan_s
        )
        assert speedup >= 2.0

    def test_stats_aggregate_across_shards(self):
        ftl = DieStripedFtl(_ssd(channels=2, dies_per_channel=2))
        ftl.write_many(list(enumerate(_payloads(16))))
        ftl.read_many(list(range(16)))
        assert ftl.stats.host_writes == 16
        assert ftl.stats.host_reads == 16
        assert ftl.gc_stats.collections == sum(
            shard.gc.stats.collections for shard in ftl.shards
        )

    def test_queue_depth_one_is_slowest(self):
        ftl = DieStripedFtl(_ssd(channels=2, dies_per_channel=2))
        items = list(enumerate(_payloads(16)))
        ftl.write_many(items)
        ftl.read_many(list(range(16)), queue_depth=1)
        serial = ftl.last_schedule.makespan_s
        ftl.read_many(list(range(16)))
        deep = ftl.last_schedule.makespan_s
        assert serial > deep


class TestDeterminism:
    def test_same_seed_same_completion_order_and_clock(self):
        def run_once():
            ftl = DieStripedFtl(_ssd(channels=2, dies_per_channel=2, seed=17))
            ftl.write_many(list(enumerate(_payloads(24))), queue_depth=6)
            ftl.read_many(list(range(24)), queue_depth=6)
            return ftl.last_schedule

        first, second = run_once(), run_once()
        assert first.completion_order() == second.completion_order()
        assert first.makespan_s == second.makespan_s
        assert [c.done_s for c in first.completions] == [
            c.done_s for c in second.completions
        ]


class TestHostRunner:
    def test_run_ssd_workload_scales_with_topology(self):
        trace = queued_playback_trace(
            streams=4, blocks_per_stream=1, pages_per_block=4, read_passes=2
        )
        results = {}
        for channels, dies in ((1, 1), (4, 1)):
            ftl = DieStripedFtl(_ssd(channels=channels, dies_per_channel=dies))
            workload = HostWorkload.from_trace("playback", trace, batch_pages=16)
            results[(channels, dies)] = run_ssd_workload(ftl, workload)
        single, quad = results[(1, 1)], results[(4, 1)]
        assert quad.read_mb_s / single.read_mb_s >= 2.0
        assert quad.stats.reads == single.stats.reads
        assert quad.corrected_bits > 0


class TestStoredCapability:
    def test_read_holds_the_ecc_engine_for_the_stored_t(self):
        """A page written at t = 4 and read after a switch to t = 65
        holds the ECC engine for the t = 4 decode interval."""
        ftl = DieStripedFtl(_ssd(wear=0))
        (shard,) = ftl.shards
        shard.apply_config(IsppAlgorithm.SV, 4)
        ftl.stage_writes([(0, _payloads(1)[0])])
        shard.apply_config(IsppAlgorithm.SV, 65)
        _, (command,) = ftl.stage_reads([0])
        codec = shard.controller.codec
        decode = command.phases[-1]
        assert decode.hold_s == codec.decode_interval_s(4)
        assert decode.hold_s < codec.decode_interval_s(65)
