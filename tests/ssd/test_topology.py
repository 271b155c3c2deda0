"""SSD topology description tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nand.geometry import NandGeometry
from repro.ssd.topology import SsdTopology, spawn_die_rngs


class TestTopology:
    def test_defaults_single_die(self):
        topology = SsdTopology()
        assert topology.dies == 1
        assert topology.channel_of(0) == 0
        assert topology.capacity_bytes == topology.geometry.capacity_bytes

    def test_die_enumeration_is_channel_first(self):
        topology = SsdTopology(channels=4, dies_per_channel=2)
        # Consecutive die indices alternate channels before stacking
        # dies behind one bus (round-robin striping hits every bus).
        assert [topology.channel_of(i) for i in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_capacity_scales_with_dies(self):
        geometry = NandGeometry(blocks=4, pages_per_block=8)
        topology = SsdTopology(
            channels=2, dies_per_channel=3, geometry=geometry
        )
        assert topology.pages == 6 * geometry.pages
        assert topology.capacity_bytes == 6 * geometry.capacity_bytes

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            SsdTopology(channels=0)
        with pytest.raises(ConfigurationError):
            SsdTopology(dies_per_channel=0)
        with pytest.raises(ConfigurationError):
            SsdTopology(channels=2).channel_of(2)

    def test_describe(self):
        assert SsdTopology(channels=2, dies_per_channel=4).describe() == (
            "2ch x 4die"
        )


class TestRngSpawning:
    def test_streams_are_reproducible(self):
        first = spawn_die_rngs(42, 4)
        second = spawn_die_rngs(42, 4)
        for a, b in zip(first, second):
            assert a.bytes(64) == b.bytes(64)

    def test_streams_are_independent(self):
        rngs = spawn_die_rngs(42, 4)
        draws = {rng.bytes(64) for rng in rngs}
        assert len(draws) == 4

    def test_single_die_matches_prefix_of_wider_spawn(self):
        # Die d of an N-die SSD keeps its stream as the SSD widens.
        narrow = spawn_die_rngs(7, 1)[0]
        wide = spawn_die_rngs(7, 4)[0]
        assert narrow.bytes(64) == wide.bytes(64)
