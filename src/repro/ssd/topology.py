"""SSD topology: channels x dies on top of the per-die NAND geometry.

The paper characterises one NAND die behind one BCH channel; a real SSD
replicates that unit — several flash channels, each with its own bus and
ECC engine, each bus shared by several dies.  :class:`SsdTopology`
captures that organisation as a pure-description extension of
:class:`~repro.nand.geometry.NandGeometry`: every die keeps the full
per-die geometry (pages, blocks, planes-in-spirit), and the topology adds
the channel/die fan-out.  A command's bus time comes from its die's
controller (:class:`~repro.controller.ocp.OcpParams`), not from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.nand.geometry import NandGeometry


@dataclass(frozen=True)
class SsdTopology:
    """Static SSD organisation: ``channels`` buses x ``dies_per_channel``.

    Die indices enumerate channel-first (die ``i`` sits on channel
    ``i % channels``), so round-robin striping alternates buses before
    stacking dies behind the same bus — adjacent logical pages land on
    different channels and transfer in parallel.
    """

    channels: int = 1
    dies_per_channel: int = 1
    geometry: NandGeometry = field(default_factory=NandGeometry)

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.dies_per_channel <= 0:
            raise ConfigurationError(
                "topology needs at least one channel and one die per channel"
            )

    @property
    def dies(self) -> int:
        """Total die count."""
        return self.channels * self.dies_per_channel

    @property
    def capacity_bytes(self) -> int:
        """Usable data capacity across every die."""
        return self.dies * self.geometry.capacity_bytes

    @property
    def pages(self) -> int:
        """Total pages across every die."""
        return self.dies * self.geometry.pages

    def channel_of(self, die_index: int) -> int:
        """Channel whose bus serves the given die."""
        if not 0 <= die_index < self.dies:
            raise ConfigurationError(
                f"die {die_index} out of range 0..{self.dies - 1}"
            )
        return die_index % self.channels

    def describe(self) -> str:
        """Short human-readable label, e.g. ``2ch x 4die``."""
        return f"{self.channels}ch x {self.dies_per_channel}die"


def group_indices_by_die(dies: list[int]) -> dict[int, list[int]]:
    """Positions of each die in a per-operation die list, order kept.

    ``[2, 0, 2] -> {2: [0, 2], 0: [1]}``; the striped FTL router's
    per-die sub-batch grouping.
    """
    per_die: dict[int, list[int]] = {}
    for index, die in enumerate(dies):
        per_die.setdefault(die, []).append(index)
    return per_die


def spawn_die_rngs(seed: int | None, dies: int) -> list[np.random.Generator]:
    """Independent, reproducible per-die RNG streams from one seed.

    Children are spawned through :class:`numpy.random.SeedSequence`, so
    die ``d`` of an N-die SSD sees the same stream in every run with the
    same seed (and the 1x1 topology's only die matches a standalone
    device built from ``spawn_die_rngs(seed, 1)[0]``).
    """
    children = np.random.SeedSequence(seed).spawn(dies)
    return [np.random.default_rng(child) for child in children]
