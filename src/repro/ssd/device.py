"""Multi-die SSD device: one NAND controller per die, shared policy.

Replicates the paper's characterised unit — one NAND die behind one BCH
channel — across the topology.  Every die gets its own
:class:`~repro.nand.device.NandFlashDevice` (independent, reproducible
RNG stream) wrapped in its own :class:`~repro.controller.NandController`,
all driven by one cross-layer policy so a mode change reconfigures the
whole SSD.  The device holds no queue: a
:class:`~repro.ssd.striped.DieStripedFtl` over it routes host I/O, and
an :class:`~repro.ssd.session.SsdSession` plays its commands out on a
timeline.
"""

from __future__ import annotations

import numpy as np

from repro.controller.controller import (
    ControllerConfig,
    NandController,
    default_policy,
)
from repro.controller.ocp import OcpParams
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import ConfigurationError
from repro.ssd.scheduler import PipelineConfig
from repro.ssd.topology import SsdTopology, spawn_die_rngs


class SsdDevice:
    """A farm of per-die controllers under one cross-layer policy."""

    def __init__(
        self,
        topology: SsdTopology | None = None,
        policy: CrossLayerPolicy | None = None,
        controller_config: ControllerConfig | None = None,
        ocp_params: OcpParams | None = None,
        seed: int | None = None,
        rngs: list[np.random.Generator] | None = None,
        pipeline: PipelineConfig | None = None,
    ):
        self.topology = topology or SsdTopology()
        self.policy = policy or default_policy(
            self.topology.geometry, controller_config or ControllerConfig()
        )
        self.pipeline = pipeline or PipelineConfig()
        if rngs is None:
            rngs = spawn_die_rngs(seed, self.topology.dies)
        if len(rngs) != self.topology.dies:
            raise ConfigurationError(
                f"{len(rngs)} RNG streams for {self.topology.dies} dies"
            )
        self.controllers = [
            NandController(
                self.topology.geometry,
                config=controller_config,
                policy=self.policy,
                ocp_params=ocp_params,
                rng=rng,
            )
            for rng in rngs
        ]

    @property
    def geometry(self):
        """Per-die NAND geometry."""
        return self.topology.geometry

    def set_mode(
        self, mode: OperatingMode, pe_reference: float | None = None
    ) -> None:
        """Select a service level on every die's controller."""
        if pe_reference is None:
            pe_reference = float(self.max_wear())
        for controller in self.controllers:
            controller.set_mode(mode, pe_reference)

    def max_wear(self) -> int:
        """Highest block wear across every die."""
        return max(
            controller.device.array.max_wear()
            for controller in self.controllers
        )
