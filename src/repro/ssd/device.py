"""Multi-die SSD device: one NAND controller per die, shared policy.

Replicates the paper's characterised unit — one NAND die behind one BCH
channel — across the topology.  Every die gets its own
:class:`~repro.nand.device.NandFlashDevice` (independent, reproducible
RNG stream) wrapped in its own :class:`~repro.controller.NandController`,
all driven by one cross-layer policy so a mode change reconfigures the
whole SSD.  Raw device-level batch I/O fans out through the device's
persistent :class:`~repro.ssd.session.SsdSession` (one queue pair per
device, shared by every striped FTL over it), which turns per-die
sub-batches into an interleaved DES timeline on the resident
:class:`~repro.ssd.scheduler.SchedulerCore`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.controller.controller import ControllerConfig, NandController
from repro.controller.ocp import OcpParams
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import ConfigurationError
from repro.nand.ispp import IsppAlgorithm
from repro.nand.timing import NandTimingModel
from repro.ssd.scheduler import (
    CommandKind,
    DieCommand,
    PipelineConfig,
    ScheduleResult,
)
from repro.ssd.topology import (
    SsdTopology,
    group_indices_by_die,
    spawn_die_rngs,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session uses device)
    from repro.ssd.session import SsdSession

#: A device-level page address: (die, block, page).
DiePageAddress = tuple[int, int, int]


class SsdDevice:
    """A farm of per-die controllers behind one device-wide session."""

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
        self.policy = policy or CrossLayerPolicy()
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
        self._session: "SsdSession | None" = None

    @property
    def session(self) -> "SsdSession":
        """The device-wide queue pair (created on first use).

        All striped FTLs (and raw batch I/O) over this device share it,
        so their commands contend on one persistent timeline.
        """
        if self._session is None:
            from repro.ssd.session import SsdSession

            self._session = SsdSession(ssd=self)
        return self._session

    # -- topology-wide configuration -------------------------------------------

    @property
    def geometry(self):
        """Per-die NAND geometry."""
        return self.topology.geometry

    @property
    def mode(self) -> OperatingMode:
        """Active operating mode (uniform across dies)."""
        return self.controllers[0].mode

    def controller(self, die: int) -> NandController:
        """The controller in front of one die."""
        self.topology._check_die(die)
        return self.controllers[die]

    def set_mode(
        self, mode: OperatingMode, pe_reference: float | None = None
    ) -> None:
        """Select a service level on every die's controller."""
        if pe_reference is None:
            pe_reference = float(self.max_wear())
        for controller in self.controllers:
            controller.set_mode(mode, pe_reference)

    def apply_config(self, algorithm: IsppAlgorithm, ecc_t: int) -> None:
        """Program the cross-layer knobs on every die's controller."""
        for controller in self.controllers:
            controller.apply_config(algorithm, ecc_t)

    def max_wear(self) -> int:
        """Highest block wear across every die."""
        return max(
            controller.device.array.max_wear()
            for controller in self.controllers
        )

    # -- raw device-level batch I/O ------------------------------------------------

    def program_pages(
        self,
        addresses: list[DiePageAddress],
        datas: list[bytes],
        queue_depth: int | None = None,
    ) -> ScheduleResult:
        """Program a batch across dies; returns the scheduled timeline.

        Data lands through each die's batched
        :meth:`~repro.nand.device.NandFlashDevice.program_pages` (so a
        1x1 topology is byte-identical to the single-device path); the
        schedule overlaps per-die program phases behind the channel
        transfers.
        """
        if len(addresses) != len(datas):
            raise ConfigurationError(
                f"{len(addresses)} addresses for {len(datas)} data buffers"
            )
        per_die = self._group_by_die(addresses)
        transfer_s = self.topology.channel_timing.transfer_time_s(
            self.geometry.page_bytes
        )
        commands: list[DieCommand] = []
        for die, indices in per_die.items():
            device = self.controllers[die].device
            reports = device.program_pages(
                [addresses[i][1:] for i in indices],
                [datas[i] for i in indices],
            )
            commands.extend(
                DieCommand.from_phases(
                    CommandKind.PROGRAM,
                    die,
                    index,
                    NandTimingModel.program_phases(
                        program_s=report.latency_s, transfer_s=transfer_s
                    ),
                    plane=self.geometry.plane_of_block(addresses[index][1]),
                )
                for index, report in zip(indices, reports)
            )
        commands.sort(key=lambda command: command.tag)
        return self.session.execute(commands, queue_depth)

    def read_pages(
        self,
        addresses: list[DiePageAddress],
        queue_depth: int | None = None,
    ) -> tuple[np.ndarray, ScheduleResult]:
        """Read a batch across dies: raw rows in submission order + timeline.

        Each die senses its sub-batch through the batched device datapath
        (vectorized RBER and error injection, per-die RNG stream), so the
        1x1 topology returns bytes identical to a standalone
        :class:`~repro.nand.device.NandFlashDevice` seeded with the same
        stream.
        """
        per_die = self._group_by_die(addresses)
        transfer_s = self.topology.channel_timing.transfer_time_s(
            self.geometry.page_bytes
        )
        rows = np.empty(
            (len(addresses), self.geometry.page_bytes), dtype=np.uint8
        )
        commands: list[DieCommand] = []
        for die, indices in per_die.items():
            device = self.controllers[die].device
            raw, report = device.read_pages([addresses[i][1:] for i in indices])
            rows[indices] = raw
            commands.extend(
                DieCommand.from_phases(
                    CommandKind.READ,
                    die,
                    index,
                    NandTimingModel.read_phases(
                        sense_s=report.latency_s, transfer_s=transfer_s
                    ),
                    plane=self.geometry.plane_of_block(addresses[index][1]),
                    cache_busy_s=device.timing.cache_busy_s(),
                )
                for index in indices
            )
        commands.sort(key=lambda command: command.tag)
        return rows, self.session.execute(commands, queue_depth)

    # -- helpers -------------------------------------------------------------------

    def _group_by_die(
        self, addresses: list[DiePageAddress]
    ) -> dict[int, list[int]]:
        """Submission indices grouped by die, dies validated."""
        dies = [die for die, _, _ in addresses]
        for die in dies:
            self.topology._check_die(die)
        return group_indices_by_die(dies)
