"""Top-level NAND memory controller — the library's main system object.

Composes every section-3 component (OCP socket, registers, page buffer,
adaptive BCH codec, reliability manager) on top of the NAND device model
and exposes the cross-layer knobs:

>>> controller = NandController()
>>> controller.set_mode(OperatingMode.MAX_READ_THROUGHPUT)
>>> report = controller.write(block=0, page=0, data=bytes(4096))
>>> data, read_report = controller.read(block=0, page=0)

Configuration changes go through the command/status registers exactly as
bus-issued configuration commands would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import params as canon
from repro.bch.codec import AdaptiveBCHCodec
from repro.bch.params import minimum_field_degree
from repro.controller.core import CoreControllerFsm, StageLatencies
from repro.controller.ocp import OcpInterface, OcpParams
from repro.controller.registers import CommandStatusRegisters
from repro.controller.reliability import ReliabilityManager, ReliabilityPolicy
from repro.controller.spare import SpareAreaLayout
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import ConfigurationError, ControllerError
from repro.nand.device import NandFlashDevice
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm


@dataclass(frozen=True)
class ControllerConfig:
    """Construction-time parameters."""

    t_max: int = canon.T_MAX
    t_min: int = 1
    self_adaptive: bool = False
    strict_decode: bool = True


@dataclass(frozen=True)
class WriteReport:
    """Telemetry of one page write.

    ``block``/``page`` name the physical page the data landed on (-1 for
    legacy construction); the SSD layer derives the array plane from the
    block when building multi-plane command phases.
    """

    latencies: StageLatencies
    ecc_t: int
    algorithm: IsppAlgorithm
    block: int = -1
    page: int = -1


@dataclass(frozen=True)
class ReadReport:
    """Telemetry of one page read (``block``/``page`` as in WriteReport)."""

    latencies: StageLatencies
    ecc_t: int
    corrected_bits: int
    success: bool
    block: int = -1
    page: int = -1


def default_policy(
    geometry: NandGeometry, config: ControllerConfig
) -> CrossLayerPolicy:
    """The policy for the code a controller of ``geometry`` runs: the
    config's t range, the page's k and the field degree of its largest
    t, the one field the controller's codec designs every t over
    (``CrossLayerPolicy()`` for a 4 KiB page and the default config).
    """
    k = geometry.page_data_bits
    return CrossLayerPolicy(
        t_max=config.t_max, t_min=config.t_min, k=k,
        m=minimum_field_degree(k, config.t_max),
    )


class NandController:
    """The paper's advanced controller architecture, end to end."""

    def __init__(
        self,
        geometry: NandGeometry | None = None,
        config: ControllerConfig | None = None,
        policy: CrossLayerPolicy | None = None,
        ocp_params: OcpParams | None = None,
        reliability_policy: ReliabilityPolicy | None = None,
        device: NandFlashDevice | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.geometry = geometry or NandGeometry()
        self.config = config or ControllerConfig()
        k = self.geometry.page_data_bits
        m = minimum_field_degree(k, self.config.t_max)
        self.policy = policy or default_policy(self.geometry, self.config)
        if not (self.config.t_min <= self.policy.t_min
                and self.policy.t_max <= self.config.t_max):
            raise ConfigurationError(
                f"policy t range [{self.policy.t_min}, {self.policy.t_max}] "
                f"exceeds the codec's [{self.config.t_min}, {self.config.t_max}]"
            )
        if (self.policy.k, self.policy.m) != (k, m):
            raise ConfigurationError(
                f"policy code (k={self.policy.k}, m={self.policy.m}) differs "
                f"from the codec's (k={k}, m={m})"
            )
        self.device = device or NandFlashDevice(
            self.geometry, rber_model=self.policy.rber_model, rng=rng
        )
        self.codec = AdaptiveBCHCodec(
            k=k,
            t_max=self.config.t_max,
            t_min=self.config.t_min,
            m=m,
        )
        self.registers = CommandStatusRegisters()
        self.ocp = OcpInterface(ocp_params, self.registers)
        self.spare = SpareAreaLayout(spare_bytes=self.geometry.page_spare_bytes)
        self.fsm = CoreControllerFsm(self.codec, self.device, self.ocp, self.spare)
        self.reliability = ReliabilityManager(
            self.codec, self.policy, reliability_policy
        )
        self._apply_mode_config(pe_reference=0.0)

    # -- cross-layer configuration ------------------------------------------

    @property
    def mode(self) -> OperatingMode:
        """Active operating mode (held by the reliability manager)."""
        return self.reliability.mode

    def set_mode(self, mode: OperatingMode, pe_reference: float | None = None) -> None:
        """Select a service level (user-facing cross-layer knob).

        ``pe_reference`` anchors the policy's age estimate; by default the
        worst-case block wear observed so far is used.
        """
        self.reliability.mode = mode
        self.registers.set_named("OPERATING_MODE", mode.register_code)
        self._apply_mode_config(pe_reference)

    def _apply_mode_config(self, pe_reference: float | None) -> None:
        age = (
            float(self.device.array.max_wear())
            if pe_reference is None
            else pe_reference
        )
        cfg = self.policy.config_for(self.mode, age)
        self.apply_config(cfg.algorithm, cfg.ecc_t)

    def apply_config(self, algorithm: IsppAlgorithm, ecc_t: int) -> None:
        """Program the two knobs through the register file."""
        parity = self.codec.parity_bytes(ecc_t)
        if not self.spare.fits(parity):
            raise ControllerError(
                f"t={ecc_t} parity does not fit the spare area"
            )
        self.registers.set_named("ECC_T", ecc_t)
        self.registers.set_named(
            "PROGRAM_ALGORITHM", 1 if algorithm is IsppAlgorithm.DV else 0
        )
        self.codec.set_correction_capability(ecc_t)
        self.device.select_program_algorithm(algorithm)

    # -- data operations ------------------------------------------------------------

    def write(self, block: int, page: int, data: bytes) -> WriteReport:
        """Encode and program one page: a batch of one."""
        return self.write_batch([(block, page, data)])[0]

    def _update_telemetry_registers(self) -> None:
        obs = self.codec.observation()
        self.registers.set_named(
            "CORRECTED_BITS", obs.bits_corrected & 0xFFFFFFFF
        )
        self.registers.set_named(
            "DECODE_FAILURES", obs.words_failed & 0xFFFFFFFF
        )

    @property
    def _self_adaptive(self) -> bool:
        return bool(
            self.config.self_adaptive
            or self.registers.get_named("SELF_ADAPTIVE")
        )

    def _maybe_adapt(self) -> None:
        decision = self.reliability.after_read(self.device.program_algorithm)
        if decision is not None and decision.changed:
            self.apply_config(decision.config.algorithm, decision.config.ecc_t)

    def _read_report(self, flow, block: int, page: int) -> ReadReport:
        assert flow.decode is not None
        return ReadReport(
            latencies=flow.latencies,
            ecc_t=flow.ecc_t,
            corrected_bits=flow.decode.corrected_bits,
            success=flow.decode.success,
            block=block,
            page=page,
        )

    def read(self, block: int, page: int) -> tuple[bytes, ReadReport]:
        """Read and correct one page: a batch of one."""
        return self.read_batch([(block, page)])[0]

    def write_batch(
        self, ops: list[tuple[int, int, bytes]]
    ) -> list[WriteReport]:
        """Encode and program a batch of pages through the vectorized ECC
        datapath (one ``encode_batch`` for the whole group)."""
        flows = self.fsm.write_pages(ops)
        return [
            WriteReport(
                latencies=flow.latencies,
                ecc_t=flow.ecc_t,
                algorithm=self.device.program_algorithm,
                block=block,
                page=page,
            )
            for (block, page, _), flow in zip(ops, flows)
        ]

    def read_batch(
        self, addresses: list[tuple[int, int]]
    ) -> list[tuple[bytes, ReadReport]]:
        """Read and correct a batch of pages (one ``decode_batch`` per
        stored capability) and update the telemetry registers.

        In self-adaptive mode adaptation decisions must observe the
        telemetry grow page by page (an epoch boundary can fall inside
        the batch), so that mode senses and decodes one page at a time:
        after each page it updates the registers, lets the reliability
        manager adapt, then reports the page.
        """
        adaptive = self._self_adaptive
        if adaptive:
            groups = [[address] for address in addresses]
        else:
            groups = [addresses]
        results = []
        for group in groups:
            flows = self.fsm.read_pages(
                group, strict=self.config.strict_decode
            )
            self._update_telemetry_registers()
            if adaptive:
                self._maybe_adapt()
            results.extend(
                (flow.data, self._read_report(flow, block, page))
                for (block, page), flow in zip(group, flows)
            )
        return results

    def erase(self, block: int) -> float:
        """Erase a block; returns the erase latency."""
        return self.fsm.erase_block(block)

    # -- telemetry -----------------------------------------------------------------

    def populate_counters(self, registry) -> None:
        """Add this die's codec-path counters to a SMART registry.

        Scalars accumulate across dies; the wrapped device contributes
        its media counters in the same pass.  Observed RBER is left to
        the assembler (it must be recomputed from the device-wide
        corrected/processed sums, not averaged per die).
        """
        obs = self.codec.observation()
        registry.add("ecc_words_decoded", obs.words_decoded, "codewords")
        registry.add("ecc_corrected_bits", obs.bits_corrected, "bits")
        registry.add("ecc_decode_failures", obs.words_failed, "codewords")
        registry.add("ecc_bits_processed", obs.bits_processed, "bits")
        self.device.populate_counters(registry)

    def status(self) -> dict[str, int | str]:
        """Controller status snapshot (registers + mode)."""
        return {
            "mode": self.mode.value,
            "ecc_t": self.registers.get_named("ECC_T"),
            "program_algorithm": (
                "ispp-dv" if self.registers.get_named("PROGRAM_ALGORITHM") else "ispp-sv"
            ),
            "corrected_bits": self.registers.get_named("CORRECTED_BITS"),
            "decode_failures": self.registers.get_named("DECODE_FAILURES"),
        }
