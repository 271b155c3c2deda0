"""NAND operation timing model and command-phase decomposition.

Converts an :class:`IsppResult` into wall-clock program time: every pulse
costs a wordline setup plus the pulse width; every verify operation is a
threshold-voltage read at one verify level.  The 75 us array read and the
block erase come from the Micron MT29F-class datasheet the paper cites.

Beyond the scalar latencies, the model decomposes whole commands into
first-class :class:`CommandPhase` sequences — sense / program / erase on
an array plane, transfer on the channel bus, encode / decode on the
channel ECC engine.  The SSD command scheduler executes those phases
against its resource model, which is what makes cache reads (sense page
i+1 under the transfer of page i), multi-plane programs and
channel-pipelined ECC expressible at all: a phase carries both its
*duration* (when its output is ready) and its resource *hold time* (when
the next command may enter the same unit), so a section-pipelined BCH
engine can accept a new page every ``hold_s`` while each page still takes
``duration_s`` end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro import units
from repro.errors import SimulationError
from repro.nand.ispp import IsppResult
from repro.params import NandTimingParams


class PhaseResource(enum.Enum):
    """Serially-reusable hardware unit a command phase occupies."""

    #: NAND array plane (sense / ISPP program / erase busy time).
    PLANE = "plane"
    #: Flash-channel bus (page data transfer).
    CHANNEL = "channel"
    #: Per-channel BCH engine (encode / decode).
    ECC = "ecc"


@dataclass(frozen=True)
class CommandPhase:
    """One stage of a NAND command against one hardware resource.

    ``duration_s`` is how long the phase takes end to end (the command
    cannot proceed to its next phase earlier).  ``hold_s`` is how long the
    phase occupies its resource before the *next* command may enter it;
    it defaults to the full duration and is smaller only for internally
    pipelined units (a section-pipelined BCH decoder accepts a new page
    every max-section interval while each page takes the sum of sections).
    """

    resource: PhaseResource
    duration_s: float
    hold_s: float | None = None

    def __post_init__(self) -> None:
        # ``not x >= 0`` also rejects NaN, which ``x < 0`` lets through.
        if not self.duration_s >= 0:
            raise SimulationError("phase duration must be non-negative")
        if self.hold_s is not None and not 0 <= self.hold_s <= self.duration_s:
            raise SimulationError(
                "phase hold time must lie in [0, duration]"
            )

    @property
    def occupancy_s(self) -> float:
        """Effective resource hold time."""
        return self.duration_s if self.hold_s is None else self.hold_s


@dataclass(frozen=True)
class ProgramTiming:
    """Decomposition of one page program operation (seconds)."""

    pulses: int
    verify_ops: int
    preverify_ops: int
    pulse_time_s: float
    verify_time_s: float
    overhead_s: float

    @property
    def total_s(self) -> float:
        """End-to-end program time."""
        return self.pulse_time_s + self.verify_time_s + self.overhead_s


class NandTimingModel:
    """Maps ISPP activity to operation latencies and command phases."""

    #: Fixed command/address/strobe overhead per program operation.
    COMMAND_OVERHEAD_S = units.us(5)

    def __init__(self, params: NandTimingParams | None = None):
        self.params = params or NandTimingParams()

    def program_timing(self, result: IsppResult) -> ProgramTiming:
        """Program time of a simulated page operation."""
        p = self.params
        return ProgramTiming(
            pulses=result.pulses,
            verify_ops=result.verify_ops,
            preverify_ops=result.preverify_ops,
            pulse_time_s=result.pulses * (p.t_pulse_setup + p.t_program_pulse),
            verify_time_s=(
                result.verify_ops * p.t_verify
                + result.preverify_ops * p.t_preverify
            ),
            overhead_s=self.COMMAND_OVERHEAD_S,
        )

    def read_time_s(self) -> float:
        """Array page read time (sensing into the page buffer)."""
        return self.params.t_read_array

    def erase_time_s(self) -> float:
        """Block erase time."""
        return self.params.t_erase

    def cache_busy_s(self) -> float:
        """Cache-read handoff busy time (tRCBSY): page buffer -> cache
        register before the plane may sense the next page."""
        return self.params.t_cache_busy

    # -- command-phase decomposition ----------------------------------------

    @staticmethod
    @lru_cache(maxsize=4096)
    def read_phases(
        sense_s: float,
        transfer_s: float,
        decode_s: float = 0.0,
        decode_hold_s: float | None = None,
    ) -> tuple[CommandPhase, ...]:
        """Phases of one page read: sense -> bus transfer -> ECC decode.

        ``decode_hold_s`` is the pipelined decoder's initiation interval
        (clamped to the decode duration); omit it for a non-pipelined
        engine.  A zero decode duration (raw, ECC-less read) drops the
        decode phase entirely.

        Cached (phases are immutable): a die-striped stream re-derives
        the same few timing shapes for every page, so identical
        parameters return the *same* tuple object — downstream per-plan
        caches can then hit on identity instead of re-hashing phases.
        """
        phases = [
            CommandPhase(PhaseResource.PLANE, sense_s),
            CommandPhase(PhaseResource.CHANNEL, transfer_s),
        ]
        if decode_s > 0:
            hold = None if decode_hold_s is None else min(decode_hold_s, decode_s)
            phases.append(CommandPhase(PhaseResource.ECC, decode_s, hold))
        return tuple(phases)

    @staticmethod
    @lru_cache(maxsize=4096)
    def program_phases(
        program_s: float,
        transfer_s: float,
        encode_s: float = 0.0,
        encode_hold_s: float | None = None,
    ) -> tuple[CommandPhase, ...]:
        """Phases of one page program: ECC encode -> bus transfer -> ISPP.

        Cached like :meth:`read_phases` (same identity-reuse rationale).
        """
        phases: list[CommandPhase] = []
        if encode_s > 0:
            hold = None if encode_hold_s is None else min(encode_hold_s, encode_s)
            phases.append(CommandPhase(PhaseResource.ECC, encode_s, hold))
        phases.append(CommandPhase(PhaseResource.CHANNEL, transfer_s))
        phases.append(CommandPhase(PhaseResource.PLANE, program_s))
        return tuple(phases)

    @staticmethod
    @lru_cache(maxsize=1024)
    def erase_phases(erase_s: float) -> tuple[CommandPhase, ...]:
        """Phases of one block erase (array-only, nothing on the bus)."""
        return (CommandPhase(PhaseResource.PLANE, erase_s),)
