"""Canonical device and system parameters.

Single source of truth for the constants used throughout the reproduction.
Values are anchored to the paper's own checkpoints (see DESIGN.md §3):

* 2-bit/cell 45 nm low-power MLC NAND, VDD = 1.8 V;
* 4 KiB page (k = 32768 bits) + 224 B spare, BCH over GF(2^16);
* adaptive correction capability t in [1, 65], UBER target 1e-11;
* ECC clock 80 MHz, encoder/syndrome parallelism p = 8, Chien evaluator
  budget M = 260 Galois multipliers (h(t) = min(8, floor(M / t)));
* ISPP: 14 V to 19 V, delta = 250 mV; array read time 75 us;
* rated endurance 1e5 P/E cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import ConfigurationError

# ---------------------------------------------------------------------------
# Page / code geometry
# ---------------------------------------------------------------------------

#: Data bytes per page (4 KiB, the paper's ECC block size, section 6.2).
PAGE_DATA_BYTES = 4096

#: Spare bytes per page available for parity + filesystem metadata.
PAGE_SPARE_BYTES = 224

#: Message length in bits protected by one BCH codeword (full page).
MESSAGE_BITS = PAGE_DATA_BYTES * units.BITS_PER_BYTE

#: Galois field degree for the page-sized BCH code (2^16 - 1 = 65535 >= n).
GF_DEGREE = 16

#: Maximum correction capability instantiated by the paper (worst case SV).
T_MAX = 65

#: Minimum correction capability observed in the paper's best case.
T_MIN = 3

#: Target uncorrectable bit error rate (datasheet-class requirement).
UBER_TARGET = 1e-11

# ---------------------------------------------------------------------------
# ECC hardware model
# ---------------------------------------------------------------------------

#: Codec clock frequency (Fig. 8 caption: "Assumed operating speed is 80 MHz").
ECC_CLOCK_HZ = units.mhz(80)

#: Bits consumed per clock by the parallel LFSRs (encoder and syndrome units).
LFSR_PARALLELISM = 8

#: Maximum number of parallel Chien evaluations.
CHIEN_MAX_PARALLELISM = 8

#: Galois constant-multiplier budget for the Chien search (t * h multipliers
#: are needed for parallelism h at correction capability t, section 4).
CHIEN_MULTIPLIER_BUDGET = 4 * T_MAX

# ---------------------------------------------------------------------------
# NAND timings (Micron MT29F-class MLC device, paper section 6.3.2 / [27])
# ---------------------------------------------------------------------------

#: Array page read time (cell sensing + page buffer load).
T_READ_ARRAY = units.us(75)

#: ISPP pulse width used in production program operations.
T_PROGRAM_PULSE = units.us(7)

#: Wordline / bitline setup time preceding each program pulse.
T_PULSE_SETUP = units.us(3)

#: Single verify (threshold-voltage read at one verify level).
T_VERIFY = units.us(12)

#: ISPP-DV pre-verify strobe: shares the bitline precharge with the final
#: verify of the same level, so only the second sensing strobe is paid.
T_PREVERIFY = units.us(8)

#: Block erase time (not on the paper's critical path, datasheet typical).
T_ERASE = units.ms(2.5)

#: Cache-read busy gap (tRCBSY): page-buffer -> cache-register handoff
#: before the array may start sensing the next page (MT29F datasheet).
T_CACHE_BUSY = units.us(3)

# ---------------------------------------------------------------------------
# ISPP voltage staircase
# ---------------------------------------------------------------------------

#: First program-pulse amplitude.
VPP_START = 14.0

#: Last program-pulse amplitude the charge pump can deliver.
VPP_END = 19.0

#: Production ISPP step (section 5.1).
DELTA_ISPP = units.mv(250)

#: ISPP step used by the Fig. 4 model-fitting experiment.
DELTA_ISPP_CHARACTERIZATION = 1.0

#: Bitline-bias attenuation of the effective ISPP step between the DV
#: pre-verify and final verify levels (double-verify fine phase).
DV_STEP_ATTENUATION = 3.0

#: Offset of the DV pre-verify level below the final verify level [V].
DV_PREVERIFY_OFFSET = 0.3

# ---------------------------------------------------------------------------
# Supply / lifetime
# ---------------------------------------------------------------------------

#: NAND core supply voltage (low-power part).
VDD = 1.8

#: Rated endurance in program/erase cycles; the adaptive ECC is provisioned
#: so that t = T_MAX exactly covers RBER at this point.
RATED_PE_CYCLES = 1e5

#: Extended sweep endpoint used by Fig. 5 (raw RBER trend beyond rating).
EXTENDED_PE_CYCLES = 1e6

#: Fallback RNG seed for components constructed without an explicit
#: ``rng``.  Matches the CLI's ``--seed`` default, so ad-hoc component
#: construction reproduces the experiment suite's streams — nothing in
#: the stack draws from OS entropy (the DET101 lint rule enforces it).
DEFAULT_SEED = 2012


@dataclass(frozen=True)
class EccHardwareParams:
    """Structural parameters of the adaptive BCH codec hardware.

    Parameters mirror section 4 of the paper: a p-bit parallel programmable
    LFSR for encoding and syndromes, an inversionless Berlekamp-Massey
    machine iterating t times, and a Chien search whose parallelism h is
    bounded both by the instantiated evaluator datapath and by a constant
    Galois-multiplier budget (t * h multipliers are active at capability t).
    """

    clock_hz: float = ECC_CLOCK_HZ
    lfsr_parallelism: int = LFSR_PARALLELISM
    chien_max_parallelism: int = CHIEN_MAX_PARALLELISM
    chien_multiplier_budget: int = CHIEN_MULTIPLIER_BUDGET
    bm_cycles_per_iteration: int = 3
    pipeline_overhead_cycles: int = 8

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigurationError("clock frequency must be positive")
        if self.lfsr_parallelism < 1:
            raise ConfigurationError("LFSR parallelism must be >= 1")
        if self.chien_max_parallelism < 1:
            raise ConfigurationError("Chien parallelism must be >= 1")
        if self.chien_multiplier_budget < self.chien_max_parallelism:
            raise ConfigurationError(
                "multiplier budget cannot be below the maximum parallelism"
            )

    @property
    def clock_period_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_hz

    def chien_parallelism(self, t: int) -> int:
        """Usable Chien parallelism at correction capability ``t``.

        The evaluator needs ``t`` constant multipliers per parallel position;
        with a budget of ``M`` multipliers only ``floor(M / t)`` positions can
        be evaluated per cycle, capped by the instantiated datapath width.
        """
        if t < 1:
            raise ConfigurationError(f"correction capability must be >= 1, got {t}")
        return max(1, min(self.chien_max_parallelism, self.chien_multiplier_budget // t))


@dataclass(frozen=True)
class NandTimingParams:
    """Raw NAND array timing knobs used by the program/read timing model."""

    t_read_array: float = T_READ_ARRAY
    t_program_pulse: float = T_PROGRAM_PULSE
    t_pulse_setup: float = T_PULSE_SETUP
    t_verify: float = T_VERIFY
    t_preverify: float = T_PREVERIFY
    t_erase: float = T_ERASE
    t_cache_busy: float = T_CACHE_BUSY

    def __post_init__(self) -> None:
        for name in ("t_read_array", "t_program_pulse", "t_pulse_setup",
                     "t_verify", "t_preverify", "t_erase"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.t_cache_busy < 0:
            raise ConfigurationError("t_cache_busy must be non-negative")
