"""MLC threshold-voltage levels, read/verify thresholds and Gray mapping.

Reproduces Fig. 3 of the paper: four levels L0-L3, read levels R1-R3
between them, verify levels VFY1-VFY3 at the lower edge of each programmed
level, and the over-programming bound OP above L3.

The 2-bit Gray mapping is the standard 11 / 10 / 00 / 01 assignment, so a
cell misread into an *adjacent* level corrupts exactly one of its two bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: Gray code per level index L0..L3 (bit1 = upper page, bit0 = lower page).
GRAY_MAP: tuple[int, int, int, int] = (0b11, 0b10, 0b00, 0b01)

#: Inverse map: 2-bit pattern -> level index.
LEVEL_OF_PATTERN: dict[int, int] = {pattern: i for i, pattern in enumerate(GRAY_MAP)}


@dataclass(frozen=True)
class MlcLevels:
    """Voltage plan of the four-level cell (all values in volts).

    Defaults place the programmed level means ~125 mV above their verify
    level (the average ISPP-SV overshoot with a 250 mV step) and the read
    levels midway between adjacent programmed means, giving the symmetric
    ~0.6 V sensing margins the RBER calibration assumes.
    """

    erased_mean: float = -3.0
    erased_sigma: float = 0.35
    verify: tuple[float, float, float] = (0.8, 2.0, 3.2)
    read: tuple[float, float, float] = (-1.0, 1.645, 2.845)
    over_program: float = 4.045

    def __post_init__(self) -> None:
        if list(self.verify) != sorted(self.verify):
            raise ConfigurationError("verify levels must be ascending")
        if list(self.read) != sorted(self.read):
            raise ConfigurationError("read levels must be ascending")
        if self.read[0] <= self.erased_mean:
            raise ConfigurationError("R1 must sit above the erased distribution mean")
        for r, v in zip(self.read[1:], self.verify[:2], strict=False):
            if r <= v:
                raise ConfigurationError("read levels must interleave verify levels")
        if self.over_program <= self.verify[2]:
            raise ConfigurationError("OP level must sit above VFY3")

    def verify_target(self, level: int) -> float | None:
        """Verify voltage for a programmed level; None for L0 (stay erased)."""
        if level == 0:
            return None
        if not 1 <= level <= 3:
            raise ConfigurationError(f"level must be 0..3, got {level}")
        return self.verify[level - 1]

    # -- data <-> level ------------------------------------------------------

    @staticmethod
    def levels_from_bits(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """Target level per cell from its two data bits (Gray mapping)."""
        patterns = (np.asarray(upper, dtype=np.int64) << 1) | np.asarray(
            lower, dtype=np.int64
        )
        lut = np.empty(4, dtype=np.int64)
        for pattern, level in LEVEL_OF_PATTERN.items():
            lut[pattern] = level
        return lut[patterns]

    @staticmethod
    def bits_from_levels(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(upper, lower) bit arrays read back from level indices."""
        gray = np.asarray(GRAY_MAP, dtype=np.int64)[np.asarray(levels, dtype=np.int64)]
        return (gray >> 1) & 1, gray & 1

    # -- sensing -----------------------------------------------------------------

    def classify(self, vth: np.ndarray) -> np.ndarray:
        """Level read back for each threshold voltage (R1-R3 comparisons)."""
        thresholds = np.asarray(self.read, dtype=np.float64)
        return np.searchsorted(thresholds, np.asarray(vth, dtype=np.float64))

    def bit_errors(self, programmed_levels: np.ndarray, vth: np.ndarray) -> int:
        """Total erroneous data bits when sensing ``vth`` against the plan.

        Over-programmed cells (VTH above OP) are counted as a whole-cell
        read failure (2 bad bits): they block the sensing of other cells on
        the same bitline in a real array.
        """
        read_levels = self.classify(vth)
        gray = np.asarray(GRAY_MAP, dtype=np.int64)
        diff = gray[np.asarray(programmed_levels, dtype=np.int64)] ^ gray[read_levels]
        errors = int(np.sum((diff >> 1) & 1) + np.sum(diff & 1))
        overprogrammed = int(np.count_nonzero(
            (np.asarray(vth) > self.over_program)
            & (np.asarray(programmed_levels) == 3)
        ))
        return errors + 2 * overprogrammed

    def margins(self) -> dict[str, float]:
        """Nominal sensing margins (level mean to nearest read level)."""
        means = self.nominal_means()
        return {
            "L1_lower": means[1] - self.read[0],
            "L1_upper": self.read[1] - means[1],
            "L2_lower": means[2] - self.read[1],
            "L2_upper": self.read[2] - means[2],
            "L3_lower": means[3] - self.read[2],
            "L3_upper": self.over_program - means[3],
        }

    def nominal_means(self, overshoot: float = 0.245) -> tuple[float, ...]:
        """Nominal level means: verify + average overshoot + mean CCI shift.

        The default lumps the average ISPP-SV overshoot (delta/2 = 125 mV)
        and the mean cell-to-cell interference shift (~120 mV) that read
        levels are trimmed against.
        """
        return (
            self.erased_mean,
            self.verify[0] + overshoot,
            self.verify[1] + overshoot,
            self.verify[2] + overshoot,
        )
