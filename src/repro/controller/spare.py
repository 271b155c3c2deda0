"""Spare-area budget accounting (paper section 2's critique of small-block
codes and section 6.2's 4 KiB-block design).

The spare area hosts the BCH parity *and* filesystem/FTL metadata; the
paper's argument for page-sized ECC blocks is precisely that fewer parity
bits leave room for system management.  This model checks that a requested
correction capability fits and reports the leftover metadata space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SpareAreaLayout:
    """Spare-area split between parity and system metadata."""

    spare_bytes: int = 224
    reserved_metadata_bytes: int = 16  # bad-block marks, logical address, seqno

    def __post_init__(self) -> None:
        if self.spare_bytes <= 0:
            raise ConfigurationError("spare area must be positive")
        if not 0 <= self.reserved_metadata_bytes < self.spare_bytes:
            raise ConfigurationError("reserved metadata must fit the spare area")

    @property
    def parity_budget_bytes(self) -> int:
        """Bytes available for ECC parity."""
        return self.spare_bytes - self.reserved_metadata_bytes

    def fits(self, parity_bytes: int) -> bool:
        """Whether a parity footprint fits the budget."""
        return parity_bytes <= self.parity_budget_bytes

    def leftover_bytes(self, parity_bytes: int) -> int:
        """Metadata space remaining beyond the reserved minimum."""
        if not self.fits(parity_bytes):
            raise ConfigurationError(
                f"parity ({parity_bytes} B) exceeds budget "
                f"({self.parity_budget_bytes} B)"
            )
        return self.parity_budget_bytes - parity_bytes

    def utilisation(self, parity_bytes: int) -> float:
        """Spare-area fraction consumed by parity + reserved metadata."""
        return (parity_bytes + self.reserved_metadata_bytes) / self.spare_bytes
