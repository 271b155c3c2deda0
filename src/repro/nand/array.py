"""Behavioural NAND array: array-backed page store, wear tracking, batch
error injection.

This is the storage substrate the memory controller drives.  Cell-accurate
Monte-Carlo of every page program would be prohibitively slow for
system-level simulation, so the array stores logical page contents, tracks
per-block program/erase wear and injects read-back bit errors according to
the device RBER model — a standard fault-injection abstraction whose rate
comes from the physical layer.

Storage layout
--------------
Pages live in one contiguous ``(pages, page_bytes)`` uint8 array plus a
per-page programmed mask; wear and read-disturb counters are per-block
int64 arrays.  The backing store is allocated as zero pages (the OS only
commits rows that are actually programmed or read), so even the full
2048-block device costs memory proportional to its programmed footprint.
Pages programmed short of ``page_bytes`` are padded with 0xFF (the erased
NAND state) so reads are always full-page.

Error injection
---------------
:meth:`NandArray.read_pages` corrupts a whole batch in one vectorized
pass with no Python per-bit loop.  Flipping each stored bit independently
with probability ``rber`` (which makes per-page error counts exactly
``Binomial(n_bits, rber)`` at uniformly random distinct positions) is
implemented by skip-sampling: geometric gaps at the batch's envelope
rate ``max(rber)`` locate candidate flips across the concatenated
bitstream of the batch, and per-page thinning with probability
``rber_i / max(rber)`` keeps each page at its own rate.  The work is
O(injected errors), not O(bits), and the flips are applied through
packed byte masks.

There is one datapath: :meth:`NandArray.read_page` and
:meth:`~NandArray.program_page` are a batch of one through
:meth:`~NandArray.read_pages` and :meth:`~NandArray.program_pages`.  A
batch is validated whole before any page, counter or RNG draw moves.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import NandOperationError
from repro.nand.geometry import NandGeometry
from repro.params import DEFAULT_SEED

#: Envelope RBER above which skip-sampling degenerates (candidate count
#: approaches the bit count); such rates are unphysical for NAND but the
#: dense Bernoulli fallback keeps the distribution exact anyway.
_DENSE_RBER_THRESHOLD = 0.05


class NandArray:
    """Logical array contents plus wear and erase-state bookkeeping."""

    def __init__(self, geometry: NandGeometry | None = None,
                 rng: np.random.Generator | None = None,
                 seed: int = DEFAULT_SEED):
        self.geometry = geometry or NandGeometry()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        pages = self.geometry.pages
        # Zero-page backed: rows are committed lazily by the OS on first
        # touch, so the dense store stays cheap for sparse occupancy.
        self._store = np.zeros((pages, self.geometry.page_bytes), dtype=np.uint8)
        self._programmed = np.zeros(pages, dtype=bool)
        self._wear = np.zeros(self.geometry.blocks, dtype=np.int64)
        self._reads_since_erase = np.zeros(self.geometry.blocks, dtype=np.int64)

    # -- wear ------------------------------------------------------------------

    def wear(self, block: int) -> int:
        """Program/erase cycles endured by a block."""
        self._check_block(block)
        return int(self._wear[block])

    def max_wear(self) -> int:
        """Highest wear across all blocks."""
        return int(self._wear.max())

    def reads_since_erase(self, block: int) -> int:
        """Read operations endured by a block since its last erase.

        Each read partially stresses the unselected wordlines of the block
        (read disturb, paper section 1 mechanism [3]); the counter resets
        on erase.
        """
        self._check_block(block)
        return int(self._reads_since_erase[block])

    def wear_batch(self, blocks: np.ndarray) -> np.ndarray:
        """Per-block wear for a batch of (validated) block indices."""
        return self._wear[blocks]

    def reads_since_erase_batch(self, blocks: np.ndarray) -> np.ndarray:
        """Per-block read-disturb counters for a batch of block indices."""
        return self._reads_since_erase[blocks]

    # -- operations ---------------------------------------------------------------

    def erase_block(self, block: int) -> None:
        """Erase a block: all pages cleared, wear incremented."""
        self._check_block(block)
        start = block * self.geometry.pages_per_block
        self._programmed[start:start + self.geometry.pages_per_block] = False
        self._wear[block] += 1
        self._reads_since_erase[block] = 0

    def program_page(self, block: int, page: int, data: bytes) -> None:
        """Program one page: a batch of one through :meth:`program_pages`."""
        self.program_pages([self.geometry.page_address(block, page)], [data])

    def program_pages(
        self, flats: np.ndarray, datas: Sequence[bytes]
    ) -> None:
        """Program a batch of pages (flat addresses) in one pass.

        The whole batch is validated up front — out-of-range addresses,
        already-programmed pages, duplicates within the batch, oversized
        data — before any page is touched, so a failed batch leaves the
        array unchanged.  Data shorter than ``page_bytes`` is padded with
        0xFF (the erased state), so reads are always full-page.
        """
        flats = np.asarray(flats, dtype=np.int64)
        if flats.size != len(datas):
            raise NandOperationError(
                f"{flats.size} addresses for {len(datas)} data buffers"
            )
        if flats.size == 0:
            return
        self._check_flats(flats)
        reprogrammed = self._programmed[flats]
        if reprogrammed.any():
            bad = int(flats[reprogrammed][0])
            block, page = self.geometry.split_address(bad)
            raise NandOperationError(
                f"page {block}/{page} already programmed; erase the block first"
            )
        if flats.size > 1 and np.unique(flats).size != flats.size:
            raise NandOperationError("duplicate page addresses in one batch")
        page_bytes = self.geometry.page_bytes
        lengths = [len(data) for data in datas]
        if max(lengths) > page_bytes:
            raise NandOperationError(
                f"data ({max(lengths)} B) exceeds page ({page_bytes} B)"
            )
        if min(lengths) == max(lengths):
            # Uniform-length fast path: one reshape for the whole batch.
            width = lengths[0]
            rows = np.frombuffer(b"".join(datas), dtype=np.uint8)
            self._store[flats, :width] = rows.reshape(flats.size, width)
            if width < page_bytes:
                self._store[flats, width:] = 0xFF
        else:
            for flat, data, width in zip(flats, datas, lengths):
                self._store[flat, :width] = np.frombuffer(data, dtype=np.uint8)
                self._store[flat, width:] = 0xFF
        self._programmed[flats] = True

    def is_programmed(self, block: int, page: int) -> bool:
        """True if the page holds data."""
        return bool(self._programmed[self.geometry.page_address(block, page)])

    def read_page(self, block: int, page: int, rber: float = 0.0) -> bytes:
        """Read one page: a batch of one through :meth:`read_pages`."""
        return self.read_pages(
            [self.geometry.page_address(block, page)], [rber]
        )[0].tobytes()

    def read_pages(self, flats: np.ndarray, rbers: np.ndarray) -> np.ndarray:
        """Read a batch of pages, injecting bit errors in one pass.

        Parameters
        ----------
        flats:
            Flat page addresses (``block * pages_per_block + page``).
        rbers:
            Per-page raw bit error rate; each stored bit of page ``i``
            flips independently with probability ``rbers[i]`` (error
            counts are ``Binomial(page_bits, rber)``, positions uniform
            without replacement).  Erased pages read all 0xFF, error-free.

        Returns
        -------
        A ``(len(flats), page_bytes)`` uint8 array (each row one page).
        """
        flats = np.asarray(flats, dtype=np.int64)
        rbers = np.asarray(rbers, dtype=float)
        if flats.shape != rbers.shape or flats.ndim != 1:
            raise NandOperationError(
                "flats and rbers must be matching one-dimensional arrays"
            )
        self._check_flats(flats)
        valid = (rbers >= 0.0) & (rbers < 1.0)  # False for NaN too
        if not valid.all():
            bad = float(rbers[~valid][0])
            raise NandOperationError(f"RBER must be in [0, 1), got {bad}")
        # Every read stresses its block (read disturb), programmed or not.
        np.add.at(
            self._reads_since_erase, flats // self.geometry.pages_per_block, 1
        )
        out = self._store[flats]
        programmed = self._programmed[flats]
        if not programmed.all():
            out[~programmed] = 0xFF
        rates = rbers * programmed
        if rates.any():
            self._inject_errors(out, rates)
        return out

    # -- error injection ----------------------------------------------------------

    def _inject_errors(self, out: np.ndarray, rates: np.ndarray) -> None:
        """Flip bit ``j`` of row ``i`` independently w.p. ``rates[i]``.

        Skip-sampling: candidate flips are drawn over the concatenated
        bitstream with geometric gaps at the envelope rate ``max(rates)``
        and thinned per page to its own rate — O(errors) work, with
        Binomial per-page counts at uniform distinct positions.
        """
        n_bits = out.shape[1] * 8
        r_max = float(rates.max())
        if r_max >= _DENSE_RBER_THRESHOLD:
            # Dense fallback for unphysically-high rates, where candidate
            # skips shrink to ~1 bit and the sparse path loses its point.
            flips = self.rng.random(out.shape[0] * n_bits) < np.repeat(
                rates, n_bits
            )
            out ^= np.packbits(flips).reshape(out.shape)
            return
        limit = out.shape[0] * n_bits
        log1m = np.log1p(-r_max)
        expected = limit * r_max
        chunk = int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16
        parts: list[np.ndarray] = []
        start = -1
        while True:
            # 1 - U in (0, 1] keeps log() finite; gaps are >= 1.
            gaps = np.log(1.0 - self.rng.random(chunk)) // log1m + 1.0
            pos = start + np.cumsum(gaps.astype(np.int64))
            parts.append(pos)
            if pos[-1] >= limit:
                break
            start = int(pos[-1])
        pos = np.concatenate(parts) if len(parts) > 1 else parts[0]
        pos = pos[pos < limit]
        if pos.size == 0:
            return
        rows = pos // n_bits
        if rates.min() < r_max:
            # Heterogeneous batch: thin each candidate to its page's rate.
            keep = self.rng.random(pos.size) < rates[rows] / r_max
            pos, rows = pos[keep], rows[keep]
            if pos.size == 0:
                return
        bit = pos - rows * n_bits
        flip = np.zeros(out.size, dtype=np.uint8)
        np.add.at(
            flip,
            rows * out.shape[1] + (bit >> 3),
            np.uint8(0x80) >> (bit & 7).astype(np.uint8),
        )
        out ^= flip.reshape(out.shape)

    # -- helpers ------------------------------------------------------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.geometry.blocks:
            raise NandOperationError(
                f"block {block} out of range 0..{self.geometry.blocks - 1}"
            )

    def _check_flats(self, flats: np.ndarray) -> None:
        if flats.size and (flats.min() < 0 or flats.max() >= self.geometry.pages):
            raise NandOperationError(
                f"flat page address out of range 0..{self.geometry.pages - 1}"
            )
