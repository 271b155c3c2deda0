"""Command-level NAND flash device (the memory behind the controller).

Bundles the behavioural array with the physical-layer models:

* program-algorithm register — the paper's runtime-selectable knob
  (section 5/6.4): the embedded microcontroller's code-ROM holds both
  ISPP-SV and ISPP-DV routines;
* per-block wear drives the lifetime RBER model, and the algorithm *used
  at program time* determines the error rate of each stored page;
* operation latencies come from cached ISPP Monte-Carlo timing runs
  (re-simulated per algorithm and wear decade, not per operation).

The datapath is batch-native: per-page metadata (the program algorithm
each page was written with) lives in a numpy array indexed by flat page
address, so :meth:`NandFlashDevice.read_pages` computes every page's
effective RBER — lifetime curve x read-disturb growth — in one vectorized
pass and issues a single batched array read.  It is the only read path:
:meth:`~NandFlashDevice.read_page` and :meth:`~NandFlashDevice.program_page`
are a batch of one, so a scalar call and ``read_pages([address])`` return
the same bytes and reports, draw for draw.  A rejected batch (bad
address, invalid RBER) raises :class:`NandOperationError` before any
counter or RNG draw moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import NandOperationError
from repro.nand.array import NandArray
from repro.params import DEFAULT_SEED
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm
from repro.nand.program import PageProgrammer
from repro.nand.rber import LifetimeRberModel
from repro.nand.timing import NandTimingModel

#: Stable integer codes for the per-page algorithm metadata array.
_ALGORITHMS: tuple[IsppAlgorithm, ...] = tuple(IsppAlgorithm)
_ALG_CODE: dict[IsppAlgorithm, int] = {a: i for i, a in enumerate(_ALGORITHMS)}
_NO_META = -1


@dataclass(frozen=True)
class OperationReport:
    """Latency/energy envelope of one NAND operation."""

    latency_s: float
    rber: float = 0.0
    algorithm: IsppAlgorithm | None = None


@dataclass(frozen=True)
class BatchReadReport:
    """Vectorized telemetry of one batched page read.

    Keeps the hot batch path free of per-page object construction: the
    per-page effective RBERs and algorithm codes stay as arrays, and
    :class:`OperationReport` views are materialized only on demand
    (:meth:`NandFlashDevice.read_page` takes ``report(0)``, tests and
    telemetry dumps the rest).
    """

    latency_s: float
    rbers: np.ndarray
    algorithm_codes: np.ndarray

    def __len__(self) -> int:
        return self.rbers.size

    def report(self, index: int) -> OperationReport:
        """Materialize one page's :class:`OperationReport`."""
        code = int(self.algorithm_codes[index])
        return OperationReport(
            latency_s=self.latency_s,
            rber=float(self.rbers[index]),
            algorithm=None if code == _NO_META else _ALGORITHMS[code],
        )

    def reports(self) -> list[OperationReport]:
        """Materialize every page's :class:`OperationReport`."""
        return [self.report(i) for i in range(len(self))]


@dataclass(frozen=True)
class ReadDisturbParams:
    """Read-disturb growth of the RBER (paper section 1 mechanism [3]).

    Each read weakly programs the unselected wordlines of the block; the
    effective RBER grows linearly with reads since the last erase:
    ``rber * (1 + coefficient * reads / reads_ref)``.
    """

    coefficient: float = 1.0
    reads_ref: float = 100_000.0

    def factor(self, reads_since_erase: int) -> float:
        """RBER multiplier after the given read count."""
        if reads_since_erase < 0:
            raise NandOperationError("read count must be non-negative")
        return 1.0 + self.coefficient * reads_since_erase / self.reads_ref

    def factor_batch(self, reads_since_erase: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`factor` over a per-page read-count array."""
        reads = np.asarray(reads_since_erase, dtype=float)
        if (reads < 0).any():
            raise NandOperationError("read count must be non-negative")
        return 1.0 + self.coefficient * reads / self.reads_ref


def _occurrence_index(codes: np.ndarray) -> np.ndarray:
    """Per-element count of earlier equal values (vectorized cumcount).

    ``[7, 3, 7, 7, 3] -> [0, 0, 1, 2, 1]``; used so the i-th read of a
    block inside one batch sees the same pre-read disturb count the
    serial flow would.
    """
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    run_start = np.ones(codes.size, dtype=bool)
    run_start[1:] = sorted_codes[1:] != sorted_codes[:-1]
    starts = np.flatnonzero(run_start)
    within = np.arange(codes.size) - np.repeat(
        starts, np.diff(np.append(starts, codes.size))
    )
    out = np.empty(codes.size, dtype=np.int64)
    out[order] = within
    return out


class NandFlashDevice:
    """ONFI-style command front-end with cross-layer hooks."""

    #: Cells used for timing-calibration Monte-Carlo runs (timing is
    #: population-size independent once the slow tail is sampled).
    _TIMING_SAMPLE_CELLS = 8192

    def __init__(
        self,
        geometry: NandGeometry | None = None,
        rber_model: LifetimeRberModel | None = None,
        programmer: PageProgrammer | None = None,
        timing: NandTimingModel | None = None,
        disturb: ReadDisturbParams | None = None,
        rng: np.random.Generator | None = None,
        seed: int = DEFAULT_SEED,
    ):
        self.geometry = geometry or NandGeometry()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.array = NandArray(self.geometry, self.rng)
        self.rber_model = rber_model or LifetimeRberModel()
        self.programmer = programmer or PageProgrammer(rng=self.rng)
        self.timing = timing or NandTimingModel()
        self.disturb = disturb or ReadDisturbParams()
        self._algorithm = IsppAlgorithm.SV
        # Per-page metadata as a parallel array indexed by flat address:
        # the algorithm each page was programmed with (_NO_META = none).
        # The read-path RBER pairs it with the block's *current* wear.
        self._meta_algorithm = np.full(self.geometry.pages, _NO_META, dtype=np.int8)
        self._timing_cache: dict[tuple[IsppAlgorithm, int], float] = {}
        #: Lifetime media-operation tallies (SMART counters).
        self.page_reads = 0
        self.page_programs = 0
        self.block_erases = 0

    # -- configuration (the physical-layer knob) --------------------------------

    @property
    def program_algorithm(self) -> IsppAlgorithm:
        """Currently selected program algorithm."""
        return self._algorithm

    def select_program_algorithm(self, algorithm: IsppAlgorithm) -> None:
        """Runtime algorithm switch (code-ROM routine selection, section 6.4)."""
        if not isinstance(algorithm, IsppAlgorithm):
            raise NandOperationError(f"not an ISPP algorithm: {algorithm!r}")
        self._algorithm = algorithm

    # -- operations ----------------------------------------------------------------

    def program_page(self, block: int, page: int, data: bytes) -> OperationReport:
        """Program one page: a batch of one through :meth:`program_pages`."""
        return self.program_pages([(block, page)], [data])[0]

    def program_pages(
        self,
        addresses: list[tuple[int, int]],
        datas: list[bytes],
    ) -> list[OperationReport]:
        """Program a batch of pages with the selected algorithm.

        The batch is validated and stored through one
        :meth:`NandArray.program_pages` pass; per-page metadata is
        filled vectorized, and latencies come from the timing cache (one
        ISPP Monte-Carlo per wear decade, reused across the batch).
        """
        if len(addresses) != len(datas):
            raise NandOperationError(
                f"{len(addresses)} addresses for {len(datas)} data buffers"
            )
        if not addresses:
            return []
        blocks, flats = self._flat_addresses(addresses)
        self.array.program_pages(flats, datas)
        self.page_programs += len(addresses)
        wear = self.array.wear_batch(blocks)
        self._meta_algorithm[flats] = _ALG_CODE[self._algorithm]
        return [
            OperationReport(latency_s=latency, algorithm=self._algorithm)
            for latency in self._program_times(self._algorithm, wear)
        ]

    def read_page(self, block: int, page: int) -> tuple[bytes, OperationReport]:
        """Read one page: a batch of one through :meth:`read_pages`."""
        raw, report = self.read_pages([(block, page)])
        return raw[0].tobytes(), report.report(0)

    def read_pages(
        self, addresses: list[tuple[int, int]]
    ) -> tuple[np.ndarray, BatchReadReport]:
        """Read a batch of pages in one vectorized device pass.

        Per-page effective RBER is computed from the metadata arrays
        (stored algorithm x current block wear) times the read-disturb
        factor; reads of the same block within one batch see the disturb
        counter advance exactly as the serial flow would.  Returns the raw
        pages as a ``(batch, page_bytes)`` uint8 array plus a lazy
        :class:`BatchReadReport`.
        """
        if not addresses:
            return (
                np.empty((0, self.geometry.page_bytes), dtype=np.uint8),
                BatchReadReport(
                    latency_s=self.timing.read_time_s(),
                    rbers=np.zeros(0),
                    algorithm_codes=np.zeros(0, dtype=np.int8),
                ),
            )
        blocks, flats = self._flat_addresses(addresses)
        codes = self._meta_algorithm[flats]
        programmed = codes != _NO_META
        rbers = np.zeros(len(addresses), dtype=float)
        if programmed.any():
            wear = self.array.wear_batch(blocks[programmed]).astype(float)
            base = self.rber_model.rber_batch(
                wear, dv=codes[programmed] == _ALG_CODE[IsppAlgorithm.DV]
            )
            # The i-th same-block read in the batch sees the counter the
            # serial flow would: pre-batch count + earlier batch reads.
            reads = self.array.reads_since_erase_batch(blocks)
            if blocks.size > 1:
                if blocks[0] == blocks[-1] and (blocks == blocks[0]).all():
                    # Single-block batch: occurrence index is just 0..B-1.
                    reads = reads + np.arange(blocks.size)
                else:
                    reads = reads + _occurrence_index(blocks)
            rbers[programmed] = base * self.disturb.factor_batch(
                reads[programmed]
            )
        raw = self.array.read_pages(flats, rbers)
        self.page_reads += len(addresses)
        return raw, BatchReadReport(
            latency_s=self.timing.read_time_s(),
            rbers=rbers,
            algorithm_codes=codes,
        )

    def erase_block(self, block: int) -> OperationReport:
        """Erase a block (wear +1)."""
        self.array.erase_block(block)
        self.block_erases += 1
        start = block * self.geometry.pages_per_block
        self._meta_algorithm[start:start + self.geometry.pages_per_block] = _NO_META
        return OperationReport(latency_s=self.timing.erase_time_s())

    # -- telemetry -----------------------------------------------------------------

    def populate_counters(self, registry) -> None:
        """Add this die's media counters to a SMART registry snapshot.

        Scalars accumulate across dies; per-die values append in die
        order (the device is called once per die by
        ``SsdSession.metrics``).
        """
        registry.add("media_page_reads", self.page_reads, "pages")
        registry.add("media_page_programs", self.page_programs, "pages")
        registry.add("media_block_erases", self.block_erases, "blocks")
        registry.append("die_max_wear", int(self.array.max_wear()),
                        "P/E cycles")

    # -- timing --------------------------------------------------------------------

    def program_time_s(
        self, algorithm: IsppAlgorithm, pe_cycles: float
    ) -> float:
        """Program latency, cached per (algorithm, wear decade).

        The underlying ISPP Monte-Carlo is re-run when the block enters a
        new wear decade; within a decade the pulse/verify counts are stable.
        """
        decade = 0 if pe_cycles < 1 else int(math.floor(math.log10(pe_cycles)))
        key = (algorithm, decade)
        if key not in self._timing_cache:
            representative_cycles = 0.0 if pe_cycles < 1 else 10.0**decade
            outcome = self.programmer.program_random_page(
                self._TIMING_SAMPLE_CELLS, algorithm, representative_cycles
            )
            self._timing_cache[key] = outcome.timing.total_s
        return self._timing_cache[key]

    def _program_times(
        self, algorithm: IsppAlgorithm, wear: np.ndarray
    ) -> list[float]:
        """Per-page program latencies.  Distinct wear values are looked
        up in ascending order, so the timing cache fills (one ISPP
        Monte-Carlo per new wear decade) in ascending decade order."""
        wears = wear.tolist()
        times = {
            w: self.program_time_s(algorithm, w) for w in sorted(set(wears))
        }
        return [times[w] for w in wears]

    def rber_now(self, block: int, algorithm: IsppAlgorithm | None = None) -> float:
        """Current RBER of pages programmed in this block with ``algorithm``."""
        return self.rber_model.rber(
            algorithm or self._algorithm, self.array.wear(block)
        )

    # -- helpers -------------------------------------------------------------------

    def _flat_addresses(
        self, addresses: list[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated (blocks, flats) arrays for a batch of addresses."""
        pairs = np.asarray(addresses, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise NandOperationError("addresses must be (block, page) pairs")
        blocks, pages = pairs[:, 0], pairs[:, 1]
        if ((blocks < 0) | (blocks >= self.geometry.blocks)).any():
            raise NandOperationError(
                f"block out of range 0..{self.geometry.blocks - 1}"
            )
        if ((pages < 0) | (pages >= self.geometry.pages_per_block)).any():
            raise NandOperationError(
                f"page out of range 0..{self.geometry.pages_per_block - 1}"
            )
        return blocks, blocks * self.geometry.pages_per_block + pages
