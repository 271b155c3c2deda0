"""Core controller FSM: read/write page flows (paper Fig. 1).

Sequences each page operation through the datapath — OCP burst, page
buffer, ECC codec, flash device — accounting the latency of every stage.
There is one datapath: :meth:`CoreControllerFsm.read_pages` and
:meth:`~CoreControllerFsm.write_pages` run the flows for a batch of
pages, and the per-page ``read_page`` / ``write_page`` are a batch of
one.  :class:`CoreControllerFsm` is the **paper-faithful** non-pipelined
flow the paper's throughput numbers assume: the single page buffer
enforces the structural hazard, so a batch's elapsed time is the serial
sum of every stage of every page.

Every overlap beyond that is modelled once, by the SSD command
scheduler's :class:`~repro.ssd.scheduler.PipelineConfig`.
:func:`pipeline_elapsed_s` is the closed form of its cache-read
double buffer on a 1-channel x 1-die topology: the array phase of page
i+1 overlaps the channel phase of page i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.bch.codec import AdaptiveBCHCodec
from repro.bch.decoder import DecodeResult
from repro.controller.buffer import PageBuffer
from repro.controller.ocp import OcpInterface
from repro.controller.spare import SpareAreaLayout
from repro.errors import ControllerError
from repro.nand.device import NandFlashDevice


@dataclass(frozen=True)
class StageLatencies:
    """Per-stage latency accounting of one page operation."""

    transfer_s: float = 0.0
    encode_s: float = 0.0
    program_s: float = 0.0
    read_array_s: float = 0.0
    decode_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Serial end-to-end latency."""
        return (
            self.transfer_s + self.encode_s + self.program_s
            + self.read_array_s + self.decode_s
        )


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one core-controller flow.

    ``ecc_t`` is the correction capability the page was encoded with:
    the active one on a write, the one stored for the page on a read.
    """

    data: bytes
    latencies: StageLatencies
    ecc_t: int
    decode: DecodeResult | None = None


def check_page_data(data: bytes, page_data_bytes: int) -> None:
    """Raise :class:`ControllerError` unless ``data`` is exactly one page."""
    if len(data) != page_data_bytes:
        raise ControllerError(
            f"write data must be one page ({page_data_bytes} B), "
            f"got {len(data)}"
        )


class CoreControllerFsm:
    """Datapath sequencing for page writes and reads."""

    def __init__(
        self,
        codec: AdaptiveBCHCodec,
        device: NandFlashDevice,
        ocp: OcpInterface,
        spare: SpareAreaLayout | None = None,
    ):
        self.codec = codec
        self.device = device
        self.ocp = ocp
        self.spare = spare or SpareAreaLayout(
            spare_bytes=device.geometry.page_spare_bytes
        )
        page_bytes = device.geometry.page_bytes
        self.buffer = PageBuffer(page_bytes)
        # Correction capability each page was encoded with: the adaptive
        # controller "sets the proper correction capability to pages", so a
        # later reconfiguration must not change how old pages are decoded.
        self._written_t: dict[tuple[int, int], int] = {}

    # -- write flow -----------------------------------------------------------

    def write_page(self, block: int, page: int, data: bytes) -> FlowResult:
        """OCP in -> buffer -> encode -> program, as a batch of one."""
        return self.write_pages([(block, page, data)])[0]

    def write_pages(
        self, ops: list[tuple[int, int, bytes]]
    ) -> list[FlowResult]:
        """Write flow for a batch of pages: every op goes OCP in ->
        buffer -> encode -> program, with one codec ``encode_batch`` for
        the whole batch and one device ``program_pages`` in op order.
        """
        expected = self.device.geometry.page_data_bytes
        parity_bytes = self.codec.parity_bytes()
        if not self.spare.fits(parity_bytes):
            raise ControllerError(
                f"t={self.codec.t} parity ({parity_bytes} B) exceeds the "
                f"spare-area budget ({self.spare.parity_budget_bytes} B)"
            )
        staged: list[bytes] = []
        transfers: list[float] = []
        for _, _, data in ops:
            check_page_data(data, expected)
            transfers.append(self.ocp.data_burst(len(data)))
            self.buffer.load(data)
            staged.append(self.buffer.drain())
        codewords = self.codec.encode_batch(staged)
        encode_s = self.codec.encode_latency_s()
        reports = self.device.program_pages(
            [(block, page) for block, page, _ in ops], codewords
        )
        t = self.codec.t
        results = []
        for (block, page, _), data, report, transfer_s in zip(
            ops, staged, reports, transfers
        ):
            self._written_t[(block, page)] = t
            results.append(
                FlowResult(
                    data=data,
                    latencies=StageLatencies(
                        transfer_s=transfer_s,
                        encode_s=encode_s,
                        program_s=report.latency_s,
                    ),
                    ecc_t=t,
                )
            )
        return results

    def erase_block(self, block: int) -> float:
        """Erase a block and forget its pages' codeword metadata."""
        report = self.device.erase_block(block)
        self._written_t = {
            key: t for key, t in self._written_t.items() if key[0] != block
        }
        return report.latency_s

    # -- read flow ---------------------------------------------------------------

    def read_page(self, block: int, page: int, strict: bool = True) -> FlowResult:
        """Sense -> decode -> buffer -> OCP out, as a batch of one."""
        return self.read_pages([(block, page)], strict=strict)[0]

    def read_pages(
        self, addresses: list[tuple[int, int]], strict: bool = True
    ) -> list[FlowResult]:
        """Read flow for a batch of pages: one device ``read_pages``
        senses the whole batch (vectorized RBER + error injection), then
        pages sharing a stored capability decode through one
        ``decode_batch`` call (clean pages early-exit in the vectorized
        syndrome pass).

        Every address is checked for a stored capability before the
        device is touched, so a rejected batch senses nothing.
        :meth:`read_page` is a batch of one, draw for draw.  A batch of
        N draws errors from the same distribution as N single reads, with
        the same RBER and latency accounting, but not the same draws: the
        error injection spans the whole batch.
        """
        stored_ts: list[int] = []
        for block, page in addresses:
            written_t = self._written_t.get((block, page))
            if written_t is None:
                raise ControllerError(
                    f"page {block}/{page} holds no ECC-protected data"
                )
            stored_ts.append(written_t)
        raw, batch_report = self.device.read_pages(addresses)
        data_bytes = self.device.geometry.page_data_bytes
        codewords: list[bytes] = []
        for row, written_t in zip(raw, stored_ts):
            parity_bytes = self.codec.parity_bytes(written_t)
            codeword = row[: data_bytes + parity_bytes].tobytes()
            if len(codeword) < data_bytes + parity_bytes:
                raise ControllerError(
                    "stored page shorter than its codeword (corrupt spare area?)"
                )
            codewords.append(codeword)
        # Group by stored capability: decode_batch requires a uniform t.
        groups: dict[int, list[int]] = {}
        for index, written_t in enumerate(stored_ts):
            groups.setdefault(written_t, []).append(index)
        decoded: dict[int, DecodeResult] = {}
        for written_t, indices in groups.items():
            batch = self.codec.decode_batch(
                [codewords[i] for i in indices], t=written_t, strict=strict
            )
            decoded.update(zip(indices, batch))
        return [
            self._finish_read(decoded[i], batch_report.latency_s, stored_ts[i])
            for i in range(len(addresses))
        ]

    def _finish_read(
        self, result: DecodeResult, read_array_s: float, written_t: int
    ) -> FlowResult:
        """Latency accounting + OCP-out stage of one decoded page."""
        decode_s = self.codec.decode_latency_s(
            t=written_t, with_errors=not result.early_exit
        )
        self.buffer.load(result.data)
        out = self.buffer.drain()
        transfer_s = self.ocp.data_burst(len(out))
        return FlowResult(
            data=out,
            latencies=StageLatencies(
                read_array_s=read_array_s,
                decode_s=decode_s,
                transfer_s=transfer_s,
            ),
            ecc_t=written_t,
            decode=result,
        )


def pipeline_elapsed_s(stages: Iterable[tuple[float, float]]) -> float:
    """Makespan of a double-buffered two-stage pipeline over (A, B) pairs.

    One spare buffer sits between the stages (the cache register of a
    cache read, the second page buffer of the section 6.3.3 two-round
    load), so stage A of page i+1 starts at page i's buffer *handoff*,
    and the handoff itself waits until stage B has drained the previous
    page out of the buffer:

        a_done[i]  = handoff[i-1] + A[i]
        handoff[i] = max(a_done[i], b_end[i-1])
        b_end[i]   = handoff[i] + B[i]

    This is exactly the timeline the SSD phase scheduler's cache-read
    mode produces on a 1-channel x 1-die topology.
    """
    handoff = b_end = 0.0
    for a_s, b_s in stages:
        a_done = handoff + a_s
        handoff = max(a_done, b_end)
        b_end = handoff + b_s
    return b_end

