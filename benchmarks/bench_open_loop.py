"""Open-loop session vs batch-drain host model: saturation and knee.

Two host models drive the same EOL mixed playback stream (sequential
re-reads with a metadata write every 8 ops — the multimedia scenario
with a journaling write rate) on a 1ch x 4die full-pipeline SSD:

* **batch-drain** (`run_ssd_workload`, ``batch_pages = 8``): the PR 4
  closed loop.  Runs of consecutive same-kind ops are scheduled to
  their makespan before the next group is admitted, so the pipeline
  refills at every batch boundary and every metadata write interrupts
  the read stream with a full synchronous ISPP program;
* **open loop** (`run_open_loop_workload` over the
  :class:`~repro.ssd.session.SsdSession` queue pair): operations are
  submitted at their arrival times regardless of what is in flight, so
  reads keep streaming through the channel/ECC pipeline while writes
  program other planes in parallel.

The CI floor asserts the open-loop *sustained* read throughput (offered
load past saturation) is >= 1.25x the batch-drain figure.  A pure-read
stream is reported alongside for calibration (its gain is only the
inter-batch pipeline fill/drain, roughly 1.1-1.2x; the mixed stream is
where batch-drain structurally loses).  The arrival-rate sweep then
maps the throughput-saturation / latency-knee curve: completed MB/s
tracks the offered rate below saturation and flat-lines at capacity
above it, while the p95 read latency jumps from service time to
queueing-dominated — the knee must be >= 2x between the lowest and
highest offered rates.

Run standalone (``python benchmarks/bench_open_loop.py``) or through
pytest; ``--quick`` shrinks the stream and the sweep.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.nand.geometry import NandGeometry
from repro.sim.host import (
    HostWorkload,
    OpenLoopWorkload,
    preread_lpns,
    run_open_loop_workload,
    run_ssd_workload,
)
from repro.ssd import (
    DieStripedFtl,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.workloads.traces import TraceOp, TraceOpKind, fixed_rate_arrivals

#: End-of-life wear: RBER ~1e-3 on the ISPP-SV lifetime curve.
EOL_WEAR = 100_000

#: Acceptance floor: sustained open-loop read MB/s vs batch-drain
#: (mixed playback stream, batch_pages = 8, 1ch x 4die, full pipeline).
MIN_OPEN_VS_BATCH = 1.25

#: The sweep's p95 latency must rise at least this much across the knee.
MIN_KNEE_FACTOR = 2.0

#: Host batch size fixed by the acceptance scenario.
BATCH_PAGES = 8

#: Device-side in-flight window for the open-loop session.
QUEUE_DEPTH = 16

#: Offered-rate fractions of measured capacity for the sweep.
SWEEP_FRACTIONS = (0.3, 0.6, 0.9, 1.05, 1.2, 1.5)
QUICK_FRACTIONS = (0.3, 0.9, 1.5)


def _build_ftl(pages: int) -> DieStripedFtl:
    """1ch x 4die full-pipeline SSD at end of life, plane-interleaved."""
    pages_per_block = 32
    # Room per die for the read working set, the metadata-write pages
    # and a GC reserve block.
    per_die = pages // 4 + 16
    blocks = max(3, -(-(per_die + pages_per_block) // pages_per_block) + 1)
    topology = SsdTopology(
        channels=1,
        dies_per_channel=4,
        geometry=NandGeometry(blocks=blocks, pages_per_block=pages_per_block),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=2012,
        pipeline=PipelineConfig.full(),
    )
    for controller in ssd.controllers:
        controller.device.array._wear[:] = EOL_WEAR
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=float(EOL_WEAR))
    return DieStripedFtl(ssd, plane_interleave=True)


def _playback_stream(
    pages: int, passes: int, write_every: int | None, rng
) -> list[TraceOp]:
    """Sequential re-reads with an optional metadata write every N ops."""
    ops: list[TraceOp] = []
    for index in range(pages * passes):
        ops.append(TraceOp(TraceOpKind.READ, 0, index % pages))
        if write_every and (index + 1) % write_every == 0:
            ops.append(TraceOp(
                TraceOpKind.WRITE, 1, index % 16, rng.bytes(4096)
            ))
    return ops


def _prewrite(ftl: DieStripedFtl, ops: list[TraceOp], rng) -> None:
    """Write every page the stream reads before writing it.

    ``preread_lpns`` applies the host runner's own first-seen LPN
    naming, so the pre-written pages land exactly where replay reads.
    """
    ftl.write_many([(lpn, rng.bytes(4096)) for lpn in preread_lpns(ops)])


def _compare(ops: list[TraceOp], pages: int, seed: int) -> tuple[float, float]:
    """(batch-drain read MB/s, sustained open-loop read MB/s)."""
    rng = np.random.default_rng(seed)
    closed_ftl = _build_ftl(pages)
    _prewrite(closed_ftl, ops, rng)
    closed = run_ssd_workload(
        closed_ftl, HostWorkload("batch-drain", ops, batch_pages=BATCH_PAGES)
    )
    rng = np.random.default_rng(seed)
    open_ftl = _build_ftl(pages)
    _prewrite(open_ftl, ops, rng)
    # issue_s defaults to 0.0 for every op: the whole stream is offered
    # up front, so the completed rate is the device's sustained capacity.
    sustained = run_open_loop_workload(
        open_ftl,
        OpenLoopWorkload("open-loop", ops, queue_depth=QUEUE_DEPTH),
        session=SsdSession(open_ftl, queue_depth=QUEUE_DEPTH),
    )
    return closed.read_mb_s, sustained.read_mb_s


def run_benchmark(quick: bool = False) -> tuple[str, dict]:
    """Full comparison + sweep; returns (report text, metrics)."""
    pages = 64 if quick else 128
    passes = 2
    fractions = QUICK_FRACTIONS if quick else SWEEP_FRACTIONS
    rng = np.random.default_rng(7)
    mixed = _playback_stream(pages, passes, 8, rng)
    pure = _playback_stream(pages, passes, None, rng)

    lines = [
        "Open-loop session vs batch-drain host model at end-of-life RBER "
        f"(~1e-3, t = 65), 1ch x 4die, full pipeline, batch_pages = "
        f"{BATCH_PAGES}, QD = {QUEUE_DEPTH}",
        "(read MB/s; 'sustained' = open-loop completed rate with the whole "
        "stream offered up front)",
        "",
        f"{'stream':>12} {'batch MB/s':>11} {'open MB/s':>10} {'open x':>7}",
    ]
    metrics: dict = {}
    for label, ops in (("pure reads", pure), ("mixed w/8", mixed)):
        closed_mb_s, open_mb_s = _compare(ops, pages, seed=11)
        ratio = open_mb_s / closed_mb_s
        metrics[label] = ratio
        lines.append(
            f"{label:>12} {closed_mb_s:>11.2f} {open_mb_s:>10.2f} "
            f"{ratio:>6.2f}x"
        )
    metrics["open_vs_batch"] = metrics["mixed w/8"]

    # Arrival-rate sweep on the mixed stream: the saturation curve.
    rng = np.random.default_rng(11)
    probe_ftl = _build_ftl(pages)
    _prewrite(probe_ftl, mixed, rng)
    probe = run_open_loop_workload(
        probe_ftl, OpenLoopWorkload("probe", mixed, queue_depth=QUEUE_DEPTH)
    )
    capacity_ops_s = (probe.stats.reads + probe.stats.writes) / probe.elapsed_s
    lines += [
        "",
        f"arrival-rate sweep (capacity ~ {capacity_ops_s:,.0f} ops/s, "
        "fixed-rate arrivals):",
        f"{'offered/sat':>11} {'read MB/s':>10} {'p50 [us]':>9} "
        f"{'p95 [us]':>9} {'p99 [us]':>9} {'queue p95':>10}",
    ]
    p95_by_fraction: dict[float, float] = {}
    for fraction in fractions:
        rng = np.random.default_rng(11)
        ftl = _build_ftl(pages)
        _prewrite(ftl, mixed, rng)
        result = run_open_loop_workload(
            ftl,
            OpenLoopWorkload(
                f"sweep-{fraction:.2f}",
                fixed_rate_arrivals(mixed, fraction * capacity_ops_s),
                queue_depth=QUEUE_DEPTH,
            ),
        )
        tails = result.latency_percentiles()
        p95_by_fraction[fraction] = tails["read_p95_s"]
        lines.append(
            f"{fraction:>11.2f} {result.read_mb_s:>10.2f} "
            f"{tails['read_p50_s'] * 1e6:>9.1f} "
            f"{tails['read_p95_s'] * 1e6:>9.1f} "
            f"{tails['read_p99_s'] * 1e6:>9.1f} "
            f"{tails['queue_p95_s'] * 1e6:>9.1f}u"
        )
    metrics["knee_factor"] = (
        p95_by_fraction[max(fractions)] / p95_by_fraction[min(fractions)]
    )
    lines += [
        "",
        f"latency knee: p95 rises {metrics['knee_factor']:.1f}x from "
        f"{min(fractions):.1f}x to {max(fractions):.1f}x of saturation",
    ]
    return "\n".join(lines) + "\n", metrics


def _save(text: str) -> None:
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "open_loop.txt").write_text(text)
    print("\n" + text)


def _check(metrics: dict) -> list[str]:
    failures = []
    if metrics["open_vs_batch"] < MIN_OPEN_VS_BATCH:
        failures.append(
            f"sustained open-loop read throughput {metrics['open_vs_batch']:.2f}x "
            f"batch-drain, below the {MIN_OPEN_VS_BATCH:.2f}x floor"
        )
    if metrics["knee_factor"] < MIN_KNEE_FACTOR:
        failures.append(
            f"p95 latency knee {metrics['knee_factor']:.1f}x across the "
            f"sweep, below the {MIN_KNEE_FACTOR:.1f}x floor"
        )
    return failures


@pytest.mark.slow
def test_open_loop_throughput(quick):
    """Record the saturation curve and enforce the open-vs-batch floor."""
    text, metrics = run_benchmark(quick=quick)
    _save(text)
    failures = _check(metrics)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    report, metrics = run_benchmark(quick="--quick" in sys.argv)
    _save(report)
    failures = _check(metrics)
    for failure in failures:
        print("FAIL:", failure)
    print(
        f"open-loop floors (>= {MIN_OPEN_VS_BATCH:.2f}x sustained, "
        f">= {MIN_KNEE_FACTOR:.1f}x knee): "
        f"{metrics['open_vs_batch']:.2f}x / {metrics['knee_factor']:.1f}x "
        f"{'FAIL' if failures else 'PASS'}"
    )
    sys.exit(1 if failures else 0)
