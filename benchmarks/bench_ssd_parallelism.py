"""SSD channel/die scaling: striped batches through the DES scheduler.

Sweeps topologies (channels x dies) and host queue depths at end-of-life
RBER (~1e-3 on the ISPP-SV curve, t = 65) and reports the *simulated*
host throughput of die-striped batch reads and writes — the scheduler's
makespan over the batch footprint — relative to the 1-channel x 1-die
baseline.  This is the system-level figure of merit the topology
subsystem adds: the per-page costs (sense, transfer, BCH decode/encode,
ISPP program) are the paper's own numbers; the scaling shows how far
channel fan-out and die interleaving stretch them.

Every striped read is checked against the payload written to its LPN.
That a 1x1 topology returns the same bytes and error counts as one
controller's FTL seeded with the same stream is a tier-1 test
(``tests/ssd/test_striped.py::TestSingleDieEquivalence``), not a step
of this bench.

Run standalone (``python benchmarks/bench_ssd_parallelism.py``) or
through pytest; ``--quick`` shrinks the batch and the sweep.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.nand.geometry import NandGeometry
from repro.ssd import DieStripedFtl, SsdDevice, SsdTopology

#: End-of-life wear: RBER ~1e-3 on the ISPP-SV lifetime curve.
EOL_WEAR = 100_000
#: (channels, dies_per_channel) sweep points.
TOPOLOGIES = ((1, 1), (1, 2), (1, 4), (2, 2), (4, 1), (2, 4), (4, 4))
QUICK_TOPOLOGIES = ((1, 1), (1, 4), (2, 2), (4, 1))
QUEUE_DEPTHS = (4, 32)
QUICK_QUEUE_DEPTHS = (32,)

#: Acceptance floor: batched EOL reads, best 4-die topology vs 1 die.
MIN_READ_SPEEDUP_4DIE = 2.0


def _geometry(batch: int, dies: int) -> NandGeometry:
    """Per-die geometry with room for the striped batch plus GC reserve."""
    pages_per_block = 32
    per_die = -(-batch // dies)  # ceil
    blocks = max(2, -(-(per_die + pages_per_block) // pages_per_block) + 1)
    return NandGeometry(blocks=blocks, pages_per_block=pages_per_block)


def _build_ssd(channels: int, dies_per_channel: int, batch: int) -> SsdDevice:
    topology = SsdTopology(
        channels=channels,
        dies_per_channel=dies_per_channel,
        geometry=_geometry(batch, channels * dies_per_channel),
    )
    ssd = SsdDevice(topology, policy=CrossLayerPolicy(), seed=2012)
    for controller in ssd.controllers:
        controller.device.array._wear[:] = EOL_WEAR
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=float(EOL_WEAR))
    return ssd


def _mb_s(pages: int, page_bytes: int, seconds: float) -> float:
    return pages * page_bytes / max(seconds, 1e-12) / 1e6


def _run_config(
    channels: int, dies_per_channel: int, batch: int, queue_depth: int
) -> dict:
    ssd = _build_ssd(channels, dies_per_channel, batch)
    ftl = DieStripedFtl(ssd)
    rng = np.random.default_rng(11)
    page_bytes = ssd.geometry.page_data_bytes
    items = [(lpn, rng.bytes(page_bytes)) for lpn in range(batch)]

    ftl.write_many(items, queue_depth=queue_depth)
    write_makespan = ftl.last_schedule.makespan_s
    reads = ftl.read_many([lpn for lpn, _ in items], queue_depth=queue_depth)
    read_makespan = ftl.last_schedule.makespan_s
    utilisation = max(ftl.last_schedule.channel_utilisation())
    ok = all(data == payload for (data, _), (_, payload) in zip(reads, items))
    if not ok:
        raise AssertionError("striped read returned corrupted data")
    return {
        "topology": ssd.topology.describe(),
        "dies": ssd.topology.dies,
        "queue_depth": queue_depth,
        "read_mb_s": _mb_s(batch, page_bytes, read_makespan),
        "write_mb_s": _mb_s(batch, page_bytes, write_makespan),
        "bus_util": utilisation,
    }


def run_benchmark(quick: bool = False) -> tuple[str, dict]:
    """Full sweep; returns (report text, read speedups by (dies, topo, qd))."""
    batch = 64 if quick else 128
    topologies = QUICK_TOPOLOGIES if quick else TOPOLOGIES
    queue_depths = QUICK_QUEUE_DEPTHS if quick else QUEUE_DEPTHS
    lines = [
        "SSD channel/die scaling at end-of-life RBER (~1e-3, t = 65), "
        f"striped batch of {batch} pages",
        "(simulated host MB/s from the DES command scheduler's makespan; "
        "speedup vs 1ch x 1die at the same queue depth)",
        "",
        f"{'topology':>12} {'dies':>5} {'QD':>4} {'read MB/s':>10} "
        f"{'write MB/s':>11} {'read x':>7} {'write x':>8} {'bus util':>9}",
    ]
    speedups: dict = {}
    for queue_depth in queue_depths:
        baseline: dict | None = None
        for channels, dies_per_channel in topologies:
            row = _run_config(channels, dies_per_channel, batch, queue_depth)
            if baseline is None:
                baseline = row
            read_x = row["read_mb_s"] / baseline["read_mb_s"]
            write_x = row["write_mb_s"] / baseline["write_mb_s"]
            speedups[(row["dies"], row["topology"], queue_depth)] = read_x
            lines.append(
                f"{row['topology']:>12} {row['dies']:>5} {queue_depth:>4} "
                f"{row['read_mb_s']:>10.2f} {row['write_mb_s']:>11.2f} "
                f"{read_x:>6.2f}x {write_x:>7.2f}x {row['bus_util']:>8.0%}"
            )
        lines.append("")
    return "\n".join(lines) + "\n", speedups


def best_4die_speedup(speedups: dict) -> float:
    """Best read speedup among 4-die topologies (any queue depth)."""
    return max(
        value for (dies, _, _), value in speedups.items() if dies == 4
    )


def _save(text: str) -> None:
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "ssd_parallelism.txt").write_text(text)
    print("\n" + text)


@pytest.mark.slow
def test_ssd_parallelism(quick):
    """Record the channel/die scaling table and enforce the 4-die floor."""
    text, speedups = run_benchmark(quick=quick)
    _save(text)
    best = best_4die_speedup(speedups)
    assert best >= MIN_READ_SPEEDUP_4DIE, (
        f"best 4-die EOL read speedup {best:.2f}x below the "
        f"{MIN_READ_SPEEDUP_4DIE:.0f}x floor"
    )


if __name__ == "__main__":
    report, speedups = run_benchmark(quick="--quick" in sys.argv)
    _save(report)
    best = best_4die_speedup(speedups)
    ok = best >= MIN_READ_SPEEDUP_4DIE
    print(f"best 4-die EOL read floor ({MIN_READ_SPEEDUP_4DIE:.0f}x): "
          f"{best:.2f}x {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
