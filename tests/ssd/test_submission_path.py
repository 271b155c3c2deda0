"""The session's submission path, pinned in every GC mode.

An overloaded open-loop stream (reads and writes offered at about twice
the rate a 1ch x 2-die session sustains, so the submission backlog is
live and GC runs) must reproduce a committed sha256 of everything the
host and the FTL can observe.  The digests were recorded while sync mode
still staged each I/O at submit and the scheduled modes at admission.
"""

import hashlib
import random

import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.ftl.gc import GcConfig
from repro.nand.geometry import NandGeometry
from repro.sim.host import OpenLoopWorkload, run_open_loop_workload
from repro.ssd import (
    DieStripedFtl,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.workloads.traces import TraceOp, TraceOpKind, fixed_rate_arrivals

GC_MODES = ("sync", "foreground", "background")
QUEUE_DEPTH = 4
#: Offered arrival rate per mode: about twice the rate at which the
#: session completes this stream when every op arrives at once.
OFFERED_OPS_S = {
    "sync": 7_500.0,
    "foreground": 1_100.0,
    "background": 7_000.0,
}

PINNED = {
    "sync":
        "39190517b1b8942bd470f338d27bc7732f1461be91628c6038d152b3686acf35",
    "foreground":
        "e6c8395249913edf74a1bf45b2c1375ca1076d845be6672d979846ab4ae83fc1",
    "background":
        "c62b9c5a1da26f2a354f2c2911f60a46ff3dbb0a114e16a49b9261dd1bde6db9",
}


def _build(gc_mode: str):
    """1ch x 2-die SSD (6 blocks x 4 pages per die) and its session."""
    topology = SsdTopology(
        channels=1,
        dies_per_channel=2,
        geometry=NandGeometry(blocks=6, pages_per_block=4),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=2012,
        pipeline=PipelineConfig.full(),
    )
    ssd.set_mode(OperatingMode.BASELINE)
    session = SsdSession(
        ssd=ssd,
        queue_depth=QUEUE_DEPTH,
        gc_mode=gc_mode,
        gc_config=GcConfig(policy="cost_benefit"),
    )
    ftl = DieStripedFtl(ssd, plane_interleave=True, session=session)
    session.ftl = ftl
    return ftl, session


def _stream(
    capacity: int, rate_ops_s: float, seed: int = 2012
) -> list[TraceOp]:
    """Fill, then seeded overwrites with one read in three."""
    rng = random.Random(seed)
    ops = [
        TraceOp(TraceOpKind.WRITE, 0, lpn, bytes([lpn]) * 4096)
        for lpn in range(capacity)
    ]
    for index in range(2 * capacity):
        lpn = rng.randrange(capacity)
        if rng.random() < 1 / 3:
            ops.append(TraceOp(TraceOpKind.READ, 0, lpn))
        else:
            ops.append(TraceOp(
                TraceOpKind.WRITE, 0, lpn, bytes([index & 0xFF]) * 4096
            ))
    return fixed_rate_arrivals(ops, rate_ops_s)


def _run(gc_mode: str):
    """Run the stream; returns (digest, backlog depth seen by each submit)."""
    ftl, session = _build(gc_mode)
    backlog_at_submit = []
    submit = session.submit

    def spy(io):
        backlog_at_submit.append(session.backlog)
        return submit(io)

    session.submit = spy
    done = []
    run_open_loop_workload(
        ftl,
        OpenLoopWorkload(
            "pin",
            _stream(ftl.logical_capacity, OFFERED_OPS_S[gc_mode]),
            queue_depth=QUEUE_DEPTH,
        ),
        session=session,
        on_completion=done.append,
    )
    digest = hashlib.sha256()
    for c in done:
        digest.update(repr((
            c.tag, c.kind.name, c.lpn, c.submit_s, c.dispatch_s, c.done_s,
        )).encode())
        digest.update(c.data if c.data is not None else b"-")
    stats, gc = ftl.stats, ftl.gc_stats
    digest.update(repr((
        stats.host_writes, stats.host_reads, stats.trims,
        stats.write_time_s, stats.read_time_s, stats.corrected_bits,
        gc.collections, gc.pages_migrated, gc.blocks_erased,
        gc.migration_time_s, gc.background_collections,
        gc.scheduled_busy_s,
    )).encode())
    mapped = [
        lpn for lpn in range(ftl.logical_capacity) if ftl.is_mapped(lpn)
    ]
    digest.update(repr(mapped).encode())
    assert gc.collections > 0
    return digest.hexdigest(), backlog_at_submit


@pytest.mark.parametrize("gc_mode", GC_MODES)
def test_overloaded_stream_matches_pinned_digest(gc_mode):
    digest, backlog_at_submit = _run(gc_mode)
    assert any(backlog_at_submit), "the backlog was never live at a submit"
    assert digest == PINNED[gc_mode]
