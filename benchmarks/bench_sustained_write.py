"""Sustained random-write steady state: the fresh->steady GC cliff.

Every real SSD writes fast while it is fresh — the allocator just
appends — and then falls off a cliff once the over-provisioned free
pool is consumed and every host write drags garbage-collection
migrations behind it.  This benchmark drives that regime on the 1ch x
4die full-pipeline SSD and measures what the scheduled-GC session
modes buy:

* **foreground** (the synchronous-GC baseline): collections run as
  GC-origin commands on the timeline and the host admission window is
  frozen while they are in flight — every collection is a stall, the
  classic write cliff;
* **background**: watermark- and idle-triggered collections overlap
  host I/O on idle dies, GC commands never consume host queue depth,
  and the per-plane dispatch gives host commands priority.

The stream fills the drive's full logical span sequentially (the fresh
plateau), then random-overwrites it ~2x with a read mixed in every
4th op, all offered at t=0 — the completed rate *is* the device's
sustained capacity.  Completion-windowed throughput exposes the cliff;
the FTL's write-amplification counter is sampled per window for the WA
curve.  A paced mixed run (fixed-rate arrivals at a fraction of the
foreground steady rate) on the aged drive then compares p99 latency:
background GC must not make tails worse than the stall baseline.

CI floors: background steady-state throughput >= 1.3x foreground, and
background paced p99 <= foreground paced p99.  Results append to
``benchmarks/out/BENCH_sustained_write.json`` — the sustained-write
trajectory across PRs.

Run standalone (``python benchmarks/bench_sustained_write.py``) or
through pytest; ``--quick`` shrinks the drive and the stream.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import append_trajectory  # noqa: E402
from repro.core.modes import OperatingMode  # noqa: E402
from repro.core.policy import CrossLayerPolicy  # noqa: E402
from repro.ftl.gc import GcConfig  # noqa: E402
from repro.nand.geometry import NandGeometry  # noqa: E402
from repro.sim.host import (  # noqa: E402
    OpenLoopWorkload,
    run_open_loop_workload,
)
from repro.ssd import (  # noqa: E402
    DieStripedFtl,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.workloads.traces import (  # noqa: E402
    TraceOp,
    TraceOpKind,
    fixed_rate_arrivals,
)

#: Acceptance floor: background steady-state write throughput vs the
#: foreground-stall (synchronous-GC) baseline on the mixed stream.
MIN_BG_VS_FG = 1.3

#: Acceptance ceiling: background paced p99 vs foreground paced p99.
MAX_BG_P99_RATIO = 1.0

#: Device-side in-flight window.
QUEUE_DEPTH = 8

#: Paced run offered rate, as a fraction of foreground steady capacity.
PACED_FRACTION = 0.6

OUT_PATH = Path(__file__).parent / "out" / "BENCH_sustained_write.json"


def _build(gc_mode: str, blocks: int):
    """1ch x 4die full-pipeline SSD with a scheduled-GC session."""
    topology = SsdTopology(
        channels=1,
        dies_per_channel=4,
        geometry=NandGeometry(blocks=blocks, pages_per_block=16),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=2012,
        pipeline=PipelineConfig.full(),
    )
    ssd.set_mode(OperatingMode.BASELINE)
    session = SsdSession(
        ssd=ssd, queue_depth=QUEUE_DEPTH, gc_mode=gc_mode,
        gc_config=GcConfig(policy="cost_benefit"),
    )
    ftl = DieStripedFtl(ssd, plane_interleave=True, session=session)
    session.ftl = ftl
    return ftl, session


def _sustained_stream(capacity: int, passes: float, seed: int) -> list[TraceOp]:
    """Sequential fill, then random overwrites with a read every 4th op."""
    rng = random.Random(seed)
    page = bytes(4096)
    ops = [
        TraceOp(TraceOpKind.WRITE, 0, lpn, page) for lpn in range(capacity)
    ]
    for index in range(int(capacity * passes)):
        if index % 4 == 3:
            ops.append(TraceOp(
                TraceOpKind.READ, 0, rng.randrange(capacity)
            ))
        else:
            ops.append(TraceOp(
                TraceOpKind.WRITE, 0, rng.randrange(capacity), page
            ))
    return ops


def _run_sustained(gc_mode: str, blocks: int, passes: float) -> dict:
    """Capacity run: windowed throughput, cliff, WA curve, steady rate."""
    ftl, session = _build(gc_mode, blocks)
    capacity = ftl.logical_capacity
    ops = _sustained_stream(capacity, passes, seed=7)
    window = max(32, len(ops) // 24)
    windows: list[dict] = []
    state = {"count": 0, "last_t": 0.0, "last_n": 0}

    def sample(completion) -> None:
        # Runs after the session's own finish handler (appended later
        # to core.on_finish), so a host completion has just landed in
        # the session's completion queue — GC-origin commands don't —
        # and the FTL counters are live mid-run, not post-drain.
        done = session.completions
        if not done or done[-1].tag != completion.tag:
            return
        state["count"] += 1
        if state["count"] - state["last_n"] < window:
            return
        elapsed = completion.done_s - state["last_t"]
        gc = ftl.gc_stats
        host_writes = ftl.stats.host_writes
        windows.append({
            "t_s": completion.done_s,
            "ops_s": (state["count"] - state["last_n"]) / elapsed
            if elapsed > 0 else 0.0,
            "wa": (host_writes + gc.pages_migrated) / host_writes
            if host_writes else 1.0,
        })
        state["last_t"] = completion.done_s
        state["last_n"] = state["count"]

    session.core.on_finish.append(sample)
    result = run_open_loop_workload(
        ftl,
        OpenLoopWorkload(
            f"sustained-{gc_mode}", ops, queue_depth=QUEUE_DEPTH
        ),
        session=session,
    )
    session.core.on_finish.remove(sample)
    gc = ftl.gc_stats
    rates = [w["ops_s"] for w in windows]
    fresh = max(rates[: max(1, len(rates) // 4)])
    tail = rates[-max(1, len(rates) // 4):]
    steady = sum(tail) / len(tail)
    return {
        "ftl": ftl,
        "session": session,
        "capacity": capacity,
        "ops": len(ops),
        "elapsed_s": result.elapsed_s,
        "windows": windows,
        "fresh_ops_s": fresh,
        "steady_ops_s": steady,
        "cliff": fresh / steady if steady else 0.0,
        "wa": (ftl.stats.host_writes + gc.pages_migrated)
        / ftl.stats.host_writes,
        "collections": gc.collections,
        "background_collections": gc.background_collections,
        "gc_busy_s": gc.scheduled_busy_s,
    }


def _run_paced(ftl, session, rate_ops_s: float, count: int) -> dict:
    """Paced mixed overwrites on the aged drive; tail latencies."""
    capacity = ftl.logical_capacity
    rng = random.Random(23)
    page = bytes(4096)
    ops = []
    for index in range(count):
        if index % 4 == 3:
            ops.append(TraceOp(TraceOpKind.READ, 0, rng.randrange(capacity)))
        else:
            ops.append(TraceOp(
                TraceOpKind.WRITE, 0, rng.randrange(capacity), page
            ))
    result = run_open_loop_workload(
        ftl,
        OpenLoopWorkload(
            "paced", fixed_rate_arrivals(ops, rate_ops_s),
            queue_depth=QUEUE_DEPTH,
        ),
        session=session,
    )
    tails = result.latency_percentiles()
    return {
        "write_p50_s": tails["write_p50_s"],
        "write_p99_s": tails["write_p99_s"],
        "queue_p95_s": tails["queue_p95_s"],
    }


def run_benchmark(quick: bool = False) -> tuple[str, dict]:
    """Foreground vs background sustained-write runs; (text, metrics)."""
    blocks = 8 if quick else 12
    passes = 2.0 if quick else 3.0
    paced_count = 256 if quick else 768

    runs = {
        mode: _run_sustained(mode, blocks, passes)
        for mode in ("foreground", "background")
    }
    fg, bg = runs["foreground"], runs["background"]
    bg_vs_fg = bg["steady_ops_s"] / fg["steady_ops_s"]

    # Paced tails on the aged (full, fragmented) drives, both offered
    # the same rate: a fraction of the *foreground* steady capacity.
    rate = PACED_FRACTION * fg["steady_ops_s"]
    for mode in ("foreground", "background"):
        runs[mode]["paced"] = _run_paced(
            runs[mode]["ftl"], runs[mode]["session"], rate, paced_count
        )
    p99_ratio = (
        bg["paced"]["write_p99_s"] / fg["paced"]["write_p99_s"]
    )

    lines = [
        "Sustained random-write steady state, 1ch x 4die, full pipeline, "
        f"QD = {QUEUE_DEPTH}, cost-benefit victims "
        f"(fill + ~{passes:.0f}x mixed overwrite, read every 4th op)",
        "",
        f"{'mode':>11} {'fresh op/s':>11} {'steady op/s':>12} "
        f"{'cliff':>6} {'WA':>5} {'colls':>6} {'bg':>5} "
        f"{'paced p99 [us]':>15}",
    ]
    for mode in ("foreground", "background"):
        r = runs[mode]
        lines.append(
            f"{mode:>11} {r['fresh_ops_s']:>11,.0f} "
            f"{r['steady_ops_s']:>12,.0f} {r['cliff']:>5.1f}x "
            f"{r['wa']:>5.2f} {r['collections']:>6} "
            f"{r['background_collections']:>5} "
            f"{r['paced']['write_p99_s'] * 1e6:>14.1f}u"
        )
    lines += [
        "",
        f"background vs foreground steady state: {bg_vs_fg:.2f}x "
        f"(floor {MIN_BG_VS_FG:.1f}x)",
        f"background/foreground paced write p99: {p99_ratio:.2f}x "
        f"(ceiling {MAX_BG_P99_RATIO:.2f}x)",
        "",
        "WA curve (background run, per completion window):",
        "  " + " ".join(
            f"{w['wa']:.2f}" for w in bg["windows"]
        ),
    ]
    metrics = {
        "bg_vs_fg_steady": bg_vs_fg,
        "p99_ratio": p99_ratio,
        "fg": {k: v for k, v in fg.items() if k not in ("ftl", "session")},
        "bg": {k: v for k, v in bg.items() if k not in ("ftl", "session")},
    }
    return "\n".join(lines) + "\n", metrics


def _save(text: str, metrics: dict, quick: bool) -> None:
    """Append this run to the trajectory JSON and print the table."""
    fg, bg = metrics["fg"], metrics["bg"]
    append_trajectory(OUT_PATH, {
        "benchmark": "sustained_write",
        "gate": {
            "topology": "1x4",
            "shape": "fill + mixed random overwrite",
            "floor_bg_vs_fg": MIN_BG_VS_FG,
            "ceiling_p99_ratio": MAX_BG_P99_RATIO,
        },
    }, {
        "quick": quick,
        "bg_vs_fg_steady": round(metrics["bg_vs_fg_steady"], 3),
        "p99_ratio": round(metrics["p99_ratio"], 3),
        "fg_steady_ops_s": round(fg["steady_ops_s"], 1),
        "bg_steady_ops_s": round(bg["steady_ops_s"], 1),
        "fg_cliff": round(fg["cliff"], 2),
        "bg_cliff": round(bg["cliff"], 2),
        "fg_wa": round(fg["wa"], 3),
        "bg_wa": round(bg["wa"], 3),
        "bg_collections": bg["collections"],
        "bg_background_collections": bg["background_collections"],
    })
    (OUT_PATH.parent / "sustained_write.txt").write_text(text)
    print("\n" + text)


def _check(metrics: dict) -> list[str]:
    failures = []
    if metrics["bg_vs_fg_steady"] < MIN_BG_VS_FG:
        failures.append(
            f"background steady-state {metrics['bg_vs_fg_steady']:.2f}x "
            f"foreground, below the {MIN_BG_VS_FG:.1f}x floor"
        )
    if metrics["p99_ratio"] > MAX_BG_P99_RATIO:
        failures.append(
            f"background paced write p99 {metrics['p99_ratio']:.2f}x "
            f"foreground, above the {MAX_BG_P99_RATIO:.2f}x ceiling"
        )
    if metrics["fg"]["cliff"] < 1.0 or metrics["bg"]["cliff"] < 1.0:
        failures.append(
            "no fresh->steady write cliff observed "
            f"(fg {metrics['fg']['cliff']:.2f}x, "
            f"bg {metrics['bg']['cliff']:.2f}x)"
        )
    return failures


@pytest.mark.slow
def test_sustained_write(quick):
    """Record the sustained-write cliff and enforce the GC floors."""
    text, metrics = run_benchmark(quick=quick)
    _save(text, metrics, quick)
    failures = _check(metrics)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    report, bench_metrics = run_benchmark(quick="--quick" in sys.argv)
    _save(report, bench_metrics, quick="--quick" in sys.argv)
    bench_failures = _check(bench_metrics)
    for failure in bench_failures:
        print("FAIL:", failure)
    print(
        f"sustained-write floors (>= {MIN_BG_VS_FG:.1f}x steady, "
        f"p99 <= {MAX_BG_P99_RATIO:.2f}x): "
        f"{bench_metrics['bg_vs_fg_steady']:.2f}x / "
        f"{bench_metrics['p99_ratio']:.2f}x "
        f"{'FAIL' if bench_failures else 'PASS'}"
    )
    sys.exit(1 if bench_failures else 0)
