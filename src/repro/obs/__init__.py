"""Observability: phase tracing, streaming histograms, SMART counters.

Every layer of the simulated SSD keeps *some* accounting — the
scheduler its busy-time accumulators, the FTL its host-op and GC
stats, the codec path its corrected-bit registers — but none of it
answers "what happened, when, on which resource".  This package is the
telemetry layer that does, in three instruments:

**Phase-level tracing** (:mod:`repro.obs.trace`).  A
:class:`~repro.obs.trace.TraceRecorder` passed to a
:class:`~repro.ssd.scheduler.SchedulerCore` (or an
:class:`~repro.ssd.session.SsdSession`) records one span per resource
reservation in the flat ``_flat_burst`` dispatch core.  The span model
mirrors the scheduler's own accounting exactly:

* a **plane** span per array phase (sense / ISPP program / erase, and
  the tRCBSY cache handoff) — these sum to ``die_busy_s``;
* a **bus** span per channel section hold (the fused transfer+ECC
  section, or each transfer under ``pipelined_ecc``) — summing to
  ``channel_busy_s``;
* an **ecc** span per ECC-engine occupancy — summing to
  ``ecc_busy_s``;
* a **queue** span per command covering its admission→service wait.

Spans carry the command tag and kind, so a timeline is attributable
I/O by I/O.  Instrumentation is zero-cost when disabled: every hook
is behind a ``recorder is None`` check on a local, the flat core's
inline-turn machinery is untouched, and recording changes no event
order or float — traced and untraced runs are bit-identical
(equivalence-tested).  ``export_chrome_trace()`` writes Chrome
trace-event JSON: open it at https://ui.perfetto.dev ("Open trace
file") or ``chrome://tracing`` and each die/plane, channel bus, ECC
engine and per-plane queue is a timeline row.

**Streaming histograms** (:mod:`repro.obs.histogram`).
:class:`~repro.obs.histogram.LogBucketHistogram` is an HDR-style
log-bucket histogram: fixed memory however many samples stream in,
percentiles within a documented relative error bound of
``sqrt(10 ** (1 / buckets_per_decade)) - 1`` (~1.8 % at the default 64
buckets/decade) against exact nearest-rank percentiles.
:class:`~repro.obs.histogram.StreamingLatencyStats` is the drop-in
:class:`~repro.sim.stats.LatencyStats` replacement built on it — the
percentile engine of open-loop runs
(:func:`~repro.sim.host.run_open_loop_workload`, whose
``on_completion`` hook sees every completion).
Time-windowed utilization series (per-die/channel/ECC busy fraction
and queue-depth occupancy per window) come from
:meth:`~repro.obs.trace.TraceRecorder.utilization`.

**SMART-style counters** (:mod:`repro.obs.counters`).  A
:class:`~repro.obs.counters.CounterRegistry` snapshot of device
health: host reads/writes/trims, media page reads/programs/erases,
corrected bits and decode failures from the BCH path, GC migrations
and write amplification, per-die wear, queue-pair and dispatch-path
counters.  ``SsdSession.metrics()`` assembles one; the ``sys_observe``
experiment (CLI: ``python -m repro run sys_observe``) reports it next
to the trace reconciliation.
"""

from repro.obs.counters import Counter, CounterRegistry
from repro.obs.histogram import LogBucketHistogram, StreamingLatencyStats
from repro.obs.trace import (
    KIND_NAMES,
    TRACK_BUS,
    TRACK_ECC,
    TRACK_PLANE,
    TRACK_QUEUE,
    TraceRecorder,
    UtilizationSeries,
)

__all__ = [
    "Counter",
    "CounterRegistry",
    "KIND_NAMES",
    "LogBucketHistogram",
    "StreamingLatencyStats",
    "TRACK_BUS",
    "TRACK_ECC",
    "TRACK_PLANE",
    "TRACK_QUEUE",
    "TraceRecorder",
    "UtilizationSeries",
]
