"""Phase-level trace recording and Chrome trace-event export.

A :class:`TraceRecorder` attached to a
:class:`~repro.ssd.scheduler.SchedulerCore` captures one **span** per
resource reservation the scheduler accounts — exactly the intervals
that feed the ``die_busy_s`` / ``channel_busy_s`` / ``ecc_busy_s``
accumulators, plus a queue-wait span per command — so the trace's
per-resource totals reconcile with the scheduler's own accounting to
float tolerance (:meth:`TraceRecorder.busy_totals`).  The flat
``_flat_burst`` dispatch core records at its accounting points, and
recording changes no event ordering, sequence allocation or float
arithmetic — traced runs are bit-identical to untraced ones.

Spans are plain 7-tuples ``(track, a, b, start_s, end_s, tag, kind)``:

* ``track`` — :data:`TRACK_PLANE` (array busy, ``a`` = die, ``b`` =
  plane), :data:`TRACK_BUS` (``a`` = channel), :data:`TRACK_ECC`
  (``a`` = channel), or :data:`TRACK_QUEUE` (admission→service wait,
  ``a`` = die, ``b`` = plane);
* ``tag`` — the command's submission tag; ``kind`` — an index into
  :data:`KIND_NAMES`.

:meth:`TraceRecorder.export_chrome_trace` writes the spans in the
Chrome trace-event JSON format; drop the file onto
https://ui.perfetto.dev (or ``chrome://tracing``) and every die/plane,
channel bus, ECC engine and per-plane queue renders as its own
timeline row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path

__all__ = [
    "KIND_NAMES",
    "TRACK_BUS",
    "TRACK_ECC",
    "TRACK_PLANE",
    "TRACK_QUEUE",
    "TraceRecorder",
    "UtilizationSeries",
]

#: Span track codes (tuple slot 0).
TRACK_PLANE = 0
TRACK_BUS = 1
TRACK_ECC = 2
TRACK_QUEUE = 3

#: Command-kind codes (tuple slot 6).  GC-origin commands carry the
#: same three kinds offset by 3, so Perfetto can colour collection
#: traffic apart from host traffic on the same plane/bus/ECC rows.
KIND_NAMES = ("read", "program", "erase",
              "gc-read", "gc-program", "gc-erase")

_TRACK_NAMES = ("plane", "bus", "ecc", "queue")


@dataclass
class UtilizationSeries:
    """Time-windowed busy fractions per resource (plus queue depth).

    ``die`` / ``channel`` / ``ecc`` hold one list per resource with the
    busy fraction of each ``window_s``-wide window; ``queue_depth`` is
    the time-averaged number of dispatched-but-incomplete commands per
    window (from the recorder's completion records).
    """

    window_s: float
    windows: int
    die: list[list[float]] = field(default_factory=list)
    channel: list[list[float]] = field(default_factory=list)
    ecc: list[list[float]] = field(default_factory=list)
    queue_depth: list[float] = field(default_factory=list)


class TraceRecorder:
    """Collects phase spans and completions from scheduler cores.

    Pass one to :class:`~repro.ssd.scheduler.SchedulerCore` /
    :class:`~repro.ssd.session.SsdSession` at construction.  Recording
    is append-only and memory grows with the number of spans — tracing
    is an inspection tool, not an always-on counter (those live in
    :mod:`repro.obs.counters`).
    """

    def __init__(self) -> None:
        #: Raw spans, recording order (see the module docstring).
        self._spans: list[tuple] = []
        #: CommandCompletion records, completion order.
        self.completions: list = []
        self.dies = 0
        self.channels = 0
        self.planes = 1

    # -- wiring ------------------------------------------------------------------

    def attach(self, core) -> None:
        """Adopt a core's topology and hook its completion callbacks.

        Called by ``SchedulerCore.__init__`` when constructed with a
        recorder; safe to share one recorder across cores of the same
        topology.
        """
        self.dies = max(self.dies, core.topology.dies)
        self.channels = max(self.channels, core.topology.channels)
        self.planes = max(self.planes, core.planes)
        core.on_finish.append(self._note_completion)

    def _note_completion(self, completion) -> None:
        self.completions.append(completion)

    # -- inspection --------------------------------------------------------------

    @property
    def spans(self) -> list[tuple]:
        """The recorded spans (live list, recording order)."""
        return self._spans

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        """Drop all recorded spans and completions."""
        self._spans.clear()
        self.completions.clear()

    def end_s(self) -> float:
        """Timestamp of the last span end (0.0 when empty)."""
        return max((s[4] for s in self._spans), default=0.0)

    def busy_totals(self) -> dict[str, list[float]]:
        """Summed span durations per resource — the reconciliation view.

        Returns ``{"die": [...], "channel": [...], "ecc": [...]}``
        matching the scheduler's ``die_busy_s`` / ``channel_busy_s`` /
        ``ecc_busy_s`` accumulators to float tolerance (``fsum`` here
        vs. running addition there; the intervals are identical).
        """
        die = [[] for _ in range(self.dies)]
        channel = [[] for _ in range(self.channels)]
        ecc = [[] for _ in range(self.channels)]
        for track, a, _b, start, end, _tag, _kind in self._spans:
            if track == TRACK_PLANE:
                die[a].append(end - start)
            elif track == TRACK_BUS:
                channel[a].append(end - start)
            elif track == TRACK_ECC:
                ecc[a].append(end - start)
        return {
            "die": [fsum(parts) for parts in die],
            "channel": [fsum(parts) for parts in channel],
            "ecc": [fsum(parts) for parts in ecc],
        }

    def utilization(
        self, window_s: float, end_s: float | None = None
    ) -> UtilizationSeries:
        """Per-resource busy fraction per ``window_s``-wide window.

        ``end_s`` defaults to the last span end; spans are clipped into
        the windows they overlap.  Queue-depth occupancy comes from the
        completion records (admit→done intervals).
        """
        if window_s <= 0:
            raise ValueError("window width must be positive")
        horizon = self.end_s() if end_s is None else end_s
        windows = max(1, int(-(-horizon // window_s))) if horizon > 0 else 1
        die = [[0.0] * windows for _ in range(self.dies)]
        channel = [[0.0] * windows for _ in range(self.channels)]
        ecc = [[0.0] * windows for _ in range(self.channels)]
        rows = (die, channel, ecc)
        for track, a, _b, start, end, _tag, _kind in self._spans:
            if track == TRACK_QUEUE:
                continue
            _clip(rows[track][a], start, end, window_s, windows)
        depth = [0.0] * windows
        for completion in self.completions:
            _clip(depth, completion.admit_s, completion.done_s,
                  window_s, windows)
        return UtilizationSeries(
            window_s=window_s,
            windows=windows,
            die=[[v / window_s for v in row] for row in die],
            channel=[[v / window_s for v in row] for row in channel],
            ecc=[[v / window_s for v in row] for row in ecc],
            queue_depth=[v / window_s for v in depth],
        )

    # -- Chrome trace-event export -----------------------------------------------

    def _track_id(self, track: int, a: int, b: int) -> int:
        """Deterministic Perfetto thread id per resource timeline."""
        plane_rows = self.dies * self.planes
        if track == TRACK_PLANE:
            return 1 + a * self.planes + b
        if track == TRACK_BUS:
            return 1 + plane_rows + a
        if track == TRACK_ECC:
            return 1 + plane_rows + self.channels + a
        return 1 + plane_rows + 2 * self.channels + a * self.planes + b

    def to_chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event JSON object (dict form)."""
        events: list[dict] = []
        seen_tracks: dict[int, str] = {}
        for track, a, b, start, end, tag, kind in self._spans:
            tid = self._track_id(track, a, b)
            if tid not in seen_tracks:
                if track == TRACK_PLANE:
                    name = f"die {a} / plane {b}"
                elif track == TRACK_BUS:
                    name = f"channel {a} bus"
                elif track == TRACK_ECC:
                    name = f"channel {a} ecc"
                else:
                    name = f"die {a} / plane {b} queue"
                seen_tracks[tid] = name
            events.append({
                "name": f"{KIND_NAMES[kind]} #{tag}",
                "cat": _TRACK_NAMES[track],
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": start * 1e6,   # trace-event timestamps are in us
                "dur": (end - start) * 1e6,
                "args": {"tag": tag, "kind": KIND_NAMES[kind]},
            })
        metadata: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0,
            "args": {"name": "ssd"},
        }]
        for tid in sorted(seen_tracks):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": seen_tracks[tid]},
            })
            metadata.append({
                "name": "thread_sort_index", "ph": "M", "pid": 0,
                "tid": tid, "args": {"sort_index": tid},
            })
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON; returns the path.

        Open the file at https://ui.perfetto.dev ("Open trace file")
        or ``chrome://tracing``.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return path


def _clip(row: list[float], start: float, end: float,
          window_s: float, windows: int) -> None:
    """Add an interval's overlap with each window into ``row``."""
    if end <= start:
        return
    first = max(0, int(start // window_s))
    last = min(windows - 1, int(end // window_s))
    for index in range(first, last + 1):
        lo = index * window_s
        hi = lo + window_s
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            row[index] += overlap
