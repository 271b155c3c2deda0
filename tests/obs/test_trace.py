"""TraceRecorder tests: reconciliation, utilization, Chrome export."""

import json
import random

import pytest

from repro.nand.timing import NandTimingModel
from repro.obs import (
    KIND_NAMES,
    TRACK_BUS,
    TRACK_ECC,
    TRACK_PLANE,
    TRACK_QUEUE,
    TraceRecorder,
)
from repro.sim.engine import SimEngine
from repro.ssd.scheduler import (
    CommandKind,
    DieCommand,
    PipelineConfig,
    SchedulerCore,
)
from repro.ssd.topology import SsdTopology

_TIMING = NandTimingModel()
READ_PHASES = _TIMING.read_phases(25e-6, 40e-6, 90e-6, 20e-6)
PROGRAM_PHASES = _TIMING.program_phases(180e-6, 40e-6, 20e-6)


def _stream(n: int, dies: int, seed: int = 3) -> list[DieCommand]:
    rng = random.Random(seed)
    commands = []
    for tag in range(n):
        die, plane = rng.randrange(dies), rng.randrange(2)
        if rng.random() < 0.6:
            commands.append(DieCommand.from_phases(
                CommandKind.READ, die, tag, READ_PHASES,
                plane=plane, cache_busy_s=2e-6,
            ))
        else:
            commands.append(DieCommand.from_phases(
                CommandKind.PROGRAM, die, tag, PROGRAM_PHASES, plane=plane,
            ))
    return commands


@pytest.fixture
def traced_run():
    """One traced 2x2 mixed-open run; returns (recorder, core, n)."""
    recorder = TraceRecorder()
    engine = SimEngine()
    topology = SsdTopology(channels=2, dies_per_channel=2)
    core = SchedulerCore(
        engine, topology, PipelineConfig.full(), recorder=recorder
    )
    core.start()
    engine.run()
    n = 200
    core.submit_stream(_stream(n, topology.dies), window=32, arrival_s=3e-6)
    engine.run()
    return recorder, core, n


class TestReconciliation:
    def test_span_totals_match_busy_accumulators(self, traced_run):
        recorder, core, _ = traced_run
        totals = recorder.busy_totals()
        for name, accumulators in (
            ("die", core.die_busy_s),
            ("channel", core.channel_busy_s),
            ("ecc", core.ecc_busy_s),
        ):
            for span_s, busy_s in zip(totals[name], accumulators):
                assert span_s == pytest.approx(busy_s, abs=1e-9)

    def test_one_queue_span_and_completion_per_command(self, traced_run):
        recorder, _, n = traced_run
        queue_spans = [s for s in recorder.spans if s[0] == TRACK_QUEUE]
        assert len(queue_spans) == n
        assert sorted(span[5] for span in queue_spans) == list(range(n))
        assert len(recorder.completions) == n
        for _track, _a, _b, start, end, _tag, kind in recorder.spans:
            assert end >= start
            assert 0 <= kind < len(KIND_NAMES)

    def test_clear_drops_everything(self, traced_run):
        recorder, _, _ = traced_run
        assert len(recorder) > 0
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.completions == []
        assert recorder.end_s() == 0.0


class TestUtilization:
    def test_windows_cover_the_run_and_stay_in_bounds(self, traced_run):
        recorder, core, _ = traced_run
        makespan = core.engine.now_s
        series = recorder.utilization(makespan / 5)
        assert series.windows == 5
        # Die rows aggregate all planes of the die (multi-plane overlap
        # can push a die past 1.0); bus/ECC are single resources.
        bounds = ((series.die, 2.0), (series.channel, 1.0),
                  (series.ecc, 1.0))
        for rows, bound in bounds:
            for row in rows:
                assert len(row) == 5
                assert all(0.0 <= value <= bound + 1e-9 for value in row)
        # Clipped windows resum to the unwindowed totals.
        totals = recorder.busy_totals()
        for name, rows in (("die", series.die), ("channel", series.channel),
                           ("ecc", series.ecc)):
            for index, row in enumerate(rows):
                windowed = sum(row) * series.window_s
                assert windowed == pytest.approx(totals[name][index])

    def test_queue_depth_tracks_completions(self, traced_run):
        recorder, core, _ = traced_run
        series = recorder.utilization(core.engine.now_s / 4)
        assert len(series.queue_depth) == series.windows
        assert any(depth > 0 for depth in series.queue_depth)
        # Time-integral of the depth equals summed admit->done intervals.
        integral = sum(series.queue_depth) * series.window_s
        total_wait = sum(
            completion.done_s - completion.admit_s
            for completion in recorder.completions
        )
        assert integral == pytest.approx(total_wait)

    def test_window_width_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder().utilization(0.0)


class TestChromeExport:
    def test_track_ids_are_deterministic_and_distinct(self, traced_run):
        recorder, _, _ = traced_run
        ids = {}
        for track in (TRACK_PLANE, TRACK_BUS, TRACK_ECC, TRACK_QUEUE):
            for a in range(recorder.dies if track in (TRACK_PLANE, TRACK_QUEUE)
                           else recorder.channels):
                for b in range(recorder.planes
                               if track in (TRACK_PLANE, TRACK_QUEUE) else 1):
                    tid = recorder._track_id(track, a, b)
                    assert tid == recorder._track_id(track, a, b)
                    assert (track, a, b) == ids.setdefault(tid, (track, a, b))

    def test_export_round_trips_every_span(self, traced_run, tmp_path):
        recorder, _, _ = traced_run
        path = recorder.export_chrome_trace(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(recorder)
        for event in events:
            assert event["dur"] >= 0.0
            assert event["args"]["kind"] in KIND_NAMES
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any("bus" in name for name in names)
        assert any("ecc" in name for name in names)
        assert any("queue" in name for name in names)
