"""Tests of the end-to-end benchmark's own machinery.

Span self-time arithmetic, patch/unpatch identity, the compare verdicts,
the read-after-write check, the metric lists in BENCHMARK.json, and one
small workload against its committed golden digest.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import bench_e2e
import e2e_trace
import e2e_workloads
from repro.workloads.traces import TraceOp, TraceOpKind


def _recorder():
    ticks = iter(range(1000))
    return e2e_trace.SpanRecorder(clock=lambda: next(ticks))


class TestSelfTimes:
    def test_nested_spans_subtract_their_children(self):
        recorder = _recorder()
        inner = recorder.wrap("inner", lambda: None)
        outer = recorder.wrap("outer", lambda: (inner(), inner()))
        outer()
        # outer: t0=0, inner 1..2, inner 3..4, outer t1=5.
        assert recorder.spans == [
            ("outer", 0, 5, -1), ("inner", 1, 2, 0), ("inner", 3, 4, 0),
        ]
        assert e2e_trace.self_times(recorder.spans) == {
            "outer": 3, "inner": 2,
        }

    def test_recursive_spans_count_the_outermost_time_once(self):
        recorder = _recorder()
        calls = []

        def count(rec, args, kwargs, result, token):
            calls.append(args)

        def descend(depth):
            return descend_traced(depth - 1) if depth else 0

        descend_traced = recorder.wrap("layer", descend, count)
        descend_traced(3)
        # Four nested spans from t=0 to t=7; their self times sum to 7.
        assert e2e_trace.self_times(recorder.spans) == {"layer": 7}
        assert calls == [(3,)]

    def test_raising_span_is_closed_and_attributed(self):
        recorder = _recorder()

        def fail():
            raise ValueError("boom")

        failing = recorder.wrap("failing", fail)

        def guarded():
            with pytest.raises(ValueError):
                failing()

        recorder.wrap("outer", guarded)()
        assert recorder.spans == [("outer", 0, 3, -1), ("failing", 1, 2, 0)]
        assert recorder._open == [] and recorder._open_names == []
        assert e2e_trace.self_times(recorder.spans) == {
            "outer": 2, "failing": 1,
        }


def test_uninstall_restores_every_patched_attribute():
    originals = [
        (owner, attribute, vars(owner)[attribute])
        for owner, attribute in e2e_trace.boundary_owners()
    ]
    patches = e2e_trace.install(e2e_trace.SpanRecorder())
    try:
        assert all(
            vars(owner)[attribute] is not original
            for owner, attribute, original in originals
        )
    finally:
        e2e_trace.uninstall(patches)
    assert all(
        vars(owner)[attribute] is original
        for owner, attribute, original in originals
    )


class TestCompare:
    @pytest.mark.parametrize("base, new, better, expected", [
        ([10, 10.1, 10.2, 10.1, 10], [9, 9.1, 9.0, 9.2, 9.1], "lower",
         "better"),
        ([10, 10.1, 10.2, 10.1, 10], [12, 12.1, 12, 12.2, 12.1], "lower",
         "worse"),
        ([10, 10.1, 10.2, 10.1, 10], [10.2, 10.1, 10.3, 10.2, 10.1], "lower",
         "within bound"),
        ([10, 14, 9, 16, 10], [11, 15, 9, 15, 10], "lower", "unresolved"),
        ([100, 101, 100, 102, 101], [80, 81, 80, 82, 81], "higher", "worse"),
    ])
    def test_verdicts(self, base, new, better, expected):
        assert bench_e2e.verdict(base, new, better, 0.10) == expected

    def test_compare_reports_metrics_and_counts(self):
        def record(wall, builds):
            child = {metric: wall for metric, *_ in bench_e2e.END_TO_END}
            child["speed"] = 1.0
            layers = dict.fromkeys(e2e_trace.EXACT, 1)
            layers["gf.field_builds"] = builds
            return {
                "git_sha": "0" * 40, "dirty": False, "utc": "t", "seed": 1,
                "quick": False,
                "workloads": {"des_stream": {
                    "children": [child] * 5,
                    "traced": [{"layers": layers}],
                }},
            }

        lines = bench_e2e.compare(record(10.0, 7), record(10.0, 6))
        assert any("wall_s" in line and "within bound" in line
                   for line in lines)
        assert any("gf.field_builds" in line and "differs" in line
                   for line in lines)
        assert any("sim.events" in line and "identical" in line
                   for line in lines)


def _completion(tag, kind, lpn, data=None):
    return SimpleNamespace(tag=tag, kind=kind, lpn=lpn, data=data)


def test_read_after_write_check_catches_stale_and_missing_reads():
    read, write = TraceOpKind.READ, TraceOpKind.WRITE
    ops = [
        TraceOp(read, 0, 5),
        TraceOp(write, 0, 5, b"new"),
        TraceOp(read, 0, 5),
        TraceOp(read, 0, 9),
    ]
    initial = {0: b"old", 1: b"nine"}
    good = [
        _completion(0, read, 0, b"old"),
        _completion(1, write, 0),
        _completion(2, read, 0, b"new"),
        _completion(3, read, 1, b"nine"),
    ]
    assert e2e_workloads.check_session_run(ops, initial, good) == (0, [])
    stale = good[:2] + [_completion(2, read, 0, b"old")] + good[3:]
    assert e2e_workloads.check_session_run(ops, initial, stale)[0] == 1
    assert e2e_workloads.check_session_run(ops, initial, good[:3])[0] == 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((bench_e2e.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_e2e.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(bench_e2e.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(e2e_trace.PER_LAYER)


def test_small_des_stream_reproduces_its_golden_digest():
    workload = e2e_workloads.DesStream(seed=2012, quick=True)
    workload.setup()
    workload.run()
    outcome = workload.verify()
    golden = bench_e2e.load_golden()[
        bench_e2e.golden_key("des_stream", 2012, True)
    ]
    assert outcome.failed == 0 and outcome.problems == []
    assert outcome.parts == golden["parts"]
    assert outcome.digest == golden["sha256"]
