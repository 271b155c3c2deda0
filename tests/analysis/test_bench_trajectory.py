"""The trajectory writer the system benches append their runs with.

``bench_sim_speed.py``, ``bench_observability.py`` and
``bench_sustained_write.py`` record each run in a ``BENCH_*.json`` through
``benchmarks/conftest.append_trajectory``: the benchmark's header followed
by a ``trajectory`` list that stores a run equal to the last one once.
"""

import json

from benchmarks.conftest import append_trajectory

HEADER = {"benchmark": "demo", "shape": "quick"}


def _read(path):
    return json.loads(path.read_text())


def test_first_entry_creates_file_with_header(tmp_path):
    path = tmp_path / "out" / "BENCH_demo.json"
    append_trajectory(path, HEADER, {"ops_per_s": 1.0})
    assert _read(path) == {**HEADER, "trajectory": [{"ops_per_s": 1.0}]}
    assert path.read_text().endswith("}\n")


def test_entry_equal_to_the_last_is_stored_once(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    for _ in range(3):
        append_trajectory(path, HEADER, {"ops_per_s": 1.0})
    assert _read(path)["trajectory"] == [{"ops_per_s": 1.0}]


def test_changed_entry_is_appended_after_the_history(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    for value in (1.0, 2.0, 1.0):
        append_trajectory(path, HEADER, {"ops_per_s": value})
    # Only a repeat of the *last* entry is dropped; older ones may recur.
    assert _read(path)["trajectory"] == [
        {"ops_per_s": 1.0}, {"ops_per_s": 2.0}, {"ops_per_s": 1.0},
    ]
    assert {k: v for k, v in _read(path).items() if k != "trajectory"} == HEADER
