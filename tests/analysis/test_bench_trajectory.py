"""The trajectory writer the system benches append their runs with.

``bench_sim_speed.py``, ``bench_observability.py`` and
``bench_sustained_write.py`` record each run in a ``BENCH_*.json`` through
``benchmarks/conftest.append_trajectory``: the benchmark's header followed
by a ``trajectory`` list that stores a run equal to the last one once.
Every entry carries the provenance fields of the end-to-end records
except the time and the dirty flag, which would make each rerun unique.
"""

import json
import os
import platform
import re

import numpy as np

from benchmarks.conftest import append_trajectory

HEADER = {"benchmark": "demo", "shape": "quick"}
STAMP = ("git_sha", "python", "numpy", "nproc")


def _read(path):
    return json.loads(path.read_text())


def _runs(path):
    """The trajectory with each entry's provenance stamp removed."""
    return [
        {k: v for k, v in entry.items() if k not in STAMP}
        for entry in _read(path)["trajectory"]
    ]


def test_first_entry_creates_file_with_header(tmp_path):
    path = tmp_path / "out" / "BENCH_demo.json"
    append_trajectory(path, HEADER, {"ops_per_s": 1.0})
    assert {k: v for k, v in _read(path).items() if k != "trajectory"} == HEADER
    assert _runs(path) == [{"ops_per_s": 1.0}]
    assert path.read_text().endswith("}\n")


def test_entry_is_stamped_with_provenance(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    append_trajectory(path, HEADER, {"ops_per_s": 1.0})
    [entry] = _read(path)["trajectory"]
    assert set(entry) == {*STAMP, "ops_per_s"}
    assert re.fullmatch(r"[0-9a-f]{40}|unknown", entry["git_sha"])
    assert entry["python"] == platform.python_version()
    assert entry["numpy"] == np.__version__
    assert entry["nproc"] == os.cpu_count()


def test_entry_equal_to_the_last_is_stored_once(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    for _ in range(3):
        append_trajectory(path, HEADER, {"ops_per_s": 1.0})
    assert _runs(path) == [{"ops_per_s": 1.0}]


def test_changed_entry_is_appended_after_the_history(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    for value in (1.0, 2.0, 1.0):
        append_trajectory(path, HEADER, {"ops_per_s": value})
    # Only a repeat of the *last* entry is dropped; older ones may recur.
    assert _runs(path) == [
        {"ops_per_s": 1.0}, {"ops_per_s": 2.0}, {"ops_per_s": 1.0},
    ]
    assert {k: v for k, v in _read(path).items() if k != "trajectory"} == HEADER
