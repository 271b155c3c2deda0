"""Shared fixtures for the figure-reproduction benchmarks.

Each benchmark regenerates one paper figure through
:mod:`repro.analysis.experiments`, records its runtime via
pytest-benchmark, prints the same rows/series the paper reports and saves
the rendered report under ``benchmarks/out/<exp_id>.txt``.

The repo-root ``conftest.py`` registers the ``slow`` marker and the
``--quick`` option: long sweeps (e.g. ``bench_ecc_throughput``) carry
``@pytest.mark.slow`` and honour ``--quick`` via the :func:`quick`
fixture, so ``pytest benchmarks -m "not slow"`` stays snappy and
``pytest benchmarks --quick`` smoke-runs everything.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentResult, ExperimentSuite

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture()
def quick(request) -> bool:
    """True when the run asked for reduced benchmark sizes (``--quick``)."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(autouse=True)
def _profile(request):
    """Wrap each benchmark in cProfile when ``--profile`` is given.

    Prints the top 25 functions by cumulative time after the test body —
    the first place to look when a sim-speed number moves — and writes
    the same table to ``benchmarks/out/profile_<test>.txt`` so CI runs
    keep it as an artifact alongside the figure reports.
    """
    if not request.config.getoption("--profile"):
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    yield
    profiler.disable()
    report = io.StringIO()
    stats = pstats.Stats(profiler, stream=report)
    stats.sort_stats("cumulative").print_stats(25)
    table = report.getvalue()
    print(f"\n--- cProfile (top 25 cumulative) for {request.node.name} ---")
    print(table)
    OUT_DIR.mkdir(exist_ok=True)
    slug = "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in request.node.name
    )
    (OUT_DIR / f"profile_{slug}.txt").write_text(
        f"cProfile (top 25 cumulative) for {request.node.name}\n\n{table}"
    )


@pytest.fixture()
def suite() -> ExperimentSuite:
    """A fresh model suite for each bench.

    Each bench draws from its own ``ExperimentSuite(seed=2012)``
    generator, so a report does not depend on which benches ran before
    it in the session.
    """
    return ExperimentSuite(seed=2012)


def save_report(result: ExperimentResult) -> None:
    """Persist and print the rendered figure report."""
    OUT_DIR.mkdir(exist_ok=True)
    text = result.render() + "\n"
    (OUT_DIR / f"{result.exp_id}.txt").write_text(text)
    print("\n" + text)


def _git_sha() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            text=True, capture_output=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def append_trajectory(path: Path, header: dict, entry: dict) -> None:
    """Append one run to the ``trajectory`` list of a ``BENCH_*.json``.

    The file holds ``header`` (the benchmark's name and fixed settings)
    followed by the trajectory.  Each entry is stamped with the
    ``git_sha``, ``python``, ``numpy`` and ``nproc`` fields the
    end-to-end records carry, but not their ``utc`` or ``dirty``: an
    entry identical to the last one is stored once, so rerunning a
    deterministic benchmark on unchanged code adds nothing.
    """
    entry = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        **entry,
    }
    path.parent.mkdir(exist_ok=True)
    trajectory = []
    if path.exists():
        trajectory = json.loads(path.read_text()).get("trajectory", [])
    if not trajectory or trajectory[-1] != entry:
        trajectory.append(entry)
    path.write_text(
        json.dumps({**header, "trajectory": trajectory}, indent=2) + "\n"
    )


def run_once(benchmark, runner, *args, **kwargs) -> ExperimentResult:
    """Benchmark an experiment with a single timed round.

    Figure regenerations run Monte-Carlo sweeps; one round keeps the whole
    harness fast while still reporting wall-clock cost per figure.
    """
    return benchmark.pedantic(runner, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
