"""System bench — open-loop arrival sweep through the SsdSession queue pair.

Pins the report ``python -m repro run sys_openloop`` prints: the sha256
of ``render()`` on a fresh ``ExperimentSuite(seed=2012)``, which does
not depend on ``PYTHONHASHSEED``.  The sweep's saturation probe and
every sweep point prefill their drive through a closed batch, so the
digest covers closed and open-loop admission alike.
"""

import hashlib

from benchmarks.conftest import run_once, save_report
from repro.analysis.experiments import ExperimentSuite

#: sha256 of the rendered ``sys_openloop`` report.
DIGEST = (
    "418095784dab5148afd8a20ebd8c7a8f7207a7e0d64fcfa0604fde704a0739a6"
)


def test_system_openloop(benchmark):
    result = run_once(
        benchmark, ExperimentSuite(seed=2012).run_system_openloop
    )
    save_report(result)
    assert hashlib.sha256(result.render().encode()).hexdigest() == DIGEST
    # Rows: [offered/sat, offered ops/s, read MB/s, read p50/p95/p99,
    #        queue p95, service p95, die util].
    rows = result.data["rows"]
    below = [r[2] for r in rows if r[0] < 1]
    past = [r[2] for r in rows if r[0] > 1]
    # Below saturation the completed rate tracks the offered rate.
    assert below == sorted(below) and below[-1] > 2 * below[0]
    # Past the knee completed read MB/s flat-lines at capacity.
    assert max(past) < 1.05 * min(past)
