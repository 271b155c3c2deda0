"""System bench — sustained-write steady state under the session GC modes.

Pins the report ``python -m repro run sys_sustained`` prints: the sha256
of ``render()`` on a fresh ``ExperimentSuite(seed=2012)``, which does
not depend on ``PYTHONHASHSEED``.
"""

import hashlib

from benchmarks.conftest import run_once, save_report
from repro.analysis.experiments import ExperimentSuite

#: sha256 of the rendered ``sys_sustained`` report.
DIGEST = (
    "5e72821c8a57bf06868da3d767d03496ee93803c6fdc18c2d21ffedc0d46f187"
)


def test_system_sustained(benchmark):
    result = run_once(
        benchmark, ExperimentSuite(seed=2012).run_system_sustained
    )
    save_report(result)
    assert hashlib.sha256(result.render().encode()).hexdigest() == DIGEST
    steady = {run["mode"]: run["steady_ops_s"] for run in result.data["runs"]}
    # Background collection overlaps host I/O on idle dies, so its
    # steady rate beats the foreground mode's stalls.
    assert steady["background"] > steady["foreground"]
