"""Golden digests of the ``sys_*`` experiment reports.

``sys_des`` (host and FTL runners), ``sys_services`` (namespaces on the
FTL), ``sys_ssd`` (``run_ssd_workload`` over four topologies) and
``sys_pipeline`` (striped batches under every pipeline mode) print what
the closed-loop runners and ``SsdSession.execute`` produce.
``sys_observe`` renders a traced open-loop session: span
reconciliation, windowed utilization and SMART counters.  Each case
pins the sha256 of the report ``python -m repro run <id>`` prints (its
``render()``), built on a fresh ``ExperimentSuite(seed=2012)`` as the
CLI builds it.  The reports do not depend on ``PYTHONHASHSEED``.

The other two open-loop experiments (``sys_openloop`` and
``sys_sustained``, about 6 s each) are too slow for tier 1; their
reports are pinned the same way by ``benchmarks/bench_system_openloop.py``
and ``benchmarks/bench_system_sustained.py``.
"""

import hashlib

import pytest

from repro.analysis.experiments import ExperimentSuite

RUNNERS = {
    "sys_des": ExperimentSuite.run_system_des,
    "sys_services": ExperimentSuite.run_system_services,
    "sys_ssd": ExperimentSuite.run_system_ssd,
    "sys_pipeline": ExperimentSuite.run_system_pipeline,
    "sys_observe": ExperimentSuite.run_system_observe,
}

#: sha256 of each experiment's rendered report.
DIGESTS = {
    "sys_des":
        "4f6c4705352499d521856fcb1b15ce9e6247203a3a5238c26a46e242a3e3fcf4",
    "sys_services":
        "6d33582d5ce65680e0e9209e45c2deae1bb0b0d3389cab246234dc80c0585ae4",
    "sys_ssd":
        "e11bc8d17fdb3ccc71b82478277ba1eb6501bd20e277d4be0ca53082a335be9f",
    "sys_pipeline":
        "6e5b813a77b0037bc2e6d4664e9dc872dafb21b9b500541d024f053666c7f778",
    "sys_observe":
        "cf72ae51c0cb55a2d6b54ffd7e82ab6a12020ac6a0cc6a874399bdc8bf170339",
}


@pytest.mark.parametrize("exp_id", sorted(RUNNERS))
def test_report_matches_pinned_digest(exp_id):
    report = RUNNERS[exp_id](ExperimentSuite(seed=2012)).render()
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[exp_id]
