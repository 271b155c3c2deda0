"""Golden digests of the closed-batch ``sys_*`` experiment reports.

``sys_des`` (host and FTL runners), ``sys_services`` (namespaces on the
FTL), ``sys_ssd`` (``run_ssd_workload`` over four topologies) and
``sys_pipeline`` (striped batches under every pipeline mode) print what
the closed-loop runners and ``SsdSession.execute`` produce.  Each case
pins the sha256 of the report ``python -m repro run <id>`` prints (its
``render()``), built on a fresh ``ExperimentSuite(seed=2012)`` as the
CLI builds it.  The reports do not depend on ``PYTHONHASHSEED``.

The open-loop experiments (``sys_openloop``, ``sys_observe``,
``sys_sustained``) take several times longer and are left to the
scheduler and end-to-end golden digests.
"""

import hashlib

import pytest

from repro.analysis.experiments import ExperimentSuite

RUNNERS = {
    "sys_des": ExperimentSuite.run_system_des,
    "sys_services": ExperimentSuite.run_system_services,
    "sys_ssd": ExperimentSuite.run_system_ssd,
    "sys_pipeline": ExperimentSuite.run_system_pipeline,
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
}


@pytest.mark.parametrize("exp_id", sorted(RUNNERS))
def test_report_matches_pinned_digest(exp_id):
    report = RUNNERS[exp_id](ExperimentSuite(seed=2012)).render()
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[exp_id]
