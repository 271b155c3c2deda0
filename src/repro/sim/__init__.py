"""Discrete-event simulation substrate for system-level experiments."""

from repro.sim.engine import HeapEventList, SimEngine
from repro.sim.stats import LatencyStats, ThroughputStats
from repro.sim.host import (
    HostWorkload,
    OpenLoopWorkload,
    WorkloadResult,
    preread_lpns,
    run_ftl_workload,
    run_host_workload,
    run_open_loop_workload,
    run_ssd_workload,
)

__all__ = [
    "SimEngine",
    "HeapEventList",
    "LatencyStats",
    "ThroughputStats",
    "HostWorkload",
    "OpenLoopWorkload",
    "preread_lpns",
    "run_host_workload",
    "run_ftl_workload",
    "run_open_loop_workload",
    "run_ssd_workload",
    "WorkloadResult",
]
