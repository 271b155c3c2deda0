"""Multi-channel / multi-die SSD topology with a DES command scheduler.

The paper (Zambelli et al., DATE 2012) characterises exactly one unit of
a real SSD: a single MLC NAND die behind a memory controller whose BCH
codec, OCP socket and program-algorithm knobs trade reliability against
throughput.  This package scales that characterised unit to a full
SSD-style topology, mapping each paper component onto its system-level
role:

* :class:`~repro.ssd.topology.SsdTopology` — channels x dies on top of
  the paper's per-die :class:`~repro.nand.geometry.NandGeometry`; each
  channel carries the bus + BCH engine of the paper's controller
  (section 3), each die is one instance of the characterised device
  (section 5);
* :class:`~repro.ssd.device.SsdDevice` — one
  :class:`~repro.controller.NandController` per die under a single
  cross-layer policy, so the section-6 operating modes (baseline /
  min-UBER / max-read-throughput) reconfigure the whole SSD at once;
* :class:`~repro.ssd.session.SsdSession` — a queue pair over one
  resident :class:`~repro.ssd.scheduler.SchedulerCore`, a
  discrete-event command timeline on :class:`~repro.sim.engine.SimEngine`
  over explicit :class:`~repro.nand.timing.CommandPhase` sequences:
  array planes, channel buses, per-channel ECC engines and per-plane
  cache registers are independent serially-reusable resources.  It
  takes open-loop submissions routed through one striped FTL and
  drains closed batches
  (:meth:`~repro.ssd.session.SsdSession.execute`).  The default
  :class:`~repro.ssd.scheduler.PipelineConfig` reproduces the paper's
  non-pipelined page-buffer FSM hazard exactly; enabling ``cache_read``
  / ``multi_plane`` / ``pipelined_ecc`` unlocks the corresponding
  MT29F-class overlaps;
* :class:`~repro.ssd.striped.DieStripedFtl` — logical pages round-robin
  striped over the dies (channel-first), one FTL shard per die, so
  ``read_many``/``write_many`` and the host workload runner exploit die
  parallelism transparently while every page still pays the paper's
  per-page ECC and ISPP costs.  Each striped FTL builds its own
  session unless one is passed in.

Throughput therefore scales the way the paper's section-6 trade-offs
predict at system level: read batches are channel-bound once the
transfer + decode section saturates a bus (adding channels keeps
scaling, adding dies behind one bus saturates), while program batches
scale nearly linearly with dies because the ISPP program phase dwarfs
the channel section.
"""

from repro.ssd.device import SsdDevice
from repro.ssd.scheduler import (
    CommandCompletion,
    CommandKind,
    CommandOrigin,
    DieCommand,
    PipelineConfig,
    ScheduleResult,
    SchedulerCore,
)
from repro.ssd.session import (
    GC_MODES,
    IoCommand,
    IoCompletion,
    SsdSession,
)
from repro.ssd.striped import DieStripedFtl, StripedLocation
from repro.ssd.topology import SsdTopology, spawn_die_rngs

__all__ = [
    "GC_MODES",
    "CommandCompletion",
    "CommandKind",
    "CommandOrigin",
    "DieCommand",
    "DieStripedFtl",
    "IoCommand",
    "IoCompletion",
    "PipelineConfig",
    "ScheduleResult",
    "SchedulerCore",
    "SsdDevice",
    "SsdSession",
    "SsdTopology",
    "StripedLocation",
    "spawn_die_rngs",
]
