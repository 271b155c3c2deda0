"""Garbage collection: victim selection and valid-page migration.

The collector runs in two timing regimes over one data path:

* **Synchronous (foreground-of-the-write)** — the historical flow:
  :meth:`FlashTranslationLayer._provision` calls :meth:`collect` while
  staging a host write, the migration's reads/programs/erase run
  through the controller batch datapath between DES events, and their
  serial stage latencies accumulate in
  :attr:`GcStats.migration_time_s`.  Nothing appears on the command
  timeline — a collection is invisible to the scheduler.
* **Scheduled (foreground-stall or background)** — a
  :class:`~repro.ssd.session.SsdSession` with ``gc_mode`` set installs
  a migration :attr:`GarbageCollector.sink`.  The data path still runs
  synchronously (same controllers, same RNG order, byte-identical
  pages), but the per-page reports are handed to the sink, which
  replays them as ``gc``-origin
  :class:`~repro.ssd.scheduler.DieCommand` reads/programs plus the
  victim erase on the session's shared timeline — so collections
  contend for planes, channel buses and ECC engines against host
  traffic, and (in background mode) overlap host I/O on idle dies.
  When the sink schedules a migration, its timeline cost is tracked by
  the session in :attr:`GcStats.scheduled_busy_s` and
  :attr:`GcStats.migration_time_s` is *not* accumulated — the serial
  sum would double-count time that now plays out (and overlaps) on the
  clock.

Victim selection is pluggable (:attr:`GarbageCollector.policy`): the
default ``greedy`` picks the most-stale closed block, while
``cost_benefit`` weighs reclaimed space against migration cost and
block age — the classic ``(1 - u) / 2u * age`` score that avoids
re-migrating hot blocks and drives steady-state write amplification
down under skewed workloads.  Die-parallel (superblock-striped)
collection enters through :meth:`collect_block`, which migrates one
*specific* block so every shard of a
:class:`~repro.ssd.striped.DieStripedFtl` can collect the same block
id concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Callable

from repro.controller.controller import (
    NandController, ReadReport, WriteReport,
)
from repro.errors import ControllerError
from repro.ftl.mapping import LogicalMap
from repro.ftl.wear import WearAwareAllocator

#: Victim-selection policies understood by :class:`GarbageCollector`.
GC_POLICIES = ("greedy", "cost_benefit")


@dataclass(frozen=True)
class GcConfig:
    """Policy knobs for scheduled garbage collection.

    Consumed by :class:`~repro.ssd.session.SsdSession` when its
    ``gc_mode`` is ``"foreground"`` or ``"background"``:

    * ``policy`` — victim selection for every shard collector
      (``greedy`` or ``cost_benefit``);
    * ``low_water_blocks`` / ``high_water_blocks`` — free-block
      hysteresis band: background collection turns on when a shard's
      free pool drops to the low watermark and keeps running until it
      refills to the high one (no on/off thrash at a single boundary).

    A shard below the high watermark whose die is idle also collects,
    before the low watermark trips (free work on an idle plane), and
    the shards that collect at once share one superblock victim: the
    block id with the best summed victim score, collected in each, so
    one logical collection runs die-parallel.
    """

    policy: str = "greedy"
    low_water_blocks: int = 2
    high_water_blocks: int = 4

    def __post_init__(self) -> None:
        if self.policy not in GC_POLICIES:
            raise ControllerError(
                f"unknown GC policy {self.policy!r}; pick from {GC_POLICIES}"
            )
        if self.low_water_blocks < 1:
            raise ControllerError("low watermark must be >= 1 free block")
        if self.high_water_blocks <= self.low_water_blocks:
            raise ControllerError(
                "high watermark must sit above the low one (hysteresis)"
            )


@dataclass(frozen=True)
class GcMigration:
    """One completed migration, as the data path saw it.

    Handed to :attr:`GarbageCollector.sink` right after the victim is
    reclaimed: the per-page read/write reports carry the stage
    latencies (and physical blocks) a scheduled-GC session needs to
    rebuild the migration as timeline commands, and ``erase_s`` is the
    victim erase latency the controller already charged.
    """

    victim: int
    reads: tuple[ReadReport, ...]
    writes: tuple[WriteReport, ...]
    erase_s: float


@dataclass
class GcStats:
    """Garbage-collection accounting.

    ``migration_time_s`` is the *synchronous* path's serial stage-time
    sum and stays zero for migrations a sink scheduled;
    ``scheduled_busy_s`` is the scheduled path's resource busy time
    (summed phase durations of its die commands — plane, bus and ECC
    seconds, excluding queueing), accumulated by the session as the
    commands complete on the timeline.
    ``background_collections`` counts the subset of ``collections``
    initiated by watermark/idle triggers rather than write-time
    provisioning.
    """

    collections: int = 0
    pages_migrated: int = 0
    blocks_erased: int = 0
    migration_time_s: float = 0.0
    background_collections: int = 0
    scheduled_busy_s: float = 0.0


class GarbageCollector:
    """Pluggable-policy garbage collector with static levelling."""

    #: Wear spread (max - min erase counts) that triggers a cold-block swap.
    LEVELING_THRESHOLD = 6

    def __init__(
        self,
        controller: NandController,
        mapping: LogicalMap,
        allocator: WearAwareAllocator,
    ):
        self.controller = controller
        self.mapping = mapping
        self.allocator = allocator
        self.stats = GcStats()
        #: Victim-selection policy (see :data:`GC_POLICIES`).
        self.policy = "greedy"
        #: Scheduled-migration hook: ``sink(GcMigration) -> bool``.
        #: Installed by a scheduled-GC session; returning True means
        #: the migration's timing was placed on a command timeline and
        #: the serial ``migration_time_s`` accumulation is skipped.
        self.sink: Callable[[GcMigration], bool] | None = None

    def pick_victim(self) -> int | None:
        """Best closed block under the active policy (None if none).

        Ranks the blocks :meth:`victim_score` accepts by (score, stale
        pages, least wear), keeping the first best.  ``greedy`` thus
        takes the most stale pages, ties broken toward the *least-worn*
        block — which doubles as a lightweight wear-levelling policy:
        cold blocks with reclaimable space get rotated back into
        circulation instead of a hot pair ping-ponging through every
        collection.  ``cost_benefit`` ranks by space freed per
        migration cost, scaled by block age, with the same tie-breaks.
        """
        wear = self.controller.device.array.wear
        victim, best = None, None
        for block in self.mapping.blocks:
            score = self.victim_score(block)
            if score is None:
                continue
            rank = (score, self.mapping.stale_pages(block), -wear(block))
            if best is None or rank > best:
                victim, best = block, rank
        return victim

    def victim_score(self, block: int) -> float | None:
        """Policy score of one block, or None if it is no victim.

        Open blocks, free blocks and blocks with nothing stale score
        None.  Under ``greedy`` the score is the stale-page count;
        under ``cost_benefit`` it is the cost-benefit ratio.  Striped
        superblock selection sums these across shards.
        """
        if block in self.allocator.open_blocks:
            return None
        if self.allocator.is_free(block):
            return None
        if self.mapping.stale_pages(block) == 0:
            return None
        if self.policy == "cost_benefit":
            return self._cost_benefit(block)
        return float(self.mapping.stale_pages(block))

    def collect(self) -> int | None:
        """Run one collection cycle; returns the reclaimed block.

        Valid pages are read through the ECC path (scrubbing them in the
        process) and re-programmed at the current cross-layer
        configuration before the victim is erased.  When the partition's
        wear spread exceeds :attr:`LEVELING_THRESHOLD`, a static-levelling
        pass additionally rotates the coldest closed block.
        """
        victim = self.pick_victim()
        if victim is None:
            return None
        self._migrate_and_reclaim(victim)
        self.stats.collections += 1
        self.maybe_level()
        return victim

    def collect_block(self, victim: int) -> int | None:
        """Collect one *specific* block (die-parallel striped GC).

        Returns None when the block is not a legal victim right now:
        open, free, nothing stale, or too few free pages to migrate its
        live set (background collection must never wedge the shard the
        way the provisioning path's reserve discipline prevents).  No
        static-levelling pass piggybacks — levelling stays on the
        write-time :meth:`collect` path.
        """
        if self.victim_score(victim) is None:
            return None
        if self.allocator.free_pages() < self.mapping.valid_pages(victim):
            return None
        self._migrate_and_reclaim(victim)
        self.stats.collections += 1
        return victim

    def maybe_level(self) -> int | None:
        """Static wear levelling: rotate the coldest closed block.

        Cold data parks in a block that greedy GC never touches; when its
        wear lags the hottest block by more than the threshold, migrate it
        (cold data lands in recently-erased hot blocks) so the cold block
        rejoins the erase rotation.
        """
        wear = self.controller.device.array.wear
        open_blocks = self.allocator.open_blocks
        closed = [
            block for block in self.mapping.blocks
            if block not in open_blocks and not self.allocator.is_free(block)
        ]
        if not closed:
            return None
        coldest = min(closed, key=wear)
        hottest = max(self.mapping.blocks, key=wear)
        if wear(hottest) - wear(coldest) <= self.LEVELING_THRESHOLD:
            return None
        if self.allocator.free_pages() < self.mapping.valid_pages(coldest):
            return None
        self._migrate_and_reclaim(coldest)
        return coldest

    def _cost_benefit(self, block: int) -> float:
        """Classic cost-benefit score: ``(1 - u) / 2u`` scaled by age.

        ``u`` is the block's valid-page utilisation; the ``2u`` cost
        counts reading and re-writing each live page.  Age (binds since
        the block last accepted data) rewards cold blocks — their live
        set is unlikely to be overwritten soon, so migrating it pays
        off for longer.  A fully-stale block is a free win and scores
        infinite.
        """
        valid = self.mapping.valid_pages(block)
        if valid == 0:
            return inf
        u = valid / self.mapping.pages_per_block
        return ((1.0 - u) / (2.0 * u)) * (1 + self.mapping.block_age(block))

    def _migrate_and_reclaim(self, victim: int) -> None:
        """Migrate the victim's live pages in one batch, then erase it.

        The whole live set goes through the controller's batched datapath
        — one ``read_batch`` (vectorized sense + grouped ``decode_batch``,
        scrubbing the pages) and one ``write_batch`` (one ``encode_batch``
        + batched program) — instead of a page-at-a-time loop.  Allocation
        order, per-page mapping rebinds and the migration statistics are
        identical to the serial flow.  When a :attr:`sink` accepts the
        migration the serial time accounting is skipped (the session
        tracks the scheduled cost instead); data-path effects are
        identical either way.
        """
        from repro.ftl.mapping import PhysicalLocation

        live: list[tuple[int, int]] = []  # (page, lpn)
        for page in range(self.mapping.pages_per_block):
            lpn = self.mapping.lpn_at(PhysicalLocation(victim, page))
            if lpn is not None:
                live.append((page, lpn))
        read_reports: list[ReadReport] = []
        write_reports: list[WriteReport] = []
        if live:
            reads = self.controller.read_batch(
                [(victim, page) for page, _ in live]
            )
            targets = [self.allocator.allocate() for _ in live]
            if any(target.block == victim for target in targets):
                raise ControllerError("allocator returned the GC victim")
            writes = self.controller.write_batch([
                (target.block, target.page, data)
                for target, (data, _) in zip(targets, reads)
            ])
            for (_, lpn), target in zip(live, targets):
                self.mapping.bind(lpn, target)
                self.stats.pages_migrated += 1
            read_reports = [report for _, report in reads]
            write_reports = list(writes)
        orphans = self.mapping.release_block(victim)
        if orphans:
            raise ControllerError(f"GC lost LPNs {orphans}")
        erase_s = self.controller.erase(victim)
        self.allocator.reclaim(victim)
        self.stats.blocks_erased += 1
        scheduled = False
        if self.sink is not None:
            scheduled = self.sink(GcMigration(
                victim=victim,
                reads=tuple(read_reports),
                writes=tuple(write_reports),
                erase_s=erase_s,
            ))
        if not scheduled:
            # Synchronous path: serial stage-latency sum (documented on
            # GcStats) — same accumulation order as the historical
            # per-page loop, so the float total is bit-identical.
            for read_report, write_report in zip(
                read_reports, write_reports
            ):
                self.stats.migration_time_s += (
                    read_report.latencies.total_s
                    + write_report.latencies.total_s
                )
            self.stats.migration_time_s += erase_s
