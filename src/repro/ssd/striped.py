"""Die-striped FTL: logical pages round-robined across every die.

One :class:`~repro.ftl.ftl.FlashTranslationLayer` shard per die (each
with its own mapping, allocator and garbage collector over that die's
block partition) behind an LPN router: logical page ``L`` lives on die
``L % dies`` as shard page ``L // dies``.  Because die indices enumerate
channel-first, consecutive logical pages alternate channels before
stacking dies behind one bus.

``read_many``/``write_many`` keep the exact single-die data semantics —
each shard batch runs through the controller's vectorized ECC datapath —
while *timing* comes from the DES command scheduler: every page's stage
latencies are rebuilt as explicit
:class:`~repro.nand.timing.CommandPhase` sequences (sense on the array
plane of its physical block, transfer on the channel, decode/encode on
the channel ECC engine with its pipelined initiation interval) and
replayed as an interleaved multi-die timeline, so a batch's makespan
reflects real die/plane parallelism and channel contention instead of a
serial sum.  Under the SSD's
:class:`~repro.ssd.scheduler.PipelineConfig` the same commands overlap
further: cache reads hide sensing, multi-plane placement (see
``plane_interleave``) overlaps ISPP programs, and the pipelined ECC
engine decodes page i while page i+1 streams.

Timing is executed by the FTL's own
:class:`~repro.ssd.session.SsdSession` (built on first use, or passed
in): ``read_many``/``write_many`` drain a closed batch through
:meth:`~repro.ssd.session.SsdSession.execute`, while
:meth:`stage_reads`/:meth:`stage_writes` expose the same data-path +
command-building step per submission so the session's open-loop
``submit()`` stream reuses one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.controller.controller import ReadReport, WriteReport
from repro.errors import ControllerError
from repro.ftl.ftl import FlashTranslationLayer, FtlStats
from repro.ftl.gc import GcMigration, GcStats
from repro.nand.timing import NandTimingModel
from repro.ssd.device import SsdDevice
from repro.ssd.scheduler import (
    CommandKind,
    CommandOrigin,
    DieCommand,
    ScheduleResult,
)
from repro.ssd.session import SsdSession
from repro.ssd.topology import group_indices_by_die


@dataclass(frozen=True)
class StripedLocation:
    """Where one logical page lives: (die, shard-local LPN)."""

    die: int
    shard_lpn: int


class DieStripedFtl:
    """A striped logical block device across every die of an SSD."""

    def __init__(
        self,
        ssd: SsdDevice,
        blocks: list[int] | None = None,
        plane_interleave: bool = False,
        session: SsdSession | None = None,
    ):
        """Stripe over ``blocks`` of every die (the whole die by default).

        ``plane_interleave`` makes each shard's allocator rotate open
        blocks across the die's array planes, so consecutive writes land
        on alternating planes — the placement policy that lets the
        scheduler's ``multi_plane`` pipeline overlap ISPP phases.
        ``session`` is the queue pair batches execute on; by default the
        FTL builds its own on first use.
        """
        self.ssd = ssd
        self._session = session
        if blocks is None:
            blocks = list(range(ssd.geometry.blocks))
        self.blocks = list(blocks)
        self.shards = [
            FlashTranslationLayer(
                controller, list(blocks), plane_interleave=plane_interleave
            )
            for controller in ssd.controllers
        ]
        self.logical_capacity = self.dies * min(
            shard.logical_capacity for shard in self.shards
        )
        self.last_schedule: ScheduleResult | None = None

    @property
    def session(self) -> SsdSession:
        """The queue pair this FTL's commands execute on.

        Unless one was passed in, a sync-mode session routed for this
        FTL, built on first use.
        """
        if self._session is None:
            self._session = SsdSession(self)
        return self._session

    @property
    def dies(self) -> int:
        """Stripe width."""
        return self.ssd.topology.dies

    @property
    def geometry(self):
        """Per-die NAND geometry."""
        return self.ssd.geometry

    # -- LPN routing -----------------------------------------------------------

    def route(self, lpn: int) -> StripedLocation:
        """Die and shard-local LPN of one logical page."""
        if not 0 <= lpn < self.logical_capacity:
            raise ControllerError(
                f"LPN {lpn} outside logical capacity {self.logical_capacity}"
            )
        return StripedLocation(die=lpn % self.dies, shard_lpn=lpn // self.dies)

    # -- host interface --------------------------------------------------------------

    def write_many(
        self, items: list[tuple[int, bytes]], queue_depth: int | None = None
    ) -> list[float]:
        """Write a batch striped across dies; returns per-page latencies.

        Each die's sub-batch runs through its shard FTL (one allocation
        pass + ``write_batch`` per die); the per-page stage latencies are
        then scheduled as PROGRAM commands — channel transfer + encode,
        then die program — and the returned latency of each page is its
        scheduled completion minus admission (queueing included).  The
        full timeline is kept in :attr:`last_schedule`.  ``queue_depth``
        bounds the batch's in-flight window (``None``: the whole batch).
        """
        commands = self.stage_writes(items)
        return self._schedule(commands, len(items), queue_depth)

    def read_many(
        self, lpns: list[int], queue_depth: int | None = None
    ) -> list[tuple[bytes, float]]:
        """Read a batch striped across dies; returns (data, latency) pairs.

        Data and error statistics are byte-identical to issuing each
        die's sub-batch straight at its shard (same controllers, same RNG
        streams); latency per page comes from the scheduled READ timeline
        (die sense, then channel transfer + decode).
        """
        datas, commands = self.stage_reads(lpns)
        latencies = self._schedule(commands, len(lpns), queue_depth)
        return list(zip(datas, latencies))

    def stage_writes(
        self,
        items: list[tuple[int, bytes]],
        tags: "Sequence[int] | None" = None,
    ) -> list[DieCommand]:
        """Run the write data path and build (untimed) PROGRAM commands.

        ``tags`` names each command's submission tag (defaults to the
        item index); the commands are returned in tag order, ready for
        :meth:`~repro.ssd.session.SsdSession.execute` or a per-command
        :meth:`~repro.ssd.session.SsdSession.submit`.
        """
        if tags is None:
            tags = range(len(items))
        routes = [self.route(lpn) for lpn, _ in items]
        per_die = self._group(routes)
        commands: list[DieCommand] = []
        for die, indices in per_die.items():
            reports = self.shards[die].write_many_reports(
                [(routes[i].shard_lpn, items[i][1]) for i in indices]
            )
            commands.extend(
                self._program_command(die, tags[index], report)
                for index, report in zip(indices, reports)
            )
        commands.sort(key=lambda command: command.tag)
        return commands

    def stage_reads(
        self,
        lpns: list[int],
        tags: "Sequence[int] | None" = None,
    ) -> tuple[list[bytes], list[DieCommand]]:
        """Run the read data path and build (untimed) READ commands.

        Returns the decoded page data (submission order) and the
        commands in tag order; see :meth:`stage_writes` for ``tags``.
        """
        if tags is None:
            tags = range(len(lpns))
        routes = [self.route(lpn) for lpn in lpns]
        per_die = self._group(routes)
        datas: list[bytes | None] = [None] * len(lpns)
        commands: list[DieCommand] = []
        for die, indices in per_die.items():
            reads = self.shards[die].read_many_reports(
                [routes[i].shard_lpn for i in indices]
            )
            for index, (data, report) in zip(indices, reads):
                datas[index] = data
                commands.append(self._read_command(die, tags[index], report))
        commands.sort(key=lambda command: command.tag)
        return datas, commands

    def trim(self, lpn: int) -> None:
        """Discard a logical page."""
        location = self.route(lpn)
        self.shards[location.die].trim(location.shard_lpn)

    def is_mapped(self, lpn: int) -> bool:
        """Whether a logical page currently holds data."""
        location = self.route(lpn)
        return self.shards[location.die].is_mapped(location.shard_lpn)

    # -- telemetry -------------------------------------------------------------------

    @property
    def stats(self) -> FtlStats:
        """Aggregate host-visible accounting across every shard."""
        total = FtlStats()
        for shard in self.shards:
            total.host_writes += shard.stats.host_writes
            total.host_reads += shard.stats.host_reads
            total.trims += shard.stats.trims
            total.write_time_s += shard.stats.write_time_s
            total.read_time_s += shard.stats.read_time_s
            total.corrected_bits += shard.stats.corrected_bits
        return total

    @property
    def gc_stats(self) -> GcStats:
        """Aggregate garbage-collection accounting across every shard."""
        total = GcStats()
        for shard in self.shards:
            total.collections += shard.gc.stats.collections
            total.pages_migrated += shard.gc.stats.pages_migrated
            total.blocks_erased += shard.gc.stats.blocks_erased
            total.migration_time_s += shard.gc.stats.migration_time_s
            total.background_collections += (
                shard.gc.stats.background_collections
            )
            total.scheduled_busy_s += shard.gc.stats.scheduled_busy_s
        return total

    def populate_counters(self, registry) -> None:
        """Add host-op, GC and write-amplification counters to a registry.

        Write amplification here is the logical page ratio
        ``(host writes + GC migrations) / host writes`` — the FTL-level
        view; the media-level view falls out of the device's
        ``media_page_programs`` counter.
        """
        stats = self.stats
        gc = self.gc_stats
        registry.add("host_reads", stats.host_reads, "pages")
        registry.add("host_writes", stats.host_writes, "pages")
        registry.add("host_trims", stats.trims, "ops")
        registry.add("gc_collections", gc.collections, "runs")
        registry.add("gc_pages_migrated", gc.pages_migrated, "pages")
        registry.add("gc_blocks_erased", gc.blocks_erased, "blocks")
        registry.add(
            "gc_background_collections", gc.background_collections, "runs"
        )
        registry.add("gc_scheduled_busy_s", gc.scheduled_busy_s, "s")
        for shard in self.shards:
            registry.append(
                "gc_free_blocks",
                shard.allocator.free_block_count,
                "blocks",
            )
        host_writes = registry.get("host_writes")
        if host_writes:
            registry.set(
                "write_amplification",
                (host_writes + registry.get("gc_pages_migrated"))
                / host_writes,
                "x",
            )

    # -- internals -------------------------------------------------------------------

    def _group(self, routes: list[StripedLocation]) -> dict[int, list[int]]:
        """Submission indices grouped by die, host order preserved."""
        return group_indices_by_die([location.die for location in routes])

    def _plane_of(self, report: ReadReport | WriteReport) -> int:
        """Array plane of the physical block a report names (0 if unknown)."""
        if report.block < 0:
            return 0
        return self.geometry.plane_of_block(report.block)

    def _read_command(
        self,
        die: int,
        tag: int,
        report: ReadReport,
        origin: CommandOrigin = CommandOrigin.HOST,
    ) -> DieCommand:
        latencies = report.latencies
        codec = self.shards[die].controller.codec
        device = self.shards[die].controller.device
        phases = NandTimingModel.read_phases(
            sense_s=latencies.read_array_s,
            transfer_s=latencies.transfer_s,
            decode_s=latencies.decode_s,
            decode_hold_s=codec.decode_interval_s(report.ecc_t),
        )
        return DieCommand.from_phases(
            CommandKind.READ, die, tag, phases,
            plane=self._plane_of(report),
            cache_busy_s=device.timing.cache_busy_s(),
            origin=origin,
        )

    def _program_command(
        self,
        die: int,
        tag: int,
        report: WriteReport,
        origin: CommandOrigin = CommandOrigin.HOST,
    ) -> DieCommand:
        latencies = report.latencies
        codec = self.shards[die].controller.codec
        phases = NandTimingModel.program_phases(
            program_s=latencies.program_s,
            transfer_s=latencies.transfer_s,
            encode_s=latencies.encode_s,
            encode_hold_s=codec.encode_interval_s(report.ecc_t),
        )
        return DieCommand.from_phases(
            CommandKind.PROGRAM, die, tag, phases,
            plane=self._plane_of(report),
            origin=origin,
        )

    def gc_commands(
        self, die: int, migration: GcMigration, tags: Sequence[int]
    ) -> list[DieCommand]:
        """Replay one shard collection as GC-origin die commands.

        The migration's data path already ran (reads decoded, programs
        bound, victim erased in the wear model) — what remains is its
        *time*: every live-page read, every rewrite program, and the
        victim erase become tagged commands that contend for this die's
        planes, channel bus and ECC engine on the session timeline.
        ``tags`` must provide ``len(reads) + len(writes) + 1`` entries.
        """
        expected = len(migration.reads) + len(migration.writes) + 1
        if len(tags) != expected:
            raise ControllerError(
                f"gc_commands needs {expected} tags, got {len(tags)}"
            )
        gc = CommandOrigin.GC
        commands: list[DieCommand] = []
        cursor = 0
        for report in migration.reads:
            commands.append(
                self._read_command(die, tags[cursor], report, origin=gc)
            )
            cursor += 1
        for report in migration.writes:
            commands.append(
                self._program_command(die, tags[cursor], report, origin=gc)
            )
            cursor += 1
        erase = NandTimingModel.erase_phases(migration.erase_s)
        commands.append(DieCommand.from_phases(
            CommandKind.ERASE, die, tags[cursor], erase,
            plane=self.geometry.plane_of_block(migration.victim),
            origin=gc,
        ))
        return commands

    def pick_striped_victim(self, dies: Sequence[int]) -> list[int] | None:
        """Superblock-striped victim: the same block index on every die.

        Scores each candidate block number by summing the shard GC
        policy's :meth:`~repro.ftl.gc.GarbageCollector.victim_score`
        across the given dies (shards where the block is open, free or
        clean contribute nothing), then returns ``[block] * len(dies)``
        aligned with ``dies`` for the best-scoring stripe — one logical
        collection that erases the same block everywhere and therefore
        runs die-parallel on the timeline.  ``None`` when no block is
        collectable on any die.
        """
        if not dies:
            return None
        best_key: tuple[float, int, int] | None = None
        best_block = -1
        for block in self.blocks:
            total = 0.0
            shards_in = 0
            for die in dies:
                score = self.shards[die].gc.victim_score(block)
                if score is not None:
                    total += score
                    shards_in += 1
            if shards_in == 0:
                continue
            key = (total, shards_in, -block)
            if best_key is None or key > best_key:
                best_key = key
                best_block = block
        if best_key is None:
            return None
        return [best_block] * len(dies)

    def _schedule(
        self,
        commands: list[DieCommand],
        count: int,
        queue_depth: int | None,
    ) -> list[float]:
        """Drain the batch on the FTL's session; per-tag latencies.

        Uses :meth:`~repro.ssd.session.SsdSession.execute`, which
        re-bases the session's resident core to a zero clock, so the
        batch's timeline does not depend on earlier batches.
        """
        self.last_schedule = self.session.execute(commands, queue_depth)
        by_tag = self.last_schedule.latency_by_tag()
        return [by_tag[tag] for tag in range(count)]
