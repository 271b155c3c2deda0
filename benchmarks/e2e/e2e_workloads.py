"""The four workloads of the end-to-end benchmark.

Each workload builds its inputs from a seed, sets up the system through
the package's public constructors, runs once and then checks what a
user of the run would see.  The benchmark passes no knob that only
chooses between equivalent implementations, so it always measures the
default path.

* ``paper_figures`` — the figure and ablation runners the repository
  exists to produce.  GF field construction and the ISPP Monte-Carlo
  dominate; the SSD stack does nothing.
* ``eol_read`` — a read-mostly open-loop stream on an end-of-life drive
  (t = 65, ~35 errors per page).  BCH decode dominates; GC stays idle.
* ``sustained_write`` — a fill plus random overwrite of a fresh drive
  with background GC.  Encode and FTL/GC dominate, and decodes mostly
  take the clean early exit: the codec is used the opposite way from
  ``eol_read``.
* ``des_stream`` — a timing-only command stream through the
  discrete-event scheduler.  Nothing but the DES and scheduler runs, so
  a codec change must not move it.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager

import numpy as np

from repro.analysis.experiments import ExperimentSuite
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.ftl.ftl import FtlStats
from repro.ftl.gc import GcConfig, GcStats
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTimingModel
from repro.sim.host import (
    OpenLoopWorkload,
    preread_lpns,
    run_open_loop_workload,
)
from repro.ssd import (
    DieStripedFtl,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.ssd.scheduler import CommandKind, DieCommand
from repro.workloads.traces import TraceOp, TraceOpKind, fixed_rate_arrivals

PAGE_BYTES = 4096

#: (report id, ExperimentSuite method) for every runner ``paper_figures``
#: replays: the paper figures plus the CLI's ablations.  ``uber_mc`` is
#: left out because it fans out over a process pool.
FIGURE_RUNNERS = (
    ("fig03", "run_fig03"),
    ("fig04", "run_fig04"),
    ("fig05", "run_fig05"),
    ("fig06", "run_fig06"),
    ("fig07", "run_fig07"),
    ("fig08", "run_fig08"),
    ("fig09", "run_fig09"),
    ("fig10", "run_fig10"),
    ("fig11", "run_fig11"),
    ("abl_blocksize", "run_ablation_blocksize"),
    ("abl_chien", "run_ablation_chien"),
    ("abl_tworound", "run_ablation_tworound"),
    ("abl_pareto", "run_ablation_pareto"),
    ("abl_retention", "run_ablation_retention"),
)

#: Per-workload sizes: (full, quick).  Each record's ``config_sha256``
#: hashes the shapes its children ran, so it names what it measured.
SHAPES = {
    "paper_figures": ({"runners": len(FIGURE_RUNNERS)},
                      {"runners": len(FIGURE_RUNNERS)}),
    "eol_read": ({"ios": 320, "pages": 64, "rate_ops_s": 6000.0},
                 {"ios": 128, "pages": 64, "rate_ops_s": 6000.0}),
    "sustained_write": ({"blocks": 5}, {"blocks": 4}),
    "des_stream": ({"streams": 8, "commands": 20_000},
                   {"streams": 2, "commands": 10_000}),
}


def sha256_hex(chunks) -> str:
    """sha256 over a sequence of byte strings."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Outcome:
    """What one run produced, as a user of it would see it.

    ``parts`` maps each named piece of output to its sha256, in a fixed
    order, so a golden mismatch can name the first part that differs.
    ``counters`` are the FTL counters the traced split reports.
    """

    def __init__(self, ops: int, failed: int, parts: dict[str, str],
                 problems: list[str], counters: dict | None = None):
        self.ops = ops
        self.failed = failed
        self.parts = parts
        self.problems = problems
        self.counters = counters or ftl_counters(FtlStats(), GcStats())

    @property
    def digest(self) -> str:
        return sha256_hex(
            f"{name}={value}\n".encode() for name, value in self.parts.items()
        )


def ftl_counters(stats: FtlStats, gc: GcStats) -> dict:
    """The FTL counters of the traced split (1.0 WA without writes)."""
    return {
        "gc_collections": gc.collections,
        "pages_migrated": gc.pages_migrated,
        "write_amplification": stats.write_amplification(gc),
    }


class Workload:
    """Base: ``setup`` then ``run`` then ``verify``.

    Input generation is the benchmark's own cost, not the system's;
    code inside :meth:`generating` adds to :attr:`gen_s`, which the
    child subtracts from the set-up time.
    """

    name = ""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        full, small = SHAPES[self.name]
        self.shape = small if quick else full
        self.gen_s = 0.0

    @contextmanager
    def generating(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.gen_s += time.perf_counter() - start

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> Outcome:
        raise NotImplementedError


class PaperFigures(Workload):
    """Every paper figure plus the CLI ablations; one op per runner."""

    name = "paper_figures"

    def setup(self) -> None:
        self.suite = ExperimentSuite(seed=self.seed)

    def run(self) -> None:
        self.reports = [
            (exp_id, getattr(self.suite, method)().render())
            for exp_id, method in FIGURE_RUNNERS
        ]

    def verify(self) -> Outcome:
        empty = [exp_id for exp_id, text in self.reports if not text.strip()]
        return Outcome(
            ops=len(self.reports),
            failed=len(empty),
            parts={
                exp_id: sha256_hex([text.encode()])
                for exp_id, text in self.reports
            },
            problems=[f"{exp_id} rendered nothing" for exp_id in empty],
        )


def _payloads(rng: np.random.Generator, count: int, first: int) -> list[bytes]:
    """Distinct seeded page payloads: a serial number, then random bytes.

    The serial makes every payload differ, so a read served from the
    wrong page can never match by accident.
    """
    body = rng.bytes((PAGE_BYTES - 8) * count)
    step = PAGE_BYTES - 8
    return [
        (first + index).to_bytes(8, "big") + body[index * step:(index + 1) * step]
        for index in range(count)
    ]


def lpn_names(ops: list[TraceOp]) -> list[int]:
    """The LPN the open-loop runner gives each op (first-seen naming)."""
    names: dict[tuple[int, int], int] = {}
    return [names.setdefault((op.block, op.page), len(names)) for op in ops]


def check_session_run(
    ops: list[TraceOp],
    initial: dict[int, bytes],
    completions: list,
) -> tuple[int, list[str]]:
    """Read-after-write check of one open-loop session run.

    Every read must return the data of the last write to its LPN
    submitted before it (``initial`` holds the prefill).  Tags grow in
    submission order, so sorting one LPN's completions by tag lines them
    up with that LPN's ops in trace order.  Returns the failed-op count
    (mismatches plus I/Os that never completed) and a description of
    the first few failures.
    """
    per_lpn_ops: dict[int, list[TraceOp]] = {}
    for lpn, op in zip(lpn_names(ops), ops):
        per_lpn_ops.setdefault(lpn, []).append(op)
    per_lpn_done: dict[int, list] = {}
    for completion in completions:
        per_lpn_done.setdefault(completion.lpn, []).append(completion)
    failed = 0
    problems: list[str] = []
    for lpn in sorted(per_lpn_ops):
        lpn_ops = per_lpn_ops[lpn]
        done = sorted(per_lpn_done.pop(lpn, []), key=lambda c: c.tag)
        if len(done) != len(lpn_ops):
            failed += abs(len(lpn_ops) - len(done))
            problems.append(
                f"lpn {lpn}: {len(lpn_ops)} I/Os submitted, "
                f"{len(done)} completed"
            )
        expected = initial.get(lpn)
        for op, completion in zip(lpn_ops, done):
            if completion.kind is not op.kind:
                failed += 1
                problems.append(f"tag {completion.tag}: kind mismatch")
            elif op.kind is TraceOpKind.WRITE:
                expected = op.data
            elif completion.data != expected:
                failed += 1
                problems.append(
                    f"tag {completion.tag}: read of lpn {lpn} did not "
                    "return the last data written"
                )
    for lpn, done in per_lpn_done.items():
        failed += len(done)
        problems.append(f"lpn {lpn}: {len(done)} completions for no I/O")
    return failed, problems[:5]


def session_parts(completions: list, ftl: DieStripedFtl) -> dict[str, str]:
    """Digest parts of a session run: timeline, read data, FTL counters."""
    return {
        "completions": sha256_hex(
            repr((c.tag, c.kind.name, c.lpn, c.submit_s, c.dispatch_s,
                  c.done_s)).encode()
            for c in completions
        ),
        "read_data": sha256_hex(
            c.data for c in completions if c.kind is TraceOpKind.READ
        ),
        "ftl": sha256_hex([repr((ftl.stats, ftl.gc_stats)).encode()]),
    }


class SessionWorkload(Workload):
    """Shared run/verify of the two open-loop session workloads."""

    queue_depth = 0

    def decode_failures(self) -> int:
        return sum(
            controller.codec.observation().words_failed
            for controller in self.ftl.ssd.controllers
        )

    def run(self) -> None:
        self.completions: list = []
        self.failures_before = self.decode_failures()
        run_open_loop_workload(
            self.ftl,
            OpenLoopWorkload(self.name, self.ops, queue_depth=self.queue_depth),
            session=self.session,
            on_completion=self.completions.append,
        )

    def verify(self) -> Outcome:
        failed, problems = check_session_run(
            self.ops, self.initial, self.completions
        )
        decode_failures = self.decode_failures() - self.failures_before
        if decode_failures:
            problems.append(f"{decode_failures} pages failed to decode")
        return Outcome(
            ops=len(self.ops),
            failed=failed + decode_failures,
            parts=session_parts(self.completions, self.ftl),
            problems=problems,
            counters=ftl_counters(self.ftl.stats, self.ftl.gc_stats),
        )


class EolRead(SessionWorkload):
    """Read-mostly open loop at end of life: decode-bound, GC idle.

    1ch x 4die, full pipeline, 8 blocks per die aged to 1e5 P/E cycles
    in the baseline mode (t = 65).  Host I/Os are 7 reads to 1 write
    over random pages, arriving at a fixed rate of about 0.6 of the
    drive's simulated capacity, QD 16, synchronous GC.
    """

    name = "eol_read"
    queue_depth = 16

    def setup(self) -> None:
        ios, pages = self.shape["ios"], self.shape["pages"]
        with self.generating():
            rng = np.random.default_rng(self.seed)
            targets = rng.integers(0, pages, size=ios)
            writes = iter(_payloads(rng, ios // 8, first=0))
            ops = [
                TraceOp(TraceOpKind.WRITE, 0, int(page), next(writes))
                if index % 8 == 7
                else TraceOp(TraceOpKind.READ, 0, int(page))
                for index, page in enumerate(targets)
            ]
            self.ops = fixed_rate_arrivals(ops, self.shape["rate_ops_s"])
            preread = preread_lpns(self.ops)
            self.initial = dict(
                zip(preread, _payloads(rng, len(preread), first=ios))
            )
        topology = SsdTopology(
            channels=1,
            dies_per_channel=4,
            geometry=NandGeometry(blocks=8, pages_per_block=16),
        )
        ssd = SsdDevice(
            topology, policy=CrossLayerPolicy(), seed=self.seed,
            pipeline=PipelineConfig.full(),
        )
        for controller in ssd.controllers:
            controller.device.array._wear[:] = 100_000
        ssd.set_mode(OperatingMode.BASELINE, pe_reference=1e5)
        self.ftl = DieStripedFtl(ssd, plane_interleave=True)
        self.ftl.write_many(list(self.initial.items()))
        self.session = SsdSession(
            self.ftl, queue_depth=self.queue_depth, gc_mode="sync"
        )


class SustainedWrite(SessionWorkload):
    """Fill plus random overwrite of a fresh drive with background GC.

    1ch x 4die, full pipeline, cost-benefit victims, QD 8.  A
    sequential fill of the logical span, then one pass over the span in
    a seeded random order, every 4th op a read and the rest overwrites,
    all offered at t = 0 (bounded by the window).  Visiting each page
    once keeps the GC work nearly the same for every seed.
    """

    name = "sustained_write"
    queue_depth = 8

    def setup(self) -> None:
        topology = SsdTopology(
            channels=1,
            dies_per_channel=4,
            geometry=NandGeometry(
                blocks=self.shape["blocks"], pages_per_block=16
            ),
        )
        ssd = SsdDevice(
            topology, policy=CrossLayerPolicy(), seed=self.seed,
            pipeline=PipelineConfig.full(),
        )
        ssd.set_mode(OperatingMode.BASELINE)
        self.session = SsdSession(
            ssd=ssd, queue_depth=self.queue_depth, gc_mode="background",
            gc_config=GcConfig(policy="cost_benefit"),
        )
        self.ftl = DieStripedFtl(ssd, plane_interleave=True,
                                 session=self.session)
        self.session.ftl = self.ftl
        capacity = self.ftl.logical_capacity
        with self.generating():
            rng = np.random.default_rng(self.seed)
            targets = rng.permutation(capacity)
            writes = iter(_payloads(
                rng, capacity + capacity - capacity // 4, first=0
            ))
            self.ops = [
                TraceOp(TraceOpKind.WRITE, 0, lpn, next(writes))
                for lpn in range(capacity)
            ] + [
                TraceOp(TraceOpKind.READ, 0, int(page))
                if index % 4 == 3
                else TraceOp(TraceOpKind.WRITE, 0, int(page), next(writes))
                for index, page in enumerate(targets)
            ]
        self.initial: dict[int, bytes] = {}


class DesStream(Workload):
    """Timing-only open-loop command streams through the scheduler.

    4ch x 4die, full pipeline, 70/30 read/program with the
    transfer-heavy phase shapes of the sim-speed benchmark, admitted
    through a 256-command window at one arrival per 2 us.  Each stream
    drains before the next starts.
    """

    name = "des_stream"

    def setup(self) -> None:
        timing = NandTimingModel()
        read_phases = timing.read_phases(30e-6, 60e-6, 110e-6, 28e-6)
        program_phases = timing.program_phases(200e-6, 60e-6, 25e-6)
        topology = SsdTopology(channels=4, dies_per_channel=4)
        streams, per_stream = self.shape["streams"], self.shape["commands"]
        with self.generating():
            rng = random.Random(self.seed)
            self.streams = []
            for stream in range(streams):
                commands = []
                for tag in range(stream * per_stream, (stream + 1) * per_stream):
                    die, plane = rng.randrange(topology.dies), rng.randrange(2)
                    if rng.random() < 0.7:
                        commands.append(DieCommand.from_phases(
                            CommandKind.READ, die, tag, read_phases,
                            plane=plane, cache_busy_s=3e-6,
                        ))
                    else:
                        commands.append(DieCommand.from_phases(
                            CommandKind.PROGRAM, die, tag, program_phases,
                            plane=plane,
                        ))
                self.streams.append(commands)
        self.session = SsdSession(ssd=SsdDevice(
            topology, seed=self.seed, pipeline=PipelineConfig.full()
        ))

    def run(self) -> None:
        session = self.session
        core = session.core
        self.done = []
        for commands in self.streams:
            core.submit_stream(commands, window=256, arrival_s=2e-6)
            session.engine.run()
            # drain() clears the core's completion list; keep it first.
            self.done.append(list(core.completions))
            session.drain()
        self.clock_s = session.engine.now_s

    def verify(self) -> Outcome:
        failed = 0
        problems = []
        parts = {}
        for index, (commands, done) in enumerate(zip(self.streams, self.done)):
            missing = {c.tag for c in commands} - {c.tag for c in done}
            if missing or len(done) != len(commands):
                failed += max(len(missing), abs(len(commands) - len(done)))
                problems.append(
                    f"stream {index}: {len(done)} of {len(commands)} "
                    "commands completed"
                )
            parts[f"stream{index}"] = sha256_hex(
                repr((c.tag, c.die, c.done_s)).encode() for c in done
            )
        parts["clock"] = sha256_hex([repr(self.clock_s).encode()])
        return Outcome(
            ops=sum(len(commands) for commands in self.streams),
            failed=failed,
            parts=parts,
            problems=problems,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (PaperFigures, EolRead, SustainedWrite, DesStream)
}
