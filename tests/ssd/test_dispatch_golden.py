"""Golden digests of the command scheduler's timelines.

Every schedule the SSD command scheduler produces is pinned as a sha256
here, over the grid of surfaces that drive it:

* closed batches, each on a fresh session's :meth:`SsdSession.execute`
  (four pipeline configurations x read / program / erase / mixed x
  three topology, queue-depth and seed rows);
* resident :meth:`SsdSession.execute` batches, two rounds per session
  (the idle-clock rebase and accounting-reset reuse path);
* open-loop :meth:`SchedulerCore.submit_stream` streams: each pipeline,
  mid-flight ``enqueue``, window backpressure, tie-heavy same-instant
  arrivals and the window-1 zero-arrival serialisation;
* full sessions with the FTL data path: each GC mode and a plain
  open-loop session whose arrivals run as a host frame
  (:meth:`SchedulerCore.spawn`).

A schedule digest hashes the ``repr`` of every completion tuple in
completion order, the makespan, the engine's ``events_processed`` (a
closed batch's own, counted from the start of ``execute``) and the die
/ channel / ECC busy lists.  Session digests also hash every
host completion's payload and the FTL and GC counters.  Traced runs
must reproduce the untraced schedule digest and pin a digest of their
sorted span list; armed runs (``SimEngine(sanitize=True)``) must
reproduce the disarmed digest.

The constants were recorded while the scheduler still carried two
dispatch implementations (generator workers and the flat core) and the
engine two event lists (a binary heap and a calendar queue); all four
combinations reproduced every constant.  The closed constants were
recorded on a fresh run-to-drain scheduler per batch, whose completions,
makespans and busy lists ``execute`` reproduced for all 48 batches;
moving them onto ``execute`` changed only the ``events_processed`` of
20 of them, because a frame with no initial work no longer takes a
start turn.  Regenerate them only for a change that is meant to alter a
timeline.
"""

import hashlib
import random

import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.ftl.gc import GcConfig
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTimingModel
from repro.obs import TraceRecorder
from repro.sim.engine import SimEngine
from repro.sim.host import OpenLoopWorkload, run_open_loop_workload
from repro.ssd import (
    DieStripedFtl,
    IoCommand,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.ssd.scheduler import CommandKind, DieCommand, SchedulerCore
from repro.workloads.traces import TraceOp, TraceOpKind

# Durations are multiples of 5 us, so independent command chains
# collide on identical timestamps: the tie-break order is pinned too.
READ_PHASES = NandTimingModel.read_phases(
    sense_s=50e-6, transfer_s=20e-6, decode_s=40e-6, decode_hold_s=25e-6
)
PROGRAM_PHASES = NandTimingModel.program_phases(
    program_s=200e-6, transfer_s=20e-6, encode_s=15e-6
)
ERASE_PHASES = NandTimingModel.erase_phases(2e-3)
PHASES = {
    CommandKind.READ: READ_PHASES,
    CommandKind.PROGRAM: PROGRAM_PHASES,
    CommandKind.ERASE: ERASE_PHASES,
}

PIPELINES = {
    "serial": PipelineConfig.serial(),
    "cache": PipelineConfig(cache_read=True),
    "ecc": PipelineConfig(pipelined_ecc=True),
    "full": PipelineConfig.full(),
}
KINDS = {
    "read": (CommandKind.READ,),
    "program": (CommandKind.PROGRAM,),
    "erase": (CommandKind.ERASE,),
    "mixed": (CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE),
}
#: (channels, dies per channel, queue depth, seed) of the closed batches.
CLOSED_ROWS = ((1, 1, None, 3), (2, 2, 4, 11), (4, 2, 32, 23))


def _commands(
    kinds, n: int, dies: int, seed: int, first_tag: int = 0
) -> list[DieCommand]:
    """Seeded die/plane stream drawing each command's kind from ``kinds``."""
    rng = random.Random(seed)
    commands = []
    for index in range(n):
        kind = kinds[rng.randrange(len(kinds))] if len(kinds) > 1 else kinds[0]
        commands.append(DieCommand.from_phases(
            kind, die=rng.randrange(dies), tag=first_tag + index,
            phases=PHASES[kind], plane=rng.randrange(2),
            cache_busy_s=3e-6 if kind is CommandKind.READ else 0.0,
        ))
    return commands


def _schedule(digest, completions, makespan_s, events, busy) -> None:
    """Fold one schedule into ``digest``; ``busy`` has the three lists."""
    for completion in completions:
        digest.update(repr(tuple(completion)).encode())
    digest.update(repr((
        makespan_s, events,
        list(busy.die_busy_s), list(busy.channel_busy_s),
        list(busy.ecc_busy_s),
    )).encode())


# -- closed batches on a fresh session ---------------------------------------


def _closed(pipeline, kinds, row, sanitize, recorder):
    channels, dies_per_channel, queue_depth, seed = row
    topology = SsdTopology(
        channels=channels, dies_per_channel=dies_per_channel
    )
    engine = SimEngine(sanitize=sanitize)
    session = SsdSession(
        ssd=SsdDevice(topology, seed=0, pipeline=pipeline),
        engine=engine, recorder=recorder,
    )
    # The constructor's parking turns are set-up, not batch.
    start = engine.events_processed
    result = session.execute(
        _commands(kinds, 48, topology.dies, seed), queue_depth
    )
    digest = hashlib.sha256()
    _schedule(
        digest, result.completions, result.makespan_s,
        engine.events_processed - start, result,
    )
    return digest.hexdigest(), engine


# -- resident SsdSession.execute -----------------------------------------------


def _execute(pipeline, kinds, sanitize, recorder):
    topology = SsdTopology(channels=2, dies_per_channel=2)
    engine = SimEngine(sanitize=sanitize)
    session = SsdSession(
        ssd=SsdDevice(topology, seed=0, pipeline=pipeline),
        engine=engine, recorder=recorder,
    )
    digest = hashlib.sha256()
    for round_seed in (7, 41):
        commands = _commands(kinds, 32, topology.dies, round_seed)
        result = session.execute(commands, queue_depth=6)
        _schedule(digest, result.completions, result.makespan_s,
                  engine.events_processed, result)
    return digest.hexdigest(), engine


# -- open-loop submit_stream ---------------------------------------------------


def _stream(pipeline, n, seed, window, arrival_s, sanitize, recorder,
            midflight=False):
    engine = SimEngine(sanitize=sanitize)
    topology = SsdTopology(channels=2, dies_per_channel=2)
    core = SchedulerCore(engine, topology, pipeline, recorder=recorder)
    core.start()
    engine.run()
    core.submit_stream(
        _commands(KINDS["mixed"], n, topology.dies, seed),
        window=window, arrival_s=arrival_s,
    )
    if midflight:
        engine.run(until_s=120e-6)
        assert core.in_flight > 0  # genuinely mid-flight
        for extra in _commands(
            KINDS["mixed"], 6, topology.dies, seed=31, first_tag=1000
        ):
            core.enqueue(extra, submit_s=engine.now_s)
    engine.run()
    digest = hashlib.sha256()
    _schedule(
        digest, core.completions, engine.now_s, engine.events_processed, core
    )
    return digest.hexdigest(), engine


def _stream_case(pipeline, n, seed, window, arrival_s, midflight=False):
    def run(sanitize, recorder):
        return _stream(pipeline, n, seed, window, arrival_s, sanitize,
                       recorder, midflight)
    return run


# -- sessions with the FTL data path -------------------------------------------


def _page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * 4096


def _session_digest(session, ftl, done) -> str:
    digest = hashlib.sha256()
    for c in done:
        digest.update(repr((
            c.tag, c.kind.name, c.lpn, c.submit_s, c.dispatch_s, c.done_s,
        )).encode())
        digest.update(c.data if c.data is not None else b"-")
    _schedule(
        digest, (), session.engine.now_s, session.engine.events_processed,
        session.core,
    )
    stats, gc = ftl.stats, ftl.gc_stats
    digest.update(repr((
        stats.host_writes, stats.host_reads, stats.trims,
        stats.write_time_s, stats.read_time_s, stats.corrected_bits,
        gc.collections, gc.pages_migrated, gc.blocks_erased,
        gc.migration_time_s, gc.background_collections,
        gc.scheduled_busy_s,
    )).encode())
    return digest.hexdigest()


def _gc_session(gc_mode, pipeline, dies, plane_interleave, sanitize,
                recorder):
    """1ch x ``dies`` SSD (6 blocks x 4 pages per die) with a session."""
    topology = SsdTopology(
        channels=1,
        dies_per_channel=dies,
        geometry=NandGeometry(blocks=6, pages_per_block=4),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=2012, pipeline=pipeline,
    )
    ssd.set_mode(OperatingMode.BASELINE)
    session = SsdSession(
        ssd=ssd, engine=SimEngine(sanitize=sanitize), queue_depth=4,
        recorder=recorder, gc_mode=gc_mode,
        gc_config=GcConfig(policy="cost_benefit"),
    )
    ftl = DieStripedFtl(
        ssd, plane_interleave=plane_interleave, session=session
    )
    session.ftl = ftl
    return ftl, session


def _churn(capacity: int, seed: int = 11) -> list[TraceOp]:
    """Sequential fill, then random overwrites with a read every 4th."""
    rng = random.Random(seed)
    ops = [
        TraceOp(TraceOpKind.WRITE, 0, lpn, _page(lpn))
        for lpn in range(capacity)
    ]
    for index in range(int(capacity * 1.5)):
        if index % 4 == 3:
            ops.append(TraceOp(TraceOpKind.READ, 0, rng.randrange(capacity)))
        else:
            ops.append(TraceOp(
                TraceOpKind.WRITE, 0, rng.randrange(capacity),
                _page(96 + index),
            ))
    return ops


def _workload_case(gc_mode, pipeline, dies, plane_interleave, trace):
    def run(sanitize, recorder):
        ftl, session = _gc_session(
            gc_mode, pipeline, dies, plane_interleave, sanitize, recorder
        )
        done = []
        run_open_loop_workload(
            ftl,
            OpenLoopWorkload("golden", trace(ftl.logical_capacity),
                             queue_depth=4),
            session=session,
            on_completion=done.append,
        )
        return _session_digest(session, ftl, done), session.engine
    return run


def _open_session(sanitize, recorder):
    """Aged 2x2 drive: open-loop reads and writes through a QD-4 backlog."""
    topology = SsdTopology(
        channels=2,
        dies_per_channel=2,
        geometry=NandGeometry(blocks=8, pages_per_block=8),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=2012,
        pipeline=PipelineConfig.full(),
    )
    for controller in ssd.controllers:
        controller.device.array._wear[:] = 10_000
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=10_000.0)
    ftl = DieStripedFtl(ssd)
    page = ftl.geometry.page_data_bytes
    ftl.write_many([(lpn, bytes([lpn]) * page) for lpn in range(8)])
    session = SsdSession(
        ftl, engine=SimEngine(sanitize=sanitize), queue_depth=4,
        recorder=recorder,
    )
    rng = random.Random(99)
    ops = []
    for _ in range(48):
        if rng.random() < 0.6:
            ops.append(IoCommand(TraceOpKind.READ, rng.randrange(8)))
        else:
            ops.append(IoCommand(
                TraceOpKind.WRITE, rng.randrange(8), rng.randbytes(page)
            ))

    def arrivals():
        for io in ops:
            session.submit(io)
            yield 15e-6

    session.core.spawn(arrivals())
    session.drain()
    done = session.take_completions()
    assert len(done) == len(ops)
    return _session_digest(session, ftl, done), session.engine


# -- the case table ------------------------------------------------------------


def _closed_case(pipeline, kinds, row):
    def run(sanitize, recorder):
        return _closed(pipeline, kinds, row, sanitize, recorder)
    return run


def _execute_case(pipeline, kinds):
    def run(sanitize, recorder):
        return _execute(pipeline, kinds, sanitize, recorder)
    return run


CASES = {}
for _p, _pipeline in PIPELINES.items():
    for _k, _kinds in KINDS.items():
        for _row in CLOSED_ROWS:
            _qd = "inf" if _row[2] is None else _row[2]
            CASES[f"closed-{_p}-{_k}-{_row[0]}x{_row[1]}-qd{_qd}"] = (
                _closed_case(_pipeline, _kinds, _row)
            )
        CASES[f"execute-{_p}-{_k}"] = _execute_case(_pipeline, _kinds)
    CASES[f"stream-{_p}"] = _stream_case(_pipeline, 64, 17, 8, 5e-6)
    CASES[f"window1-{_p}"] = _stream_case(_pipeline, 20, 83, 1, 0.0)
CASES["stream-midflight"] = _stream_case(
    PIPELINES["full"], 40, 29, 16, 4e-6, midflight=True
)
CASES["stream-backpressure"] = _stream_case(PIPELINES["full"], 48, 43, 2, 1e-6)
for _seed in (3, 19, 71):
    CASES[f"ties-{_seed}"] = _stream_case(
        PIPELINES["full"], 56, _seed, None, 0.0
    )
for _mode in ("sync", "foreground", "background"):
    CASES[f"gc-{_mode}"] = _workload_case(
        _mode, PIPELINES["full"], 2, True, _churn
    )
CASES["open-session"] = _open_session

#: Schedule digests (sha256), one per case.
PINNED = {
    "closed-cache-erase-1x1-qdinf":
        "89d6db17047a0b2a9cd3092df726efa4110159fec5cf014cbcfd686bf114ebb1",
    "closed-cache-erase-2x2-qd4":
        "d60a57f909f2c8ca88f68754de9993006de41f244cced416da04925290a4238a",
    "closed-cache-erase-4x2-qd32":
        "67f9eb321253e2d1d5a32cb12fa52a68a9e69e60db30a8245abeea46f58e2166",
    "closed-cache-mixed-1x1-qdinf":
        "e807a5653e66940877d55a9157f345b821d97ecabb9a9b9c747486c5c4a81fd6",
    "closed-cache-mixed-2x2-qd4":
        "1c12ff7a42c5901c4c6d64dc06996d12416e6b06a8deb8615e9851f07a36a5c4",
    "closed-cache-mixed-4x2-qd32":
        "0ae618d53201c32448404e1819992db4e50ee17ca748e1871c56327cd6e7e1fe",
    "closed-cache-program-1x1-qdinf":
        "26fedf8af173176ccbce62a0931bd18563291807db862d1038447809e453937a",
    "closed-cache-program-2x2-qd4":
        "179c36e794b2d120d8e4f93b71bbcf40af5545b047bb9d0a2426fa461666cd62",
    "closed-cache-program-4x2-qd32":
        "d7a4d2e84d097624c63aede91c552450f64e02746e3578cf443ff551b6d5fa1e",
    "closed-cache-read-1x1-qdinf":
        "f00a29ec8bca3de468ca66579c7a6668b5a0ee1ff4987dc7677cd568dee0717a",
    "closed-cache-read-2x2-qd4":
        "4143d2d1c007ecda6ad2fc69335ad4d9ece1692f7f66e872d871e8a3b06768f7",
    "closed-cache-read-4x2-qd32":
        "1a819f258bf1bced25aa25ddfc985d6eca4b6b290f41cd3455abefc293b803ad",
    "closed-ecc-erase-1x1-qdinf":
        "89d6db17047a0b2a9cd3092df726efa4110159fec5cf014cbcfd686bf114ebb1",
    "closed-ecc-erase-2x2-qd4":
        "d60a57f909f2c8ca88f68754de9993006de41f244cced416da04925290a4238a",
    "closed-ecc-erase-4x2-qd32":
        "67f9eb321253e2d1d5a32cb12fa52a68a9e69e60db30a8245abeea46f58e2166",
    "closed-ecc-mixed-1x1-qdinf":
        "d4b22087b04e7d479cfb17e42320c07898773e499a484aeb48709ce1fa8e2ebf",
    "closed-ecc-mixed-2x2-qd4":
        "1705f44780ea7f2191313a2615ce89bb430467e8b9080add9d3a0d0f6177a7f2",
    "closed-ecc-mixed-4x2-qd32":
        "4970e4a7a5650a55d6f81d33d1c20d161477a8029ca9352d4b648d504be60d9c",
    "closed-ecc-program-1x1-qdinf":
        "4eecb879bd20c2c8cd25fb2125246a513c432ea881ba1027935471342db35903",
    "closed-ecc-program-2x2-qd4":
        "d07883c191a705f7158ca2b3ebf17598c2a96fe5ee8a528720863ad6d176cffc",
    "closed-ecc-program-4x2-qd32":
        "84871522770aa71f78796625a7746ae414d6ecb4df8bcd5b298448d987bf5074",
    "closed-ecc-read-1x1-qdinf":
        "baf9ecfd060692ca5e02b1b2d91191136fb724e099986fe03e2deb8255cff8dc",
    "closed-ecc-read-2x2-qd4":
        "c61bf10a430b959554dbc90e7b2f7653bca666adf04cf6b20f7aa886281bdefd",
    "closed-ecc-read-4x2-qd32":
        "b1152a680b30e923e4ad5771061d3afd538a14d60dc9f80f166273b08a7810db",
    "closed-full-erase-1x1-qdinf":
        "59395c5d61da445c122889d4b68f22b264a84954708edd5b6406d1544170654a",
    "closed-full-erase-2x2-qd4":
        "5a7b9c1a12a28e9383d6680c65091557e9b31fb9ea648e1fa5df0ae912abdba7",
    "closed-full-erase-4x2-qd32":
        "ea376feab415e876c7cf808844dc7a2633bff0185bdca5b558ecd46d9e167ffc",
    "closed-full-mixed-1x1-qdinf":
        "d835241d82fca1577e3ae2ec75bbcfdee5be03e79c476badd2db79238df6f4ec",
    "closed-full-mixed-2x2-qd4":
        "31f015995a81b77467769cbd28fce53186b82d45de4f5c0d257079e733c6c632",
    "closed-full-mixed-4x2-qd32":
        "75c6fc28e2d1250305cb3978eedf0562efd1f70fbd407c3df4d865c13dba674a",
    "closed-full-program-1x1-qdinf":
        "6c68799f5775b3c7a4f84c352c6c040fdbc3ffeabfa8a3bc1b4f4446d568b31a",
    "closed-full-program-2x2-qd4":
        "b5c4f53df05fb21bb87d6ce4dc758aaada257ef0741da10d09b757ece106845c",
    "closed-full-program-4x2-qd32":
        "3b9ce97685c631e1eb9980acaa92a53a1bcf87982b87c920868144938adefded",
    "closed-full-read-1x1-qdinf":
        "677474366473c8ade9594b98d64e7d3ac4bed77828557f127cc65376b52adcc7",
    "closed-full-read-2x2-qd4":
        "d5e089b969ab0747632cbf4180820c5296970c4fbaf15ca7781ecefb01e80530",
    "closed-full-read-4x2-qd32":
        "4bce5162130a7f675bb10c6a6743460737fe0671e31ac1a46d4b2f8bdcf3973e",
    "closed-serial-erase-1x1-qdinf":
        "89d6db17047a0b2a9cd3092df726efa4110159fec5cf014cbcfd686bf114ebb1",
    "closed-serial-erase-2x2-qd4":
        "d60a57f909f2c8ca88f68754de9993006de41f244cced416da04925290a4238a",
    "closed-serial-erase-4x2-qd32":
        "67f9eb321253e2d1d5a32cb12fa52a68a9e69e60db30a8245abeea46f58e2166",
    "closed-serial-mixed-1x1-qdinf":
        "f3bc6637d71652d1686c1295b26ba6252e400b1a292630b14279544542245412",
    "closed-serial-mixed-2x2-qd4":
        "34330ee4ecaa7ec6184be73b8e235c963f59b3179ca0a4747db5a67863c8b0cd",
    "closed-serial-mixed-4x2-qd32":
        "68ae26e31fb2e0bb014ee740238b119aa0e9c52aab6449317052465b77f33a61",
    "closed-serial-program-1x1-qdinf":
        "26fedf8af173176ccbce62a0931bd18563291807db862d1038447809e453937a",
    "closed-serial-program-2x2-qd4":
        "179c36e794b2d120d8e4f93b71bbcf40af5545b047bb9d0a2426fa461666cd62",
    "closed-serial-program-4x2-qd32":
        "d7a4d2e84d097624c63aede91c552450f64e02746e3578cf443ff551b6d5fa1e",
    "closed-serial-read-1x1-qdinf":
        "859eb47d74d75808566ae271e5ffc2c070edcc11d4298a9b5373f1c5d5eacd49",
    "closed-serial-read-2x2-qd4":
        "17727cda13c222b9093260d0830323d6d36e5df288e4e1369b6a770af3ab1ae8",
    "closed-serial-read-4x2-qd32":
        "8c075266f94d39f3f699f8550d79e6465c6b1b823e8e2589c89b3941b7d8f519",
    "execute-cache-erase":
        "68bd2f73df2e5bbd078cc164728e466269758bb0f4c5831c78d27a1ad5ae716b",
    "execute-cache-mixed":
        "c39b6102336462470f1e7f51ae1976cae78004bfc11b601d36d329444ed16a66",
    "execute-cache-program":
        "2b47e6b7af665fc9a064bef82917b10fe93a4ba09e0e5e4c74104501f40ac9eb",
    "execute-cache-read":
        "3ed18d3b4e551b1b77f02ee313056f66ca50eb42f25ba3afc1dfa9743d749593",
    "execute-ecc-erase":
        "68bd2f73df2e5bbd078cc164728e466269758bb0f4c5831c78d27a1ad5ae716b",
    "execute-ecc-mixed":
        "2113d06c0debf7cd2853aa28f13938fb2a36794629126034a4c0a44b405d2eb5",
    "execute-ecc-program":
        "c4805b625f2433daff53c658020cedfce932d6664a6f819751a27459ff9a3c1f",
    "execute-ecc-read":
        "913d7df9e18025af09d3513e29dc33731ad7940535996eb6424e823dbc74962a",
    "execute-full-erase":
        "90342bb1956d7c14dfcaf844fe83d8a0f87558e96f08fe98944a8af5fa42b83f",
    "execute-full-mixed":
        "62dab0b94b21bf14c5c44fa252fccc6860b877544f3b314f93fe6ae6c4c9aadd",
    "execute-full-program":
        "d5b88fc72af0f046ee061dd2d4aeb989449845a70ce933b02253bc4f8f93371c",
    "execute-full-read":
        "06eb39446dabd857dd568473fa44d1db370b772b1fac8eaa0819fa03e743ec0f",
    "execute-serial-erase":
        "68bd2f73df2e5bbd078cc164728e466269758bb0f4c5831c78d27a1ad5ae716b",
    "execute-serial-mixed":
        "db68448d76e58877004f94e8d1b32063653ce8c730c58faaed5c7b19780afcca",
    "execute-serial-program":
        "2b47e6b7af665fc9a064bef82917b10fe93a4ba09e0e5e4c74104501f40ac9eb",
    "execute-serial-read":
        "31d223d935df5e5d01a9a58dc9b0780d367494aa6dec4b9495b67a287c28bf54",
    "gc-background":
        "3db8608fb2d904807a76438350ac843d32aa8f222b5f6f8847b79f39f867de1c",
    "gc-foreground":
        "590e9ed1e271ce1d2530f8dd0298142b821815a33b03688b2ad58f870b4edf1f",
    "gc-sync":
        "d48eae8dfee7a67eb80415970486372b2a33e9639026e9acce6914c774b1ab41",
    "open-session":
        "18956829923130d9009fd2b8587121fab2ce5b9e47abd71874bf95ca8c15aff1",
    "stream-backpressure":
        "5dcf49ff02d3932090a0da28d1e5a697364c67fa35bb81baf0bd48f9803b67d9",
    "stream-cache":
        "2b34fc3b4cddceacc42d4348fc03d79c69bf9d72891efd00430b50683de851ed",
    "stream-ecc":
        "f428713a16e1c94957815f3febda29307ad5f84c70232e77bd1548a905fca098",
    "stream-full":
        "4f98ea54d80b408aba37badb3240de259cb1dc30372b2f4107be5723f4303ddc",
    "stream-midflight":
        "cd106b3cdf9a73417d186ce7059574e00570992eeee28b48f5b9165dc8e78e25",
    "stream-serial":
        "2424f03899955afe03c57279b0cbfe428c95398c07f4f94ac4b4e1e526e9fc9e",
    "ties-19":
        "3bb649e7bd9c6ebb010264778c93ddf558d5e65bf2814affa745ef1586efa489",
    "ties-3":
        "ee72d6888b1311db07a9b9e78b3d2b9919c7ece478bc6c26a5d7d92e65ab64bd",
    "ties-71":
        "3c7d2d9b87234f3f2e8b2e3af8ad7be060bd7e4891e1103baa1c1c30f612cc3a",
    "window1-cache":
        "123308f4a2f31114d988b3fd7e51b93eab2548274caa9090e907b194958d2d82",
    "window1-ecc":
        "032372ecefb506eb1c9191f42f51d7b6a8e2e9936821911d72f0e7b0127ea450",
    "window1-full":
        "bbc90e42c8030eafb302566d5247268d844c1b49678de157ac616aa44aa3b57f",
    "window1-serial":
        "2f6da5354556c1add7d770b239d7b1529fbc1da370e62176cbb4b8615d540bc3",
}

#: Digests of the sorted span lists of the traced cases.
SPANS = {
    "closed-full-mixed-2x2-qd4":
        "d262f9ada2ab81918af777012b69b5ea857e57fae11e14519c770c96bad988ec",
    "execute-full-mixed":
        "cb3c3ecf6c873860b7203d9b5ee18533cc57d2a7267d733a930339e78acf8b53",
    "gc-background":
        "ab43d248e90759333686fb528c63c1e41378393e9dd4d054681d7ab31dd0f179",
    "stream-cache":
        "66b07c50f6ba8977e0ca4a4ae819eee66870f1cbb4bd659acd07ebe7727f322b",
    "stream-ecc":
        "6d6c7d5ee360b44f67423bc355972de3aca1203b61e99fb8693cb4be3fba7157",
    "stream-full":
        "9b4d0d0984ade3dd9a0b42b6a8fccc82ac5932fc5a252df7906667f1136a6b4a",
    "stream-serial":
        "5f9815842ee7d3d33493b30631aa2c45d9867cc40d5176b9cd909c6bd069ec9e",
}


def _spans_digest(recorder: TraceRecorder) -> str:
    return hashlib.sha256(repr(sorted(recorder.spans)).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_schedule_matches_pinned_digest(case):
    digest, _ = CASES[case](False, None)
    assert digest == PINNED[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_armed_schedule_matches_pinned_digest(case):
    digest, engine = CASES[case](True, None)
    assert engine.sanitizer.checks > 0
    assert digest == PINNED[case]


@pytest.mark.parametrize("case", sorted(SPANS))
def test_traced_schedule_and_spans_match_pinned_digests(case):
    recorder = TraceRecorder()
    digest, _ = CASES[case](False, recorder)
    assert len(recorder) > 0
    assert digest == PINNED[case]
    assert _spans_digest(recorder) == SPANS[case]
