"""Per-layer span tracing for the end-to-end benchmark.

The traced round installs wrappers from this module around every call
that crosses a layer boundary of the package.  Each wrapper records a
span ``(name, t0, t1, parent)`` in memory and, at the same boundary,
counts the work done (pages encoded, events processed, ...).  A layer's
self time is its spans' durations minus the time their child spans
cover, so the self times of all layers plus the unattributed rest add
up to the traced time exactly.

Each name is patched where it is looked up: a method on its class, and
a function imported by name into another module (Berlekamp-Massey) in
that module's namespace.  :func:`uninstall` restores every attribute.

The program is single-threaded, so spans nest as a stack.  Counts
repeat exactly between runs with the same seed; times are only for
attribution.
"""

from __future__ import annotations

import functools
import importlib
import time

#: Span names, one per layer boundary.  Each becomes a ``<name>_pct``
#: metric: the layer's self time as a percentage of the traced time.
SPAN_NAMES = (
    "gf.field_build",
    "bch.table_build",
    "bch.encode",
    "bch.decode",
    "bch.syndrome",
    "bch.bm",
    "bch.chien",
    "nand.read",
    "nand.program",
    "nand.ispp",
    "controller.read",
    "controller.write",
    "ftl.gc",
    "ssd.submit",
    "ssd.stage",
    "sim.des",
)

#: Every per-layer metric: (name, unit, better).  ``trace.overhead_frac``
#: compares traced with untraced children, so the parent adds it.
PER_LAYER = (
    *((f"{span}_pct", "%", "lower") for span in SPAN_NAMES),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("gf.field_builds", "count", "lower"),
    ("bch.encoder_builds", "count", "lower"),
    ("bch.decoder_builds", "count", "lower"),
    ("bch.encode_calls", "count", "lower"),
    ("bch.encode_pages", "count", "lower"),
    ("bch.encode_pages_per_call", "pages", "higher"),
    ("bch.decode_calls", "count", "lower"),
    ("bch.decode_pages", "count", "lower"),
    ("bch.decode_pages_per_call", "pages", "higher"),
    ("bch.bm_calls", "count", "lower"),
    ("bch.clean_frac", "fraction", "higher"),
    ("bch.corrected_bits", "count", "lower"),
    ("bch.decode_failures", "count", "lower"),
    ("nand.read_pages", "count", "lower"),
    ("nand.program_pages", "count", "lower"),
    ("nand.ispp_calls", "count", "lower"),
    ("ftl.gc_collections", "count", "lower"),
    ("ftl.pages_migrated", "count", "lower"),
    ("ftl.write_amplification", "ratio", "lower"),
    ("ssd.submits", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
)

#: Metrics that must repeat exactly between runs with the same seed.
EXACT = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "pages", "ratio")
) + ("bch.clean_frac",)


class SpanRecorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``(name, t0, t1, parent)``; ``parent`` indexes this list, -1
        #: for a top-level span.  A slot is None while its span is open.
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._open_names: list[str] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, count=None, before=None):
        """``fn`` recording a span; ``count`` tallies completed calls.

        ``count(recorder, args, kwargs, result, token)`` runs only for
        the outermost span of a name, so a layer calling itself (a batch
        read falling back to page reads) is counted once.  ``token`` is
        ``before(args)``, taken before the call.
        """
        spans = self.spans
        open_spans = self._open
        open_names = self._open_names
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = name not in open_names
            token = before(args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            open_names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                open_names.pop()
                spans[index] = (name, start, end, parent)
            if count is not None and outermost:
                count(self, args, kwargs, result, token)
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus time covered by children."""
    covered = [0.0] * len(spans)
    totals: dict[str, float] = {}
    for index in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[index]
        duration = end - start
        if parent >= 0:
            covered[parent] += duration
        totals[name] = totals.get(name, 0.0) + duration - covered[index]
    return totals


# -- counts taken at the boundaries ------------------------------------------


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _tally(metric: str):
    def count(recorder, args, kwargs, result, token):
        recorder.add(metric)
    return count


def _pages(metric: str, key: str | None):
    """Count a call and the pages in its first argument (1 if scalar)."""
    def count(recorder, args, kwargs, result, token):
        recorder.add(metric + "_calls")
        recorder.add(
            metric + "_pages",
            1 if key is None else len(_arg(args, kwargs, 1, key)),
        )
    return count


def _decoded(recorder, args, kwargs, result, token):
    results = result if isinstance(result, list) else [result]
    recorder.add("bch.decode_calls")
    recorder.add("bch.decode_pages", len(results))
    for decoded in results:
        if not decoded.success:
            recorder.add("bch.decode_failures")
        elif decoded.early_exit:
            recorder.add("bch.decode_clean")
        else:
            recorder.add("bch.corrected_bits", decoded.corrected_bits)


def _events_before(args):
    return args[0].events_processed


def _events(recorder, args, kwargs, result, token):
    recorder.add("sim.events", args[0].events_processed - token)


#: (module, class or None for a module-level name, attribute, span,
#: count, before).
BOUNDARIES = (
    ("repro.gf.field", "GF2m", "__init__", "gf.field_build",
     _tally("gf.field_builds"), None),
    ("repro.bch.encoder", "BCHEncoder", "__init__", "bch.table_build",
     _tally("bch.encoder_builds"), None),
    ("repro.bch.decoder", "BCHDecoder", "__init__", "bch.table_build",
     _tally("bch.decoder_builds"), None),
    ("repro.bch.encoder", "BCHEncoder", "_batch_tables", "bch.table_build",
     None, None),
    ("repro.bch.codec", "AdaptiveBCHCodec", "encode_batch", "bch.encode",
     _pages("bch.encode", "messages"), None),
    ("repro.bch.codec", "AdaptiveBCHCodec", "encode", "bch.encode",
     _pages("bch.encode", None), None),
    ("repro.bch.codec", "AdaptiveBCHCodec", "decode_batch", "bch.decode",
     _decoded, None),
    ("repro.bch.codec", "AdaptiveBCHCodec", "decode", "bch.decode",
     _decoded, None),
    ("repro.bch.syndrome", "SyndromeCalculator", "syndromes_batch",
     "bch.syndrome", None, None),
    ("repro.bch.syndrome", "SyndromeCalculator", "syndromes_vectorized",
     "bch.syndrome", None, None),
    ("repro.bch.decoder", None, "berlekamp_massey", "bch.bm",
     _tally("bch.bm_calls"), None),
    ("repro.bch.chien", "ChienSearch", "error_positions", "bch.chien",
     None, None),
    ("repro.nand.device", "NandFlashDevice", "read_pages", "nand.read",
     _pages("nand.read", "addresses"), None),
    ("repro.nand.device", "NandFlashDevice", "read_page", "nand.read",
     _pages("nand.read", None), None),
    ("repro.nand.device", "NandFlashDevice", "program_pages", "nand.program",
     _pages("nand.program", "addresses"), None),
    ("repro.nand.device", "NandFlashDevice", "program_page", "nand.program",
     _pages("nand.program", None), None),
    ("repro.nand.ispp", "IsppEngine", "program_page", "nand.ispp",
     _tally("nand.ispp_calls"), None),
    ("repro.controller.controller", "NandController", "read_batch",
     "controller.read", None, None),
    ("repro.controller.controller", "NandController", "read",
     "controller.read", None, None),
    ("repro.controller.controller", "NandController", "write_batch",
     "controller.write", None, None),
    ("repro.controller.controller", "NandController", "write",
     "controller.write", None, None),
    ("repro.ftl.gc", "GarbageCollector", "collect", "ftl.gc", None, None),
    ("repro.ftl.gc", "GarbageCollector", "collect_block", "ftl.gc",
     None, None),
    ("repro.ssd.session", "SsdSession", "submit", "ssd.submit",
     _tally("ssd.submits"), None),
    ("repro.ssd.striped", "DieStripedFtl", "stage_reads", "ssd.stage",
     None, None),
    ("repro.ssd.striped", "DieStripedFtl", "stage_writes", "ssd.stage",
     None, None),
    ("repro.sim.engine", "SimEngine", "run", "sim.des",
     _events, _events_before),
)


def boundary_owners():
    """``(owner, attribute)`` of every boundary, imported on demand."""
    owners = []
    for module, cls, attribute, *_ in BOUNDARIES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        if attribute not in vars(owner):
            raise AttributeError(f"{module}.{cls or ''}: no {attribute!r} "
                                 "defined here to patch")
        owners.append((owner, attribute))
    return owners


def install(recorder: SpanRecorder) -> list[tuple]:
    """Patch every boundary; returns what :func:`uninstall` restores."""
    patches = []
    for (owner, attribute), (_, _, _, span, count, before) in zip(
        boundary_owners(), BOUNDARIES
    ):
        original = vars(owner)[attribute]
        setattr(owner, attribute,
                recorder.wrap(span, original, count, before))
        patches.append((owner, attribute, original))
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Put back every attribute :func:`install` replaced."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)


def layer_metrics(
    recorder: SpanRecorder, traced_s: float, ftl_counters: dict
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced child, plus self times in seconds.

    ``traced_s`` is the time the wrappers were installed for, less the
    benchmark's own input generation.  ``ftl_counters`` come from the
    workload's FTL (``gc_stats`` and ``stats``).
    """
    seconds = self_times(recorder.spans)
    metrics: dict[str, float] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}_pct"] = 100.0 * seconds.get(span, 0.0) / traced_s
    metrics["trace.unattributed_pct"] = (
        100.0 * (traced_s - sum(seconds.values())) / traced_s
    )
    counts = recorder.counts
    for name in (
        "gf.field_builds", "bch.encoder_builds", "bch.decoder_builds",
        "bch.encode_calls", "bch.encode_pages", "bch.decode_calls",
        "bch.decode_pages", "bch.bm_calls", "bch.corrected_bits",
        "bch.decode_failures", "nand.read_pages", "nand.program_pages",
        "nand.ispp_calls", "ssd.submits", "sim.events",
    ):
        metrics[name] = counts.get(name, 0)
    for kind in ("encode", "decode"):
        calls = metrics[f"bch.{kind}_calls"]
        metrics[f"bch.{kind}_pages_per_call"] = (
            metrics[f"bch.{kind}_pages"] / calls if calls else 0.0
        )
    pages = metrics["bch.decode_pages"]
    metrics["bch.clean_frac"] = (
        counts.get("bch.decode_clean", 0) / pages if pages else 0.0
    )
    metrics["ftl.gc_collections"] = ftl_counters["gc_collections"]
    metrics["ftl.pages_migrated"] = ftl_counters["pages_migrated"]
    metrics["ftl.write_amplification"] = ftl_counters["write_amplification"]
    des_s = seconds.get("sim.des", 0.0)
    metrics["sim.events_per_s"] = metrics["sim.events"] / des_s if des_s else 0.0
    return metrics, seconds
