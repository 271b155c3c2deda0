"""ECC datapath throughput: per-page calls vs batch kernels.

Measures encode and decode MB/s (4 KiB page payload) at the paper's
correction capabilities t in {3, 14, 65}.  Decode covers three page
populations:

* ``clean``   — error-free pages (all-zero-syndrome early exit);
* ``errored`` — pages carrying t/2 bit errors, the end-of-life design
  point (RBER ~1e-3 over a 33.8 kbit codeword injects ~t/2 errors at
  t = 65);
* ``worst``   — pages carrying exactly t errors (full capability).

Every row is per-page vs batch through one datapath: per-message
``encode_codeword`` against ``encode_codeword_batch``, and per-word
``decode`` (a batch of one) against ``decode_batch``, so each row
measures what batching alone buys.  Before the numbers are reported,
the per-page and batch outputs are cross-checked identical, and every
decode must return the original message and exactly the injected error
positions (full capability included); a mismatch is the only failure.
A second table splits the ``errored`` population's decode by stage:
the time per word in the syndromes, Berlekamp-Massey and the Chien
search, each word a batch of one (the shape the end-to-end ``eol_read``
workload decodes), so the stage a decoder change moved is one command
away.  A third table times the fold-table kernel alone: microseconds
per page of ``encode_batch`` at batch 1 and batch 16 for codes of
W = 2, 4, 8, 12 and 17 parity words (t = 6, 14, 30, 45, 65), with the
table layout each width gets, so the width at which the kernel switches
from a word-major to a nibble-major table is one command away; the
batch-16 parity must equal the batch-1 parity of every page.  The rows
carry no floor: the decoder's cost is guarded by the counted budget in
``tests/bch/test_decode_budget.py``.  Run standalone
(``python benchmarks/bench_ecc_throughput.py``) or through pytest; the
full sweep is marked ``slow`` and the ``--quick`` knob shrinks the
batch.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bch.berlekamp import berlekamp_massey
from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code

PAGE_BYTES = 4096
CAPABILITIES = (3, 14, 65)
#: Codes of the fold table: W = ceil(r/64) = 2, 4, 8, 12 and 17 words.
FOLD_CAPABILITIES = (6, 14, 30, 45, 65)
FOLD_BATCHES = (1, 16)


def _flip_random_bits(codeword: bytes, weight: int, n_bits: int,
                      rng: np.random.Generator) -> tuple[bytes, list[int]]:
    """``codeword`` with ``weight`` distinct random bits flipped, and the
    flipped positions in ascending order."""
    positions = sorted(rng.choice(n_bits, size=weight, replace=False).tolist())
    corrupted = bytearray(codeword)
    for pos in positions:
        corrupted[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(corrupted), positions


def _mb_s(pages: int, seconds: float) -> float:
    return pages * PAGE_BYTES / seconds / 1e6


def stage_split(decoder: BCHDecoder, words: list[bytes],
                injected: list[list[int]]) -> dict[str, float]:
    """Microseconds per word in each decode stage, each word decoded
    alone; the Chien search must return the injected positions."""
    field = decoder.spec.field()
    calculator = decoder.syndrome_calculator
    start = time.perf_counter()
    syndromes = [calculator.syndromes_batch([w])[0].tolist() for w in words]
    syndrome_s = time.perf_counter() - start
    start = time.perf_counter()
    locators = [berlekamp_massey(field, s).error_locator for s in syndromes]
    bm_s = time.perf_counter() - start
    start = time.perf_counter()
    found = [decoder.chien.error_positions(locator) for locator in locators]
    chien_s = time.perf_counter() - start
    assert found == list(injected), "stage split: positions differ"
    return {
        stage: seconds / len(words) * 1e6
        for stage, seconds in (("syndromes", syndrome_s), ("bm", bm_s),
                               ("chien", chien_s))
    }


def fold_times(t: int, rng: np.random.Generator,
               calls: int) -> tuple[int, str, dict[int, float]]:
    """Parity words, table layout and microseconds per page of
    ``encode_batch`` (median of ``calls`` calls) at each fold batch."""
    spec = design_code(PAGE_BYTES * 8, t)
    encoder = BCHEncoder(spec)
    words = (spec.r + 63) // 64
    messages = [rng.bytes(PAGE_BYTES) for _ in range(max(FOLD_BATCHES))]
    parities = encoder.encode_batch(messages)  # also builds the table
    assert parities == [encoder.encode_batch([m])[0] for m in messages], (
        f"t={t}: batch fold differs from per-page fold"
    )
    table = BCHEncoder._batch_tables(spec)
    layout = "word-major" if table.shape[0] == words else "nibble-major"
    per_page = {}
    for batch in FOLD_BATCHES:
        seconds = []
        for _ in range(calls):
            start = time.perf_counter()
            encoder.encode_batch(messages[:batch])
            seconds.append(time.perf_counter() - start)
        per_page[batch] = float(np.median(seconds)) / batch * 1e6
    return words, layout, per_page


def bench_capability(t: int, batch_pages: int, single_pages: int,
                     rng: np.random.Generator) -> list[dict]:
    """Measure one capability; returns one row dict per population."""
    spec = design_code(PAGE_BYTES * 8, t)
    encoder = BCHEncoder(spec)
    decoder = BCHDecoder(spec)

    messages = [rng.bytes(PAGE_BYTES) for _ in range(batch_pages)]

    # -- encode (cross-check, then time) -------------------------------------
    encoder.encode_batch(messages[:2])  # build the table outside the timing
    start = time.perf_counter()
    single_cw = [encoder.encode_codeword(m) for m in messages[:single_pages]]
    single_encode_s = time.perf_counter() - start
    start = time.perf_counter()
    codewords = encoder.encode_codeword_batch(messages)
    batch_encode_s = time.perf_counter() - start
    assert codewords[:single_pages] == single_cw, "encode mismatch"

    # Each population: the received words and the positions flipped in each.
    populations = {
        "clean": (codewords, [[]] * len(codewords)),
        "errored": tuple(zip(*[
            _flip_random_bits(cw, max(1, t // 2), spec.n_stored, rng)
            for cw in codewords
        ])),
        "worst": tuple(zip(*[
            _flip_random_bits(cw, t, spec.n_stored, rng) for cw in codewords
        ])),
    }

    rows = [{
        "t": t, "population": "encode",
        "single_mb_s": _mb_s(single_pages, single_encode_s),
        "batch_mb_s": _mb_s(batch_pages, batch_encode_s),
    }]
    for name, (words, injected) in populations.items():
        decoder.decode_batch(words[:2])  # build tables / warm caches
        start = time.perf_counter()
        single_results = [decoder.decode(w) for w in words[:single_pages]]
        single_s = time.perf_counter() - start
        start = time.perf_counter()
        batch_results = decoder.decode_batch(words)
        batch_s = time.perf_counter() - start
        assert single_results == batch_results[:single_pages], (
            f"t={t} {name}: decode mismatch"
        )
        for message, positions, result in zip(messages, injected,
                                              batch_results):
            assert (result.data, list(result.error_positions)) == (
                message, positions
            ), f"t={t} {name}: decode differs from what was injected"
        rows.append({
            "t": t, "population": name,
            "single_mb_s": _mb_s(single_pages, single_s),
            "batch_mb_s": _mb_s(batch_pages, batch_s),
        })
        if name == "errored":
            rows[-1]["stages_us"] = stage_split(decoder, words, injected)
    return rows


def run_benchmark(batch_pages: int = 64, single_pages: int = 8,
                  capabilities=CAPABILITIES, fold_calls: int = 21) -> str:
    """Full sweep; returns the report text."""
    rng = np.random.default_rng(20120312)
    lines = [
        f"ECC throughput, {PAGE_BYTES} B pages: per-page encode/decode "
        "(a batch of one) vs one batch call",
        f"batch={batch_pages} pages, per-page sample={single_pages} pages",
        "",
        f"{'t':>4} {'population':>10} {'per-page MB/s':>14} "
        f"{'batch MB/s':>11} {'ratio':>7}",
    ]
    split = [
        "",
        "errored population, time per word by decode stage "
        "(each word a batch of one)",
        "",
        f"{'t':>4} {'syndromes us':>13} {'BM us':>9} {'Chien us':>9}",
    ]
    for t in capabilities:
        for row in bench_capability(t, batch_pages, single_pages, rng):
            ratio = row["batch_mb_s"] / row["single_mb_s"]
            lines.append(
                f"{row['t']:>4} {row['population']:>10} "
                f"{row['single_mb_s']:>14.2f} {row['batch_mb_s']:>11.2f} "
                f"{ratio:>6.1f}x"
            )
            if "stages_us" in row:
                stages = row["stages_us"]
                split.append(
                    f"{row['t']:>4} {stages['syndromes']:>13.1f} "
                    f"{stages['bm']:>9.1f} {stages['chien']:>9.1f}"
                )
    fold = [
        "",
        "fold-table kernel: encode_batch time per page, median of "
        f"{fold_calls} calls",
        "",
        f"{'t':>4} {'W':>3} {'layout':>12} "
        + " ".join(f"{f'batch {b} us':>12}" for b in FOLD_BATCHES),
    ]
    for t in FOLD_CAPABILITIES:
        words, layout, per_page = fold_times(t, rng, fold_calls)
        fold.append(
            f"{t:>4} {words:>3} {layout:>12} "
            + " ".join(f"{per_page[b]:>12.1f}" for b in FOLD_BATCHES)
        )
    return "\n".join(lines + split + fold) + "\n"


def _save(text: str) -> None:
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "ecc_throughput.txt").write_text(text)
    print("\n" + text)


@pytest.mark.slow
def test_ecc_throughput(quick):
    """Record the per-page vs batch trajectory (outputs cross-checked)."""
    _save(run_benchmark(batch_pages=16 if quick else 64,
                        fold_calls=7 if quick else 21))


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    _save(run_benchmark(batch_pages=16 if quick else 64,
                        fold_calls=7 if quick else 21))
