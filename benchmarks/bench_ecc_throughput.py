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
measures what batching alone buys.  Outputs are cross-checked identical
before the numbers are reported; a mismatch is the only failure.  The
rows carry no floor: the decoder's cost is guarded by the counted
budget in ``tests/bch/test_decode_budget.py``.  Run standalone
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

from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code

PAGE_BYTES = 4096
CAPABILITIES = (3, 14, 65)


def _flip_random_bits(codeword: bytes, weight: int,
                      n_bits: int, rng: np.random.Generator) -> bytes:
    corrupted = bytearray(codeword)
    for pos in rng.choice(n_bits, size=weight, replace=False):
        corrupted[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(corrupted)


def _mb_s(pages: int, seconds: float) -> float:
    return pages * PAGE_BYTES / seconds / 1e6


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

    populations = {
        "clean": codewords,
        "errored": [
            _flip_random_bits(cw, max(1, t // 2), spec.n_stored, rng)
            for cw in codewords
        ],
        "worst": [
            _flip_random_bits(cw, t, spec.n_stored, rng) for cw in codewords
        ],
    }

    rows = [{
        "t": t, "population": "encode",
        "single_mb_s": _mb_s(single_pages, single_encode_s),
        "batch_mb_s": _mb_s(batch_pages, batch_encode_s),
    }]
    for name, words in populations.items():
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
        rows.append({
            "t": t, "population": name,
            "single_mb_s": _mb_s(single_pages, single_s),
            "batch_mb_s": _mb_s(batch_pages, batch_s),
        })
    return rows


def run_benchmark(batch_pages: int = 64, single_pages: int = 8,
                  capabilities=CAPABILITIES) -> str:
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
    for t in capabilities:
        for row in bench_capability(t, batch_pages, single_pages, rng):
            ratio = row["batch_mb_s"] / row["single_mb_s"]
            lines.append(
                f"{row['t']:>4} {row['population']:>10} "
                f"{row['single_mb_s']:>14.2f} {row['batch_mb_s']:>11.2f} "
                f"{ratio:>6.1f}x"
            )
    return "\n".join(lines) + "\n"


def _save(text: str) -> None:
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "ecc_throughput.txt").write_text(text)
    print("\n" + text)


@pytest.mark.slow
def test_ecc_throughput(quick):
    """Record the per-page vs batch trajectory (outputs cross-checked)."""
    _save(run_benchmark(batch_pages=16 if quick else 64))


if __name__ == "__main__":
    _save(run_benchmark(batch_pages=16 if "--quick" in sys.argv else 64))
