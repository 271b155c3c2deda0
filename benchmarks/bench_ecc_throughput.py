"""ECC datapath throughput: per-page and scalar paths vs batch kernels.

Measures encode and decode MB/s (4 KiB page payload) at the paper's
correction capabilities t in {3, 14, 65}.  Decode covers three page
populations:

* ``clean``   — error-free pages (all-zero-syndrome early exit);
* ``errored`` — pages carrying t/2 bit errors, the end-of-life design
  point (RBER ~1e-3 over a 33.8 kbit codeword injects ~t/2 errors at
  t = 65);
* ``worst``   — pages carrying exactly t errors (full capability).

The encode row is per-page vs batch: per-message ``encode_codeword``
against ``encode_codeword_batch``, both through the encoder's one
fold-table kernel, so it measures batching alone.  The decode rows time
the byte-serial reference (``BCHDecoder(vectorized=False)``) against
``decode_batch``; the t = 65 floors apply to them.  Outputs are
cross-checked identical before timing.  Run standalone (``python
benchmarks/bench_ecc_throughput.py``) or through pytest; the full sweep
is marked ``slow`` and the ``--quick`` knob shrinks the batch.
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

#: Acceptance floors at t = 65 (decode vs the byte-serial reference).
MIN_CLEAN_SPEEDUP = 10.0
MIN_ERRORED_SPEEDUP = 5.0


def _flip_random_bits(codeword: bytes, weight: int,
                      n_bits: int, rng: np.random.Generator) -> bytes:
    corrupted = bytearray(codeword)
    for pos in rng.choice(n_bits, size=weight, replace=False):
        corrupted[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(corrupted)


def _mb_s(pages: int, seconds: float) -> float:
    return pages * PAGE_BYTES / seconds / 1e6


def bench_capability(t: int, batch_pages: int, scalar_pages: int,
                     rng: np.random.Generator) -> dict:
    """Measure one capability; returns row dicts plus the speedup summary."""
    spec = design_code(PAGE_BYTES * 8, t)
    encoder = BCHEncoder(spec)
    batch_decoder = BCHDecoder(spec)
    scalar_decoder = BCHDecoder(spec, vectorized=False)

    messages = [rng.bytes(PAGE_BYTES) for _ in range(batch_pages)]

    # -- encode (cross-check, then time) -------------------------------------
    encoder.encode_batch(messages[:2])  # build the table outside the timing
    start = time.perf_counter()
    scalar_cw = [encoder.encode_codeword(m) for m in messages[:scalar_pages]]
    scalar_encode_s = time.perf_counter() - start
    start = time.perf_counter()
    codewords = encoder.encode_codeword_batch(messages)
    batch_encode_s = time.perf_counter() - start
    assert codewords[:scalar_pages] == scalar_cw, "encode mismatch"

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

    rows = []
    speedups = {}
    rows.append({
        "t": t, "population": "encode",
        "scalar_mb_s": _mb_s(scalar_pages, scalar_encode_s),
        "batch_mb_s": _mb_s(batch_pages, batch_encode_s),
    })
    speedups["encode"] = rows[-1]["batch_mb_s"] / rows[-1]["scalar_mb_s"]
    for name, words in populations.items():
        batch_decoder.decode_batch(words[:2])  # build tables / warm caches
        start = time.perf_counter()
        scalar_results = [
            scalar_decoder.decode(w) for w in words[:scalar_pages]
        ]
        scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        batch_results = batch_decoder.decode_batch(words)
        batch_s = time.perf_counter() - start
        for scalar_result, batch_result in zip(scalar_results, batch_results):
            assert scalar_result.data == batch_result.data, "decode mismatch"
            assert (scalar_result.error_positions
                    == batch_result.error_positions), "positions mismatch"
        rows.append({
            "t": t, "population": name,
            "scalar_mb_s": _mb_s(scalar_pages, scalar_s),
            "batch_mb_s": _mb_s(batch_pages, batch_s),
        })
        speedups[name] = rows[-1]["batch_mb_s"] / rows[-1]["scalar_mb_s"]
    return {"rows": rows, "speedups": speedups}


def run_benchmark(batch_pages: int = 64, scalar_pages: int = 8,
                  capabilities=CAPABILITIES) -> tuple[str, dict]:
    """Full sweep; returns (report text, speedups-by-t)."""
    rng = np.random.default_rng(20120312)
    lines = [
        f"ECC throughput, {PAGE_BYTES} B pages: encode per-page vs batch "
        "(one fold-table kernel),",
        "decode scalar (byte-serial reference) vs batch (vectorized kernels)",
        f"batch={batch_pages} pages, per-page/scalar sample={scalar_pages} "
        "pages",
        "",
        f"{'t':>4} {'population':>10} {'scalar MB/s':>12} "
        f"{'batch MB/s':>11} {'speedup':>8}",
    ]
    all_speedups = {}
    for t in capabilities:
        result = bench_capability(t, batch_pages, scalar_pages, rng)
        for row in result["rows"]:
            speedup = row["batch_mb_s"] / row["scalar_mb_s"]
            lines.append(
                f"{row['t']:>4} {row['population']:>10} "
                f"{row['scalar_mb_s']:>12.2f} {row['batch_mb_s']:>11.2f} "
                f"{speedup:>7.1f}x"
            )
        all_speedups[t] = result["speedups"]
    return "\n".join(lines) + "\n", all_speedups


def _save(text: str) -> None:
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "ecc_throughput.txt").write_text(text)
    print("\n" + text)


@pytest.mark.slow
def test_ecc_throughput(quick):
    """Record the perf trajectory and enforce the batch-datapath floors."""
    text, speedups = run_benchmark(batch_pages=16 if quick else 64)
    _save(text)
    assert speedups[65]["clean"] >= MIN_CLEAN_SPEEDUP, (
        f"clean-page decode speedup {speedups[65]['clean']:.1f}x "
        f"below the {MIN_CLEAN_SPEEDUP:.0f}x floor"
    )
    assert speedups[65]["errored"] >= MIN_ERRORED_SPEEDUP, (
        f"errored-page decode speedup {speedups[65]['errored']:.1f}x "
        f"below the {MIN_ERRORED_SPEEDUP:.0f}x floor"
    )


if __name__ == "__main__":
    report, speedups = run_benchmark(
        batch_pages=16 if "--quick" in sys.argv else 64
    )
    _save(report)
    ok = (
        speedups[65]["clean"] >= MIN_CLEAN_SPEEDUP
        and speedups[65]["errored"] >= MIN_ERRORED_SPEEDUP
    )
    print(f"t=65 floors ({MIN_CLEAN_SPEEDUP:.0f}x clean / "
          f"{MIN_ERRORED_SPEEDUP:.0f}x errored): {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
