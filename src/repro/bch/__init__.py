"""Adaptive BCH error-correcting codec (paper section 4).

A working binary BCH codec over GF(2^m) with runtime-programmable
correction capability t, plus a cycle-accurate structural hardware model of
the Chen-style programmable-LFSR architecture the paper instantiates:

* :mod:`repro.bch.params` — code design (n, k, t, generator polynomial),
  memoized at module level;
* :mod:`repro.bch.encoder` — systematic encoder: one fold-table
  remainder kernel behind every encode call;
* :mod:`repro.bch.syndrome` / :mod:`berlekamp` / :mod:`chien` — the three
  decoding stages of Fig. 2;
* :mod:`repro.bch.codec` — the adaptive codec with its polynomial ROM;
* :mod:`repro.bch.uber` — Eq. (1) UBER model and required-t solver;
* :mod:`repro.bch.hardware` — encode/decode latency and area models.

Fast-path design (the vectorized batch datapath)
------------------------------------------------

The throughput-oriented datapath mirrors how real controllers push pages
through a wide ECC engine instead of streaming bits:

* **Encoder**: one fold-table remainder kernel computes
  ``m(x) * x^r mod g`` for a single page and a whole batch alike.  Each
  step folds the r-bit state into the next 1 KiB block of every message
  and reduces the block's 2048 nibbles with one ``np.take`` gather from
  a shared ``(ceil(r/64), 32768)`` uint64 table and an XOR-reduction
  (CRC slicing widened to 1 KiB per step).
* **Syndromes**: the same kernel reduces every received word's message
  bytes mod g; XOR-ing in the received parity gives a remainder D
  congruent to the word, so S_i = D(alpha^i).  Clean words (D = 0) stop
  there; the others evaluate D's parity-width bits against a small power
  table.  Even syndromes are filled one power of two at a time by
  vectorized squarings (S_2i = S_i^2).
* **Decoder**: ``decode_batch`` computes all syndromes in one vectorized
  pass and applies the all-zero-syndrome early exit across the batch, so
  clean pages never reach Berlekamp-Massey; errored words run a
  degree-tracked inversionless BM and a two-pass Chien search (uint8
  low-byte screen over all positions, exact evaluation at the ~n/256
  surviving candidates).

Batch API contract: ``encode_batch``/``decode_batch`` (on
:class:`BCHEncoder`, :class:`BCHDecoder` and :class:`AdaptiveBCHCodec`)
take a sequence of equal-length words at one capability and return
per-word results, including permissive-mode failures and telemetry.
There is no second datapath: the per-word ``encode``/``decode`` run the
same kernels on one word.  The kernels are tested against definitions,
not against a parallel implementation: encoder output against the
long-division ``poly2_mod(m << r, g)``, syndromes against Horner
evaluation (``repro.bch.reference.naive_syndromes``) and the syndromes
of the injected error pattern, decodes against the injected positions.
``tests/bch/test_decode_budget.py`` pins the decoder's counted cost,
and ``benchmarks/bench_ecc_throughput.py`` reports per-page against
batch throughput.
"""

from repro.bch.params import BCHCodeSpec, design_code
from repro.bch.encoder import BCHEncoder
from repro.bch.decoder import BCHDecoder, DecodeResult
from repro.bch.codec import AdaptiveBCHCodec, CodecObservation
from repro.bch.uber import (
    log10_uber_eq1,
    required_t,
    uber_eq1,
    uber_exact,
)
from repro.bch.hardware import (
    DecodeLatencyBreakdown,
    EccLatencyModel,
    chien_parallelism,
)

__all__ = [
    "BCHCodeSpec",
    "design_code",
    "BCHEncoder",
    "BCHDecoder",
    "DecodeResult",
    "AdaptiveBCHCodec",
    "CodecObservation",
    "uber_eq1",
    "log10_uber_eq1",
    "uber_exact",
    "required_t",
    "EccLatencyModel",
    "DecodeLatencyBreakdown",
    "chien_parallelism",
]
