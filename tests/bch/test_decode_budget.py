"""Counted cost budget of the batch BCH decoder.

A wall-clock speed-up needs a second implementation to divide by, and a
ratio is noisy on shared runners.  This test counts instead, the way
``tests/ssd/test_cost_budget.py`` counts the DES.  During one
:meth:`BCHDecoder.decode_batch` call it counts

* ``calls`` — Python-level calls into ``src/repro`` (``sys.setprofile``
  ``"call"`` events).  Code names starting with ``<`` (comprehensions,
  generator expressions, lambdas) are skipped, so comprehension
  inlining (PEP 709, Python 3.12) cannot move the count;
* ``c_calls`` — calls into C functions (numpy kernels, builtins) made
  from ``src/repro`` frames (``"c_call"`` events).

Two populations of 16 page-sized words at t = 65 are decoded: ``clean``
codewords, which all leave at the syndrome stage, and ``errored`` words
carrying 32 bit errors each, which all run Berlekamp-Massey and the
Chien search.  Each population is counted on its second decode, so the
shared code tables are built and test order cannot change a number,
with the cyclic garbage collector off (after a full collection).

The counts are exact on a given Python version, so each budget is a
committed integer.  A count over budget fails and names the population
and the counter.  A count under budget fails as stale: budgets only
ratchet down.  The budgets were taken on Python 3.11; every failure
message prints all the observed counts, so a different interpreter's
numbers can be read off a failing run.
"""

from __future__ import annotations

import gc
import os
import sys

import numpy as np

import repro
from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from tests.conftest import flip_bits

SRC_DIR = os.path.dirname(repro.__file__) + os.sep
COUNTERS = ("calls", "c_calls")
WORDS = 16
ERRORS = 32

#: Exact counts per population; see the module docstring for the ratchet.
BUDGETS = {
    "clean": {"calls": 39, "c_calls": 72},
    "errored": {"calls": 319, "c_calls": 1846},
}


def count_decode(decoder: BCHDecoder, words: list[bytes]) -> dict[str, int]:
    """Decode ``words`` once; count the calls made inside the decoder."""
    counts = dict.fromkeys(COUNTERS, 0)

    def profile(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(SRC_DIR):
            return
        if event == "call" and not code.co_name.startswith("<"):
            counts["calls"] += 1
        elif event == "c_call":
            counts["c_calls"] += 1

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        decoder.decode_batch(words)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return counts


def _populations() -> tuple[BCHDecoder, dict[str, list[bytes]]]:
    spec = design_code(32768, 65)
    encoder = BCHEncoder(spec)
    rng = np.random.default_rng(2012)
    clean = encoder.encode_codeword_batch(
        [rng.bytes(spec.k // 8) for _ in range(WORDS)]
    )
    errored = [
        flip_bits(
            word,
            rng.choice(spec.n_stored, size=ERRORS, replace=False).tolist(),
        )
        for word in clean
    ]
    return BCHDecoder(spec), {"clean": clean, "errored": errored}


def test_decode_counts_match_budget():
    decoder, populations = _populations()
    observed = {}
    for name, words in populations.items():
        results = decoder.decode_batch(words)  # also warms the tables
        if name == "clean":
            assert all(result.early_exit for result in results)
        else:
            assert all(result.corrected_bits == ERRORS for result in results)
        observed[name] = count_decode(decoder, words)
    over = [
        f"{name} {counter} {observed[name][counter]} > {budget[counter]}"
        for name, budget in BUDGETS.items()
        for counter in COUNTERS
        if observed[name][counter] > budget[counter]
    ]
    stale = [
        f"{name} {counter} {observed[name][counter]} < {budget[counter]}"
        for name, budget in BUDGETS.items()
        for counter in COUNTERS
        if observed[name][counter] < budget[counter]
    ]
    assert not over, f"over budget: {', '.join(over)} (observed {observed})"
    assert not stale, (
        f"stale budget, ratchet it down: {', '.join(stale)} "
        f"(observed {observed})"
    )
