"""Golden digests of the ISPP engine and the Monte-Carlo RBER estimate.

Each :meth:`IsppEngine.program_page` case hashes every array of the
:class:`IsppResult` (dtype, shape and bytes), its scalar fields, and
``repr(engine.rng.random())`` drawn after the call.  The last part pins
the random stream the engine shares with the CCI model and read noise:
a program that draws one normal more or fewer, or in another order,
moves it even when the result happens to agree.

The cases cover both algorithms at three ages on random pages, uniform
L1 and L3 pages, an all-erased page, a staircase whose pump ceiling
(16.5 V) is too low for the L3 and the slowest L2 cells, and a
six-pulse staircase that ends with cells still unverified.
:meth:`MonteCarloRber.estimate` is pinned by the ``repr`` of its
result, which also covers the per-level Gaussian tail integration.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.nand.ispp import IsppAlgorithm, IsppEngine, IsppResult, IsppSchedule
from repro.nand.program import PageProgrammer
from repro.nand.rber import MonteCarloRber

SV = IsppAlgorithm.SV
DV = IsppAlgorithm.DV
CELLS = 4096
ENGINE_SEED = 2012
TARGETS_SEED = 7

ARRAYS = (
    "vth",
    "pulse_vpp",
    "active_cells_per_pulse",
    "verifies_per_pulse",
    "preverifies_per_pulse",
    "deltas",
)
SCALARS = ("pulses", "verify_ops", "preverify_ops", "failed_cells")

TARGETS = {
    "random": lambda: np.random.default_rng(TARGETS_SEED).integers(0, 4, CELLS),
    "L1": lambda: np.full(CELLS, 1, dtype=np.int64),
    "L3": lambda: np.full(CELLS, 3, dtype=np.int64),
    "erased": lambda: np.zeros(CELLS, dtype=np.int64),
}
SCHEDULES = {
    "default": {},
    "stall": {"vpp_end": 16.5},
    "exhaust": {"max_pulses": 6},
}

#: case id -> (algorithm, P/E cycles, targets, schedule)
CASES = {
    "sv-random-pe0": (SV, 0.0, "random", "default"),
    "sv-random-pe1e3": (SV, 1e3, "random", "default"),
    "sv-random-pe1e5": (SV, 1e5, "random", "default"),
    "dv-random-pe0": (DV, 0.0, "random", "default"),
    "dv-random-pe1e3": (DV, 1e3, "random", "default"),
    "dv-random-pe1e5": (DV, 1e5, "random", "default"),
    "sv-L1": (SV, 0.0, "L1", "default"),
    "dv-L1": (DV, 0.0, "L1", "default"),
    "sv-L3": (SV, 0.0, "L3", "default"),
    "dv-L3": (DV, 0.0, "L3", "default"),
    "erased": (SV, 0.0, "erased", "default"),
    "sv-stall": (SV, 0.0, "random", "stall"),
    "dv-stall": (DV, 0.0, "random", "stall"),
    "sv-exhaust": (SV, 0.0, "random", "exhaust"),
    "dv-exhaust": (DV, 0.0, "random", "exhaust"),
}

#: sha256 per case; the comments give pulses and failed cells.
GOLDEN = {
    "sv-random-pe0":  # 18, 0
        "a6434920edcccc5387126d39d2954974ad5d02782672f16b0ad542925dcd3cbe",
    "sv-random-pe1e3":  # 18, 0
        "5179e23fbd01a6af0c4af5e4d7ce4d01b571e9db484191518fb4b7433fe970eb",
    "sv-random-pe1e5":  # 18, 0
        "2a74971e01e2804ae3352de8424c01a49ade0db590196002346755ac4f3f9ff2",
    "dv-random-pe0":  # 21, 0
        "56b5449e15be6ef3596606528556a13a08cbdc5bc1f0adf6c506fc69c32dac74",
    "dv-random-pe1e3":  # 20, 0
        "450b0d0d0994c469166ae91dbf0bcc5efd9222759ed5f8646e312e4214531a41",
    "dv-random-pe1e5":  # 23, 0
        "5a686c431974e3072ca3403f8f63f41bf5890b56257b16e61d3416f494960dc6",
    "sv-L1":  # 9, 0
        "a862d8ace558cfb1b863a838ad129c3a791273a096d4d35b836cc2830473074c",
    "dv-L1":  # 12, 0
        "1dfe8d288de737afed1a49540e9fc498cc433ba0a6325aa48450e0e26e2e4737",
    "sv-L3":  # 19, 0
        "0267e68e165f258f5e5854c1cf1e83cf94333e204c209cea1722cd8fa7aeb050",
    "dv-L3":  # 22, 0
        "f3033e87f777e87b3abdcd3d43cdb45aaf4b1f0e434c6e8871b12049abb439df",
    "erased":  # 0, 0
        "6d676eb1c113b9d4759b0d681af0878a3cd4b32907a7e3e05af7b41de0968eb5",
    "sv-stall":  # 21, 1344
        "19e86ce9690e612d980bc776b63a4d2683d00c4328bf04a520afa67cce394296",
    "dv-stall":  # 23, 1099
        "2607e13ffaa91cd5e4f7c0d3edf2956d364b9a6a83327dc403faf0fc8ce9f14d",
    "sv-exhaust":  # 6, 2493
        "324d8cecbcdb737789dc0fa5395bfdfc577824abbb7a7c1d13c068af79c32f5b",
    "dv-exhaust":  # 6, 3028
        "6787e14d77799105280ae0efd121c12a37b9038580fe790f9eda3bb56c558638",
}

#: case id -> (P/E cycles, algorithm, retention hours)
RBER_CASES = {
    "sv-pe1e2": (1e2, SV, 0.0),
    "dv-pe1e5": (1e5, DV, 0.0),
    "sv-pe1e4-ret5e3": (1e4, SV, 5e3),
}

#: sha256 of ``repr(estimate)`` per case.
RBER_GOLDEN = {
    "sv-pe1e2":
        "026e895593201c0e9d54d198cf74d0b87696f749d4111aee2438fa42ea428994",
    "dv-pe1e5":
        "fc23ea48733e454125acb23a2f692ad6a0adfc9c4f39d865af67248a43e97f73",
    "sv-pe1e4-ret5e3":
        "9ec3a199dddc45f022e958b02b97132be474ae43af4edbec086ba7aa240a4d20",
}


def run_case(case: str) -> tuple[IsppResult, IsppEngine]:
    algorithm, pe_cycles, targets, schedule = CASES[case]
    engine = IsppEngine(
        schedule=IsppSchedule(**SCHEDULES[schedule]),
        rng=np.random.default_rng(ENGINE_SEED),
    )
    return engine.program_page(TARGETS[targets](), algorithm, pe_cycles), engine


def ispp_digest(result: IsppResult, engine: IsppEngine) -> str:
    digest = hashlib.sha256()
    for name in ARRAYS:
        array = getattr(result, name)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    for name in SCALARS:
        digest.update(f"{name}={getattr(result, name)!r}".encode())
    digest.update(repr(engine.rng.random()).encode())
    return digest.hexdigest()


def rber_digest(case: str) -> str:
    pe_cycles, algorithm, retention_h = RBER_CASES[case]
    estimator = MonteCarloRber(PageProgrammer(seed=ENGINE_SEED))
    estimate = estimator.estimate(pe_cycles, algorithm, retention_h=retention_h)
    return hashlib.sha256(repr(estimate).encode()).hexdigest()


def test_digest_covers_every_result_field():
    names = {field.name for field in dataclasses.fields(IsppResult)}
    assert names == set(ARRAYS) | set(SCALARS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_page_matches_golden(case):
    result, engine = run_case(case)
    assert ispp_digest(result, engine) == GOLDEN[case], case


@pytest.mark.parametrize("case", sorted(RBER_CASES))
def test_monte_carlo_rber_matches_golden(case):
    assert rber_digest(case) == RBER_GOLDEN[case], case
