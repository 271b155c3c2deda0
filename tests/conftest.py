"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bch.params import BCHCodeSpec, design_code
from repro.gf.field import GF2m, get_field
from repro.gf.poly2 import poly2_mod
from repro.nand.program import PageProgrammer


@pytest.fixture(scope="session")
def gf16() -> GF2m:
    """GF(2^4): small enough for exhaustive checks."""
    return get_field(4)


@pytest.fixture(scope="session")
def gf256() -> GF2m:
    """GF(2^8)."""
    return get_field(8)


@pytest.fixture(scope="session")
def small_spec() -> BCHCodeSpec:
    """A small code for fast decode round-trips: k = 64, t = 3."""
    return design_code(64, 3)


@pytest.fixture(scope="session")
def medium_spec() -> BCHCodeSpec:
    """A medium code: k = 1024 bits, t = 8."""
    return design_code(1024, 8)


@pytest.fixture(scope="session")
def page_spec() -> BCHCodeSpec:
    """The paper's page-sized code at a moderate capability."""
    return design_code(32768, 8)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def programmer(rng: np.random.Generator) -> PageProgrammer:
    """Page programmer with a deterministic RNG."""
    return PageProgrammer(rng=rng)


def stored_parity_by_definition(spec: BCHCodeSpec, message: bytes) -> bytes:
    """Stored parity bytes ``(m(x) * x^r mod g) << pad_bits`` by long
    division."""
    value = int.from_bytes(message, "big") << spec.r
    parity = poly2_mod(value, spec.generator) << spec.pad_bits
    return parity.to_bytes(spec.parity_bytes, "big")


def flip_bits(codeword: bytes, positions: list[int]) -> bytes:
    """Return a copy of ``codeword`` with the given bit positions flipped."""
    corrupted = bytearray(codeword)
    for pos in positions:
        corrupted[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(corrupted)
