"""UBER models (paper Eq. (1)), the required-t solver, and Monte Carlo.

Eq. (1) keeps only the dominant (t+1)-error pattern::

    UBER = C(n, t+1) * RBER^(t+1) * (1 - RBER)^(n - t - 1) / n

which is accurate when n*RBER is small compared to t and is what the paper
uses throughout (including its Fig. 7 t = 65 point, where the approximation
is already optimistic).  ``uber_exact`` provides the full binomial tail
P(errors > t)/n for comparison: close to Eq. (1) where errors are rare,
orders of magnitude above it once n*RBER exceeds t.  Only
``uber_exact`` calls ``scipy.stats``, so scipy's statistics package loads
on its first call, not with this module.

:func:`monte_carlo_uber` cross-checks both models against the *real*
codec: batches of random pages are encoded, corrupted at the target RBER
and decoded through the vectorized datapath, one chunk at a time.  Every
chunk draws its randomness from its own
:class:`numpy.random.SeedSequence` spawn, so a chunk's outcome depends
only on the seed, its position and its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import params as default_params
from repro.errors import CodeDesignError


def _log10_binomial(n: int, k: int) -> float:
    """log10 of the binomial coefficient C(n, k)."""
    if k < 0 or k > n:
        return -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(10)


def log10_uber_eq1(rber: float, n: int, t: int) -> float:
    """log10 of the paper's Eq. (1); -inf for RBER = 0."""
    if not 0.0 <= rber < 1.0:
        raise ValueError(f"RBER must be in [0, 1), got {rber}")
    if n <= t + 1:
        raise ValueError(f"codeword length {n} too short for t={t}")
    if rber == 0.0:
        return -math.inf
    log_c = _log10_binomial(n, t + 1)
    log_p = (t + 1) * math.log10(rber)
    log_q = (n - t - 1) * math.log1p(-rber) / math.log(10)
    return log_c + log_p + log_q - math.log10(n)


def uber_eq1(rber: float, n: int, t: int) -> float:
    """Paper Eq. (1) in linear scale (may underflow to 0.0 for tiny values)."""
    log_value = log10_uber_eq1(rber, n, t)
    if log_value == -math.inf:
        return 0.0
    return 10.0 ** log_value


def uber_exact(rber: float, n: int, t: int) -> float:
    """Exact binomial-tail UBER: P(#errors > t) / n.

    This treats every pattern with more than t errors as an uncorrectable
    page (the page-error-dominated regime the paper describes in section 1)
    and normalises per bit.
    """
    if not 0.0 <= rber < 1.0:
        raise ValueError(f"RBER must be in [0, 1), got {rber}")
    if rber == 0.0:
        return 0.0
    from scipy import stats

    return float(stats.binom.sf(t, n, rber)) / n


def required_t(
    rber: float,
    k: int = default_params.MESSAGE_BITS,
    m: int = default_params.GF_DEGREE,
    uber_target: float = default_params.UBER_TARGET,
    t_max: int = default_params.T_MAX,
    t_min: int = 1,
) -> int:
    """Smallest t meeting the UBER target at the given RBER (Eq. (1)).

    The codeword length grows with t (n = k + m*t), which the search
    accounts for.  Raises :class:`CodeDesignError` when even ``t_max`` is
    insufficient — the device is past its correctable lifetime.
    """
    if rber == 0.0:
        return t_min
    log_target = math.log10(uber_target)
    for t in range(t_min, t_max + 1):
        n = k + m * t
        # Eq. (1) is the P(exactly t+1 errors) term; below the mean error
        # count it vanishes spuriously, so only t on the tail branch
        # (t + 1 >= n * RBER) are valid design points.
        if t + 1 < n * rber:
            continue
        if log10_uber_eq1(rber, n, t) <= log_target:
            return t
    raise CodeDesignError(
        f"RBER {rber:.3e} cannot reach UBER {uber_target:.1e} with t <= {t_max}"
    )


def achieved_uber(
    rber: float,
    t: int,
    k: int = default_params.MESSAGE_BITS,
    m: int = default_params.GF_DEGREE,
) -> float:
    """UBER delivered by capability t at the given RBER (Eq. (1))."""
    return uber_eq1(rber, k + m * t, t)


def log10_achieved_uber(
    rber: float,
    t: int,
    k: int = default_params.MESSAGE_BITS,
    m: int = default_params.GF_DEGREE,
) -> float:
    """log10 of :func:`achieved_uber` (safe for deeply sub-underflow values)."""
    return log10_uber_eq1(rber, k + m * t, t)


# ---------------------------------------------------------------------------
# Monte-Carlo UBER through the real codec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McUberResult:
    """Aggregate outcome of one Monte-Carlo UBER run."""

    rber: float
    t: int
    n: int
    pages: int
    failed_pages: int
    injected_bits: int
    corrected_bits: int

    @property
    def page_failure_rate(self) -> float:
        """Fraction of pages the codec could not recover exactly."""
        return self.failed_pages / self.pages if self.pages else 0.0

    @property
    def uber(self) -> float:
        """MC estimate of the uncorrectable bit error rate (failures/bit)."""
        return self.failed_pages / (self.pages * self.n) if self.pages else 0.0


@lru_cache(maxsize=4)
def _mc_codec(k: int, m: int | None, t_max: int):
    """Codec cache (design tables are expensive to rebuild)."""
    from repro.bch.codec import AdaptiveBCHCodec

    return AdaptiveBCHCodec(k=k, t_max=t_max, m=m)


def _mc_uber_chunk(
    codec, t: int, pages: int, rber: float, seed_seq: np.random.SeedSequence
) -> tuple[int, int, int]:
    """One MC chunk: (failed_pages, injected_bits, corrected_bits).

    The chunk's :class:`~numpy.random.SeedSequence` fully determines its
    randomness.
    """
    spec = codec.spec_for(t)
    rng = np.random.default_rng(seed_seq)
    messages = [rng.bytes(codec.k // 8) for _ in range(pages)]
    codewords = codec.encode_batch(messages, t=t)
    word_bytes = len(codewords[0])
    raw = np.frombuffer(b"".join(codewords), dtype=np.uint8).reshape(
        pages, word_bytes
    ).copy()
    counts = rng.binomial(spec.n, rber, size=pages)
    for row, count in zip(raw, counts):
        if count == 0:
            continue
        positions = rng.choice(spec.n, size=count, replace=False)
        np.bitwise_xor.at(
            row, positions // 8, (0x80 >> (positions % 8)).astype(np.uint8)
        )
    results = codec.decode_batch([row.tobytes() for row in raw], t=t, strict=False)
    failed = sum(
        1
        for message, result in zip(messages, results)
        if not result.success or result.data != message
    )
    corrected = sum(r.corrected_bits for r in results if r.success)
    return failed, int(counts.sum()), corrected


def monte_carlo_uber(
    rber: float,
    t: int,
    pages: int,
    k: int = default_params.MESSAGE_BITS,
    m: int | None = None,
    seed: int = 0,
    chunk_pages: int = 64,
) -> McUberResult:
    """Monte-Carlo UBER of capability ``t`` at ``rber`` via the real codec.

    ``pages`` random pages are encoded, corrupted (binomial error counts
    at uniform distinct positions over the n-bit codeword) and decoded;
    a page counts as failed when the decoder gives up *or* miscorrects.
    The work is split into ceil(pages / chunk_pages) chunks, each seeded
    by one :class:`numpy.random.SeedSequence` spawn of ``seed``, and the
    per-chunk counters are summed.
    """
    if pages <= 0:
        raise ValueError("pages must be positive")
    if chunk_pages <= 0:
        raise ValueError("chunk_pages must be positive")
    sizes = [
        min(chunk_pages, pages - start)
        for start in range(0, pages, chunk_pages)
    ]
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    codec = _mc_codec(k, m, t)
    outcomes = [
        _mc_uber_chunk(codec, t, size, rber, child)
        for size, child in zip(sizes, seeds)
    ]
    failed, injected, corrected = map(sum, zip(*outcomes))
    return McUberResult(
        rber=rber,
        t=t,
        n=codec.spec_for(t).n,
        pages=pages,
        failed_pages=failed,
        injected_bits=injected,
        corrected_bits=corrected,
    )


def max_rber_for_t(
    t: int,
    k: int = default_params.MESSAGE_BITS,
    m: int = default_params.GF_DEGREE,
    uber_target: float = default_params.UBER_TARGET,
) -> float:
    """Largest RBER that capability t can cover at the UBER target.

    Solved by bisection on the monotone Eq. (1); used to calibrate the
    lifetime RBER curve so that the rated endurance lands exactly on
    t = T_MAX (DESIGN.md section 3).
    """
    n = k + m * t
    log_target = math.log10(uber_target)
    # Stay on the valid branch of Eq. (1): RBER <= (t + 1) / n, where the
    # formula is monotone increasing in RBER.
    lo, hi = 1e-12, (t + 1) / n
    if log10_uber_eq1(lo, n, t) > log_target:
        raise CodeDesignError(f"t={t} cannot meet the target even at RBER={lo}")
    if log10_uber_eq1(hi, n, t) <= log_target:
        return hi
    for _ in range(200):
        mid = math.sqrt(lo * hi)  # bisect in log space
        if log10_uber_eq1(mid, n, t) <= log_target:
            lo = mid
        else:
            hi = mid
    return lo
