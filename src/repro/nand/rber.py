"""Raw bit error rate models (paper Fig. 5).

Two tiers:

* :class:`LifetimeRberModel` — the canonical analytic lifetime curve used by
  every trade-off bench.  Anchored to the paper's own checkpoints: the
  fresh ISPP-SV RBER is ~1e-5, the rated-endurance (1e5 cycles) ISPP-SV
  RBER is exactly the largest RBER the t = 65 code covers at UBER 1e-11
  (~1e-3, the right edge of Fig. 7), and ISPP-DV sits one order of
  magnitude below (Fig. 5), which lands its end-of-life at the paper's
  t = 14.

* :class:`MonteCarloRber` — physics-based estimate from the ISPP
  Monte-Carlo: programs sample pages, fits per-level Gaussians (with the
  aging read-instability added) and integrates the sensing-margin tails.
  Validates the analytic curve; see ``tests/nand/test_rber_calibration.py``.
  It is the package's one user of ``scipy.special`` (``ndtr``), which it
  imports when it is built, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import params as canon
from repro.bch.uber import max_rber_for_t
from repro.errors import ConfigurationError
from repro.nand.ispp import IsppAlgorithm
from repro.nand.levels import GRAY_MAP, MlcLevels
from repro.nand.program import PageProgrammer
from repro.nand.retention import RetentionModel


class LifetimeRberModel:
    """Canonical RBER(P/E cycles, algorithm) lifetime curves.

    RBER_SV(N) = floor + amplitude * (N / n_ref)^exponent, with the
    amplitude calibrated so required_t(RBER_SV(n_ref)) == t_max;
    RBER_DV(N) = RBER_SV(N) / dv_ratio (the Fig. 5 order-of-magnitude gap).
    """

    def __init__(
        self,
        floor_sv: float = 1e-5,
        exponent: float = 0.8,
        dv_ratio: float = 12.5,
        n_ref: float = canon.RATED_PE_CYCLES,
        t_max: int = canon.T_MAX,
        uber_target: float = canon.UBER_TARGET,
        safety: float = 0.995,
    ):
        if floor_sv <= 0 or exponent <= 0 or dv_ratio <= 1:
            raise ConfigurationError("invalid lifetime model parameters")
        self.floor_sv = floor_sv
        self.exponent = exponent
        self.dv_ratio = dv_ratio
        self.n_ref = n_ref
        eol = max_rber_for_t(t_max, uber_target=uber_target) * safety
        if eol <= floor_sv:
            raise ConfigurationError("end-of-life RBER below the fresh floor")
        self.amplitude = eol - floor_sv

    def rber_sv(self, pe_cycles: float) -> float:
        """ISPP-SV raw bit error rate after ``pe_cycles`` cycles."""
        if pe_cycles < 0:
            raise ConfigurationError("cycle count must be non-negative")
        return self.floor_sv + self.amplitude * (pe_cycles / self.n_ref) ** self.exponent

    def rber_dv(self, pe_cycles: float) -> float:
        """ISPP-DV raw bit error rate (one order of magnitude below SV)."""
        return self.rber_sv(pe_cycles) / self.dv_ratio

    def rber(self, algorithm: IsppAlgorithm, pe_cycles: float) -> float:
        """RBER for the selected program algorithm."""
        if algorithm is IsppAlgorithm.SV:
            return self.rber_sv(pe_cycles)
        return self.rber_dv(pe_cycles)

    def rber_batch(
        self, pe_cycles: np.ndarray, dv: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized lifetime curve for a batch of pages.

        ``pe_cycles`` holds each page's block wear; ``dv`` (optional bool
        mask) marks pages programmed with ISPP-DV, which sit ``dv_ratio``
        below the SV curve.  Matches the scalar :meth:`rber` elementwise.
        """
        cycles = np.asarray(pe_cycles, dtype=float)
        if (cycles < 0).any():
            raise ConfigurationError("cycle count must be non-negative")
        sv = self.floor_sv + self.amplitude * (cycles / self.n_ref) ** self.exponent
        if dv is None:
            return sv
        return np.where(np.asarray(dv, dtype=bool), sv / self.dv_ratio, sv)

    def lifetime_grid(self, start: float = 1.0, stop: float | None = None,
                      points: int = 26) -> np.ndarray:
        """Log-spaced P/E cycle grid for lifetime sweeps."""
        stop = stop or self.n_ref
        return np.logspace(math.log10(start), math.log10(stop), points)


@dataclass(frozen=True)
class RberEstimate:
    """Monte-Carlo RBER estimate with its building blocks."""

    rber: float
    tail_rber: float
    outlier_rber: float
    cells: int
    level_sigmas: tuple[float, ...]


class MonteCarloRber:
    """Physics-based RBER from the ISPP Monte-Carlo simulation.

    Programs random-data pages, then integrates per-level Gaussian tails
    against the read thresholds (with aging instability folded into the
    per-level sigma).  Gross outliers — program failures, interference
    victims beyond 4.5 sigma — are counted empirically to avoid corrupting
    the Gaussian fits.
    """

    def __init__(self, programmer: PageProgrammer | None = None):
        from scipy.special import ndtr

        self.programmer = programmer or PageProgrammer()
        self._ndtr = ndtr

    def estimate(
        self,
        pe_cycles: float,
        algorithm: IsppAlgorithm = IsppAlgorithm.SV,
        n_cells: int = 16384,
        pages: int = 2,
        retention_h: float = 0.0,
    ) -> RberEstimate:
        """Estimate RBER at the given age for one program algorithm.

        ``retention_h`` adds storage-time charge loss on top of cycling
        (see :mod:`repro.nand.retention`): programmed levels drift down and
        broaden, eroding the lower sensing margins first.
        """
        plan: MlcLevels = self.programmer.levels
        sigma_inst = self.programmer.engine.aging.sigma_instability(pe_cycles)
        gray = np.asarray(GRAY_MAP, dtype=np.int64)
        retention_mean = 0.0
        retention_sigma = 0.0
        if retention_h > 0.0:
            retention = RetentionModel()
            retention_mean = retention.mean_shift(retention_h, pe_cycles)
            retention_sigma = retention.sigma(retention_h, pe_cycles)

        # Sensing boundaries per level: (threshold, direction, bad_bits).
        boundaries = {
            0: [(plan.read[0], +1, 1)],
            1: [(plan.read[0], -1, 1), (plan.read[1], +1, 1)],
            2: [(plan.read[1], -1, 1), (plan.read[2], +1, 1)],
            3: [(plan.read[2], -1, 1), (plan.over_program, +1, 2)],
        }

        # One fused ISPP pass programs all pages (batched Monte-Carlo
        # feed); the per-page, per-level Gaussian fits below slice it back.
        outcome = self.programmer.program_random_pages(
            n_cells, pages, algorithm, pe_cycles
        )
        tail_err_bits = 0.0
        outlier_err_bits = 0.0
        total_bits = 2 * n_cells * pages
        sigmas = []
        for page in range(pages):
            cells = slice(page * n_cells, (page + 1) * n_cells)
            page_levels = outcome.levels[cells]
            page_vth = outcome.vth[cells]
            for level in range(4):
                mask = page_levels == level
                values = page_vth[mask]
                if values.size < 8:
                    continue
                mean = float(values.mean())
                sigma = float(values.std(ddof=1))
                inliers = np.abs(values - mean) <= 4.5 * max(sigma, 1e-6)
                clean = values[inliers]
                mean = float(clean.mean())
                sigma = math.sqrt(float(clean.var(ddof=1)) + sigma_inst**2)
                if level > 0:  # retention drains programmed cells only
                    mean += retention_mean
                    sigma = math.sqrt(sigma**2 + retention_sigma**2)
                sigmas.append(sigma)
                # Gaussian tail contribution of the inlier population.
                for threshold, direction, bad_bits in boundaries[level]:
                    z = direction * (threshold - mean) / sigma
                    # Upper Gaussian tail, norm.sf(z) == ndtr(-z).
                    tail_err_bits += clean.size * bad_bits * float(self._ndtr(-z))
                # Empirical contribution of gross outliers.
                outliers = values[~inliers]
                if outliers.size:
                    read_levels = plan.classify(outliers)
                    diff = gray[level] ^ gray[read_levels]
                    outlier_err_bits += float(
                        np.sum((diff >> 1) & 1) + np.sum(diff & 1)
                    )

        tail = tail_err_bits / total_bits
        outlier = outlier_err_bits / total_bits
        return RberEstimate(
            rber=tail + outlier,
            tail_rber=tail,
            outlier_rber=outlier,
            cells=pages * n_cells,
            level_sigmas=tuple(sigmas),
        )

    def empirical(
        self,
        pe_cycles: float,
        algorithm: IsppAlgorithm = IsppAlgorithm.SV,
        n_cells: int = 16384,
        pages: int = 4,
    ) -> float:
        """Direct error counting (meaningful only when RBER * bits >> 1)."""
        outcome = self.programmer.program_random_pages(
            n_cells, pages, algorithm, pe_cycles
        )
        return self.programmer.count_bit_errors(outcome) / (2 * n_cells * pages)
