"""Incremental Step Pulse Programming — ISPP-SV and ISPP-DV (section 5).

Vectorized page-wide Monte-Carlo of the program operation:

* **coarse phase** — every active cell tracks the staircase asymptote
  ``V_PP - onset`` (one full ISPP step per pulse once in regime), with
  injection-granularity noise per pulse;
* **verify** — after each pulse the still-active levels are verified; cells
  at or above their verify level are program-inhibited.  The inhibit works
  on a compacted active set: a verified cell is dropped from the arrays
  the next pulse updates, so a pulse costs in proportion to the cells
  still being programmed, not to the page;
* **double verify (ISPP-DV)** — cells crossing the *pre-verify* level
  (VFY - offset) switch to a fine phase where the bitline bias attenuates
  the effective step to ``delta / attenuation``, compacting the final
  distribution (the overshoot past VFY shrinks by the same factor); each
  active level then costs two verify operations per pulse.

The engine records per-pulse activity (for the HV power model), verify
counts (for the timing model) and per-cell swings (for the CCI model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro import params as canon
from repro.errors import ConfigurationError, NandOperationError
from repro.nand.aging import AgingModel
from repro.nand.cci import CciModel
from repro.nand.levels import MlcLevels
from repro.nand.variability import VariabilityParams, VariabilitySampler


class IsppAlgorithm(enum.Enum):
    """Program algorithm selector (the paper's runtime-selectable knob)."""

    SV = "ispp-sv"
    DV = "ispp-dv"


@dataclass(frozen=True)
class IsppSchedule:
    """Voltage staircase parameters."""

    vpp_start: float = canon.VPP_START
    vpp_end: float = canon.VPP_END
    delta: float = canon.DELTA_ISPP
    dv_attenuation: float = canon.DV_STEP_ATTENUATION
    dv_preverify_offset: float = canon.DV_PREVERIFY_OFFSET
    max_pulses: int = 48

    def __post_init__(self) -> None:
        if self.vpp_end <= self.vpp_start:
            raise ConfigurationError("vpp_end must exceed vpp_start")
        if self.delta <= 0:
            raise ConfigurationError("ISPP step must be positive")
        if self.dv_attenuation <= 1:
            raise ConfigurationError("DV attenuation must exceed 1")
        if self.dv_preverify_offset <= 0:
            raise ConfigurationError("DV pre-verify offset must be positive")
        if self.max_pulses < 1:
            raise ConfigurationError("ISPP needs at least one program pulse")

    def vpp_at(self, pulse_index: int) -> float:
        """Gate voltage of the given pulse (clamped at the pump ceiling)."""
        return min(self.vpp_start + pulse_index * self.delta, self.vpp_end)


@dataclass
class IsppResult:
    """Outcome of one page program operation.

    Attributes
    ----------
    vth:
        Final per-cell threshold voltages (before interference/aging noise).
    pulses:
        Number of program pulses issued.
    verify_ops:
        Total verify operations over the whole operation.
    pulse_vpp:
        V_PP of each pulse (drives the program-pump power model).
    active_cells_per_pulse:
        Cells still being programmed at each pulse (pump load).
    verifies_per_pulse:
        Final-verify operations after each pulse (one per active level).
    preverifies_per_pulse:
        ISPP-DV pre-verify strobes after each pulse (a shorter sensing
        operation sharing the bitline precharge with the final verify).
    deltas:
        Total programmed VTH swing per cell (CCI aggressor amplitude).
    failed_cells:
        Cells that exhausted the staircase without reaching verify.
    """

    vth: np.ndarray
    pulses: int
    verify_ops: int
    preverify_ops: int
    pulse_vpp: np.ndarray
    active_cells_per_pulse: np.ndarray
    verifies_per_pulse: np.ndarray
    preverifies_per_pulse: np.ndarray
    deltas: np.ndarray
    failed_cells: int


class IsppEngine:
    """Page-wide ISPP simulator over a variability-sampled cell population."""

    def __init__(
        self,
        levels: MlcLevels | None = None,
        variability: VariabilityParams | None = None,
        aging: AgingModel | None = None,
        schedule: IsppSchedule | None = None,
        rng: np.random.Generator | None = None,
        seed: int = canon.DEFAULT_SEED,
    ):
        self.levels = levels or MlcLevels()
        self.variability = variability or VariabilityParams()
        self.aging = aging or AgingModel()
        self.schedule = schedule or IsppSchedule()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.sampler = VariabilitySampler(self.variability, self.rng)

    def program_page(
        self,
        target_levels: np.ndarray,
        algorithm: IsppAlgorithm = IsppAlgorithm.SV,
        pe_cycles: float = 0.0,
    ) -> IsppResult:
        """Program one page of cells to their target levels.

        Parameters
        ----------
        target_levels:
            Integer level per cell (0..3); level 0 cells stay erased.
        algorithm:
            ISPP-SV (single verify) or ISPP-DV (double verify).
        pe_cycles:
            Prior program/erase cycles (ages the cell population).
        """
        targets = np.asarray(target_levels, dtype=np.int64)
        if targets.ndim != 1:
            raise NandOperationError("target_levels must be one-dimensional")
        if targets.size == 0:
            raise NandOperationError("cannot program an empty page")
        if targets.min() < 0 or targets.max() > 3:
            raise NandOperationError("levels must be in 0..3")

        sched = self.schedule
        lv = self.levels
        n = targets.size

        onset = self.sampler.sample_onsets(n, self.aging.onset_shift(pe_cycles))
        vth = self.rng.normal(lv.erased_mean, lv.erased_sigma, n)
        vth_initial = vth.copy()

        dv = algorithm is IsppAlgorithm.DV
        fine_step = sched.delta / sched.dv_attenuation
        # DV verifies are offset so both algorithms centre each level at the
        # same mean: the SV overshoot averages delta/2, the DV fine-phase
        # overshoot averages fine_step/2.
        vfy_offset = (sched.delta - fine_step) / 2.0 if dv else 0.0

        # The active set: cells not yet verified, with their target level,
        # V_TH, onset, verify level and DV fine-phase flag.  Index order
        # fixes which cell each step_noise draw goes to.
        cells = np.flatnonzero(targets > 0)
        level = targets[cells]
        v = vth[cells]
        on = onset[cells]
        vfy = np.asarray(lv.verify, dtype=np.float64)[level - 1] + vfy_offset
        fine = np.zeros(cells.size, dtype=bool)
        gran_coeff = (
            self.variability.granularity_coeff
            * self.aging.granularity_growth(pe_cycles)
        )

        pulse_vpp: list[float] = []
        active_counts: list[int] = []
        verify_counts: list[int] = []
        preverify_counts: list[int] = []

        for k in range(sched.max_pulses):
            if not cells.size:
                break
            vpp = sched.vpp_at(k)
            pulse_vpp.append(vpp)
            active_counts.append(cells.size)

            # Coarse phase: track the staircase asymptote.
            coarse = ~fine
            max_coarse_step = 0.0
            if coarse.any():
                asymptote = vpp - on[coarse]
                old = v[coarse]
                new = np.maximum(old, asymptote)
                steps = new - old
                max_coarse_step = float(steps.max())
                new = new + self.sampler.step_noise(steps, coeff=gran_coeff)
                v[coarse] = np.maximum(old, new)

            # Fine phase (DV): bitline-attenuated constant steps.
            fine_active = bool(fine.any())
            if fine_active:
                steps = np.full(int(np.count_nonzero(fine)), fine_step)
                noisy = fine_step + self.sampler.step_noise(steps, coeff=gran_coeff)
                # Pulses only add charge: clip at zero net movement.
                v[fine] += np.maximum(noisy, 0.0)

            # Verify: one final verify per active level; ISPP-DV adds a
            # pre-verify strobe per active level (double verify).
            n_levels_active = int(
                np.count_nonzero(np.bincount(level, minlength=4)[1:])
            )
            verify_counts.append(n_levels_active)
            preverify_counts.append(n_levels_active if dv else 0)

            if dv:
                fine |= v >= vfy - sched.dv_preverify_offset
            reached = v >= vfy
            if reached.any():
                # Program inhibit: verified cells go back to the page and
                # leave the active set.
                vth[cells[reached]] = v[reached]
                keep = np.flatnonzero(~reached)
                cells, level, v, on, vfy, fine = (
                    a[keep] for a in (cells, level, v, on, vfy, fine)
                )

            # Stall break: the pump ceiling is reached and no coarse cell can
            # advance any further — remaining cells are program failures.
            if (
                vpp >= sched.vpp_end
                and max_coarse_step < 1e-6
                and not fine_active
                and cells.size
            ):
                break

        vth[cells] = v
        failed = cells.size
        return IsppResult(
            vth=vth,
            pulses=len(pulse_vpp),
            verify_ops=int(np.sum(verify_counts)),
            preverify_ops=int(np.sum(preverify_counts)),
            pulse_vpp=np.asarray(pulse_vpp),
            active_cells_per_pulse=np.asarray(active_counts, dtype=np.int64),
            verifies_per_pulse=np.asarray(verify_counts, dtype=np.int64),
            preverifies_per_pulse=np.asarray(preverify_counts, dtype=np.int64),
            deltas=vth - vth_initial,
            failed_cells=failed,
        )

    def read_noise(self, n_cells: int, pe_cycles: float) -> np.ndarray:
        """Read-time VTH instability sample (aging-dependent, section 5.1)."""
        sigma = self.aging.sigma_instability(pe_cycles)
        return self.rng.normal(0.0, sigma, n_cells)

    def apply_cci(self, result: IsppResult, cci: CciModel | None = None) -> np.ndarray:
        """Apply cell-to-cell interference to a program result."""
        model = cci or CciModel(rng=self.rng)
        return model.apply(result.vth, result.deltas)
