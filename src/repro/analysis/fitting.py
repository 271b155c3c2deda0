"""Compact-model fitting against experimental ISPP data (paper Fig. 4).

The paper validates its compact NAND model by fitting the measured VTH
staircase of a 41 nm technology during an ISPP operation with 7 us pulses
and a 1 V step.  The silicon dataset (Spessot et al., IRPS 2010) is not
redistributable, so :func:`reference_ispp_dataset` regenerates an
equivalent measurement: a sub-threshold plateau followed by the linear
staircase, produced by a *different* functional form than the compact
model plus seeded measurement noise — so the fit below is a genuine
cross-model regression, not an identity.

The package imports this module only when an ``ExperimentSuite`` is
built, so ``scipy.optimize`` loads with the figure suite, not on
``import repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.nand.cell import CellParams, ispp_staircase


@dataclass(frozen=True)
class IsppDataset:
    """One measured ISPP staircase."""

    vcg: np.ndarray
    vth: np.ndarray
    pulse_width_s: float = 7e-6
    delta_v: float = 1.0


def reference_ispp_dataset(seed: int = 2010) -> IsppDataset:
    """Synthetic stand-in for the Fig. 4 experimental staircase.

    Generated from a hyperbolic soft-saturation transition (distinct from
    the compact model's exponential softplus) with 60 mV rms measurement
    noise; spans V_CG = 6..24 V and VTH = approximately -5 to +5.5 V like
    the paper's figure.
    """
    rng = np.random.default_rng(seed)
    vcg = np.arange(6.0, 24.0 + 1e-9, 1.0)
    vth0, onset = -5.0, 18.2
    # Hyperbolic smooth-max between the erased plateau and the staircase.
    linear = vcg - onset
    vth = 0.5 * (vth0 + linear + np.sqrt((linear - vth0) ** 2 + 1.8))
    vth = vth + rng.normal(0.0, 0.06, vcg.shape)
    return IsppDataset(vcg=vcg, vth=vth)


@dataclass(frozen=True)
class FitResult:
    """Outcome of the compact-model regression."""

    params: CellParams
    rmse: float
    residuals: np.ndarray
    predicted: np.ndarray
    dataset: IsppDataset

    @property
    def max_abs_error(self) -> float:
        """Worst-case deviation [V]."""
        return float(np.max(np.abs(self.residuals)))


def _simulate(dataset: IsppDataset, onset: float, softness: float,
              vth_initial: float) -> np.ndarray:
    params = CellParams(onset=onset, softness=softness, vth_initial=vth_initial)
    _, vth = ispp_staircase(
        params,
        vcg_start=float(dataset.vcg[0]),
        vcg_stop=float(dataset.vcg[-1]),
        delta=dataset.delta_v,
    )
    return vth


def fit_cell_model(
    dataset: IsppDataset | None = None,
    initial_guess: tuple[float, float, float] = (17.0, 0.7, -4.0),
) -> FitResult:
    """Least-squares fit of the compact cell model to a measured staircase.

    Free parameters: tunnelling onset, turn-on softness and the initial
    (erased) threshold — the three electrostatic knobs of
    :class:`repro.nand.cell.CellParams`.
    """
    dataset = dataset or reference_ispp_dataset()

    def residuals(x: np.ndarray) -> np.ndarray:
        return _simulate(dataset, x[0], x[1], x[2]) - dataset.vth

    solution = optimize.least_squares(
        residuals,
        x0=np.asarray(initial_guess),
        bounds=([10.0, 0.05, -8.0], [24.0, 5.0, -1.0]),
    )
    predicted = _simulate(dataset, *solution.x)
    resid = predicted - dataset.vth
    return FitResult(
        params=CellParams(
            onset=float(solution.x[0]),
            softness=float(solution.x[1]),
            vth_initial=float(solution.x[2]),
        ),
        rmse=float(np.sqrt(np.mean(resid**2))),
        residuals=resid,
        predicted=predicted,
        dataset=dataset,
    )
