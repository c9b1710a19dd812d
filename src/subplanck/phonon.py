"""Motional population statistics and blue-sideband Rabi reconstruction.

An excited-state trace P_e(t) is a population-weighted sum of sideband Rabi
oscillations with a collective decay envelope.  Populations are recovered by
simplex-constrained least squares; the constraint is enforced through a
softmax reparameterization so the solver itself stays unconstrained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import eval_genlaguerre

from .density import read_two_columns
from .errors import FitDiverged, InsufficientData, InvalidPopulations

__all__ = [
    "PhononDistribution",
    "RabiModel",
    "PopulationFit",
    "phonon_stats",
    "rabi_signal",
    "fit_populations",
    "read_rabi_csv",
]

# Residual RMS above this explains nothing about a trace bounded by [0, 1].
_DIVERGENCE_RMS = 0.15


@dataclass(frozen=True)
class PhononDistribution:
    """Normalized number populations with summary statistics.

    ``fano`` is undefined for the motional ground state (zero mean) and
    ``snr`` for zero variance; both are then ``None``.
    """

    populations: np.ndarray
    mean: float
    variance: float
    fano: float | None
    snr: float | None

    def __post_init__(self) -> None:
        self.populations.setflags(write=False)


@dataclass(frozen=True)
class RabiModel:
    """Blue-sideband response model.

    ``scaling='sqrt'`` uses the ideal sqrt(n+1) frequency ladder;
    ``scaling='lamb_dicke'`` uses the generalized-Laguerre matrix elements at
    ``lamb_dicke`` (exact outside the small-coupling regime).  The decay
    exponent on (n+1) is an empirical envelope parameter.  Invalid settings
    raise ``ValueError`` when the model is built.
    """

    omega01: float
    gamma_decay: float = 0.0
    n_max: int = 1
    scaling: str = "sqrt"
    lamb_dicke: float = 0.0
    decay_exponent: float = 0.7

    def __post_init__(self) -> None:
        if not self.omega01 > 0.0:
            raise ValueError("omega01 must be positive")
        if self.gamma_decay < 0.0:
            raise ValueError("gamma_decay must be nonnegative")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.scaling not in ("sqrt", "lamb_dicke"):
            raise ValueError("scaling must be 'sqrt' or 'lamb_dicke'")
        if self.scaling == "lamb_dicke" and not self.lamb_dicke > 0.0:
            raise ValueError("lamb_dicke scaling needs a positive parameter")


@dataclass(frozen=True)
class PopulationFit:
    """Population estimate plus fit diagnostics."""

    distribution: PhononDistribution
    residual_norm: float
    condition_number: float
    restarts: int


def check_populations(p: np.ndarray) -> np.ndarray:
    """Return ``p`` if it is a nonempty, nonnegative vector summing to 1."""
    if p.ndim != 1 or p.shape[0] == 0:
        raise InvalidPopulations("populations must be a nonempty 1D vector")
    if np.isnan(p).any() or np.any(p < 0.0):
        raise InvalidPopulations("populations must be nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidPopulations(f"populations sum to {total!r}, not 1")
    return p


def phonon_stats(populations: np.ndarray) -> PhononDistribution:
    """Summary statistics of a normalized population vector."""
    p = check_populations(np.asarray(populations, dtype=float))
    ns = np.arange(p.shape[0])
    mean = float(np.dot(ns, p))
    var = float(np.dot(ns * ns, p)) - mean * mean
    var = max(var, 0.0)
    fano = var / mean if mean > 0.0 else None
    snr = mean / math.sqrt(var) if var > 0.0 else None
    return PhononDistribution(p.copy(), mean, var, fano, snr)


def rabi_frequencies(model: RabiModel) -> np.ndarray:
    """Blue-sideband frequencies Omega_{n,n+1} for n = 0..n_max."""
    ns = np.arange(model.n_max + 1)
    if model.scaling == "sqrt":
        ratio = np.sqrt(ns + 1.0)
    else:
        eta2 = model.lamb_dicke**2
        # L_n^1(eta^2)/sqrt(n+1), normalized so n = 0 gives omega01 exactly
        ratio = eval_genlaguerre(ns, 1, eta2) / np.sqrt(ns + 1.0)
    return model.omega01 * ratio


def rabi_signal(
    populations: np.ndarray, model: RabiModel, t: np.ndarray | float
) -> np.ndarray | float:
    """Excited-state probability of the sideband trace at times ``t``."""
    p = np.asarray(populations, dtype=float)
    if p.shape[0] != model.n_max + 1:
        raise InvalidPopulations(
            f"expected {model.n_max + 1} populations, got {p.shape[0]}"
        )
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    signal = _design_matrix(model, ts) @ p
    if np.ndim(t) == 0:
        return float(signal[0])
    return signal


def _design_matrix(model: RabiModel, ts: np.ndarray) -> np.ndarray:
    """Per-population excited-state signal: rows are times, columns n."""
    omega = rabi_frequencies(model)
    ns = np.arange(model.n_max + 1)
    phases = 0.5 * omega[None, :] * ts[:, None]
    damp = np.exp(
        -model.gamma_decay * ts[:, None] * (ns[None, :] + 1.0) ** model.decay_exponent
    )
    return np.sin(phases) ** 2 * damp


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def fit_populations(
    times: np.ndarray,
    p_excited: np.ndarray,
    model: RabiModel,
    seed: int = 0,
    restarts: int = 8,
) -> PopulationFit:
    """Reconstruct number populations from a sideband Rabi trace.

    Least squares on softmax-parameterized populations (automatically
    nonnegative and normalized), started flat plus ``restarts`` seeded random
    starts; the best optimum wins.  Needs at least 3 samples per population.
    """
    ts = np.asarray(times, dtype=float)
    pe = np.asarray(p_excited, dtype=float)
    if ts.ndim != 1 or ts.shape != pe.shape:
        raise InsufficientData("times and p_excited must be 1D arrays of equal length")
    n_params = model.n_max + 1
    if ts.shape[0] < 3 * n_params:
        raise InsufficientData(
            f"{ts.shape[0]} samples cannot constrain {n_params} populations"
        )
    design = _design_matrix(model, ts)

    def residuals(z: np.ndarray) -> np.ndarray:
        return design @ _softmax(z) - pe

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n_params)]
    starts += [rng.normal(0.0, 2.0, n_params) for _ in range(restarts)]
    best_z: np.ndarray | None = None
    best_cost = math.inf
    for z0 in starts:
        sol = least_squares(
            residuals, z0, method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-12,
            max_nfev=4000,
        )
        if sol.cost < best_cost:
            best_cost = sol.cost
            best_z = sol.x
    assert best_z is not None
    resid = residuals(best_z)
    rms = float(np.sqrt(np.mean(resid**2)))
    if rms > _DIVERGENCE_RMS:
        raise FitDiverged(f"best fit leaves residual RMS {rms:.3f}")
    pops = _softmax(best_z)
    pops = pops / pops.sum()
    return PopulationFit(
        distribution=phonon_stats(pops),
        residual_norm=float(np.linalg.norm(resid)),
        condition_number=float(np.linalg.cond(design)),
        restarts=restarts,
    )


def read_rabi_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load ``t_seconds,p_excited`` rows (header optional)."""
    return read_two_columns(path)
