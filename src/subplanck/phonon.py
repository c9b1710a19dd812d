"""Motional population statistics and blue-sideband Rabi reconstruction.

An excited-state trace P_e(t) is a population-weighted sum of sideband Rabi
oscillations with a collective decay envelope.  The trace is linear in the
populations, so recovering them is least squares on the probability simplex:
a convex problem with one global optimum, solved exactly by one
nonnegative least-squares call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
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
        for name in ("omega01", "gamma_decay", "lamb_dicke", "decay_exponent"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.omega01 > 0.0:
            raise ValueError("omega01 must be positive")
        if self.gamma_decay < 0.0:
            raise ValueError("gamma_decay must be nonnegative")
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, (int, np.integer)):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
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


def fit_populations(
    times: np.ndarray, p_excited: np.ndarray, model: RabiModel
) -> PopulationFit:
    """Reconstruct number populations from a sideband Rabi trace.

    Minimizes ||A p - y|| over the simplex (p >= 0, sum p = 1), where A is
    the design matrix, exactly.  On the simplex A p - y = (A - y 1^T) p =: M p,
    so one nonnegative least-squares solve of the lifted problem

        q* = argmin_{q >= 0} ||M q||^2 + (1^T q - 1)^2

    gives the optimum as p* = q* / sum q*: writing q = s p with p on the
    simplex, the objective is s^2 ||M p||^2 + (s - 1)^2, which for every
    s > 0 is minimized by the same p, the simplex optimum, and then by
    s = 1 / (1 + ||M p*||^2) > 0.  Needs finite data and at least 3 samples
    per population.
    """
    ts = np.asarray(times, dtype=float)
    pe = np.asarray(p_excited, dtype=float)
    if ts.ndim != 1 or ts.shape != pe.shape:
        raise InsufficientData("times and p_excited must be 1D arrays of equal length")
    if not (np.isfinite(ts).all() and np.isfinite(pe).all()):
        raise InsufficientData("trace holds non-finite values (nan or inf)")
    n_params = model.n_max + 1
    if ts.shape[0] < 3 * n_params:
        raise InsufficientData(
            f"{ts.shape[0]} samples cannot constrain {n_params} populations"
        )
    design = _design_matrix(model, ts)
    lifted = np.vstack((design - pe[:, None], np.ones(n_params)))
    rhs = np.zeros(ts.shape[0] + 1)
    rhs[-1] = 1.0
    q, _ = nnls(lifted, rhs)
    pops = q / q.sum()
    resid = design @ pops - pe
    rms = float(np.sqrt(np.mean(resid**2)))
    if rms > _DIVERGENCE_RMS:
        raise FitDiverged(f"best fit leaves residual RMS {rms:.3f}")
    return PopulationFit(
        distribution=phonon_stats(pops),
        residual_norm=float(np.linalg.norm(resid)),
        condition_number=float(np.linalg.cond(design)),
    )


def read_rabi_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load ``t_seconds,p_excited`` rows (header optional)."""
    return read_two_columns(path)
