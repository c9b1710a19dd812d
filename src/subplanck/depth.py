"""Robustness of nonclassical signatures against thermal occupation.

Thermalization is the Gaussian-displacement channel with mean occupation
``nbar``: a Gaussian blur of variance ``nbar`` on quadrature densities, and
on number statistics loss followed by quantum-limited gain, a finite sum.
Each witness here (distillable squeezing, Wigner negativity at the origin,
sub-Poissonian number statistics) vanishes at some occupation: squeezing
by bisection, the other two at closed-form occupations.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .density import GridSpec
from .distill import (
    GROUND_VARIANCE,
    DistillConfig,
    asymptotic_variance,
    quantify,
)
from .errors import (
    CutoffTooSmall,
    NoRootInBracket,
    NoSqueezingAtZero,
    PreconditionError,
)
from .phonon import PhononDistribution, phonon_stats
from .states import StateSpec, realize

__all__ = [
    "DepthResult",
    "subplanck_depth",
    "thermal_fock_wigner_origin",
    "wigner_negativity_depth",
    "thermal_fock_number_distribution",
    "fano_depth",
]

_SUBPLANCK_BRACKET = (0.0, 2.0)
_SUBPLANCK_TOL = 1e-3


@dataclass(frozen=True)
class DepthResult:
    """Occupation at which a witness crosses its classical threshold."""

    nbar_star: float
    bracket: tuple[float, float]
    witness: str
    iterations: int

    def to_dict(self) -> dict:
        return {
            "witness": self.witness,
            "nbar_star": self.nbar_star,
            "bracket_lo": self.bracket[0],
            "bracket_hi": self.bracket[1],
            "iterations": self.iterations,
        }


def _bisect(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float):
    """Plain bisection; returns (root, (lo, hi), iterations)."""
    if not f_lo * f_hi < 0.0:
        raise NoRootInBracket(f"no sign change on [{lo}, {hi}]")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        iterations += 1
        if f_mid == 0.0:
            lo = hi = mid
            break
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi), (lo, hi), iterations


def subplanck_depth(
    spec: StateSpec,
    cfg: DistillConfig | None = None,
    asymptotic: bool = False,
    grid: GridSpec | None = None,
) -> DepthResult:
    """Occupation at which distillable squeezing disappears.

    The witness is the minimal filtered variance at ``cfg.layers`` layers, or
    the many-copy variance limit when ``asymptotic`` is set.  Requires a
    state that is squeezable at zero occupation and classical by nbar = 2.
    Every occupation is realized on ``grid``, or on the state's default grid
    at that occupation when it is None.
    """
    if spec.thermal_nbar != 0.0:
        raise NoSqueezingAtZero("depth search needs a state specified at nbar = 0")
    cfg = cfg or DistillConfig()

    def witness(nbar: float) -> float:
        dens = realize(dataclasses.replace(spec, thermal_nbar=float(nbar)), grid)
        if asymptotic:
            return asymptotic_variance(dens) - GROUND_VARIANCE
        return quantify(dens, cfg).min_variance - GROUND_VARIANCE

    lo, hi = _SUBPLANCK_BRACKET
    w_lo = witness(lo)
    if w_lo >= 0.0:
        raise NoSqueezingAtZero(
            f"witness is already classical at nbar = 0 ({w_lo + GROUND_VARIANCE:.6f})"
        )
    w_hi = witness(hi)
    if w_hi <= 0.0:
        raise NoRootInBracket(f"witness still squeezed at nbar = {hi}")
    root, bracket, iterations = _bisect(witness, lo, hi, w_lo, w_hi, _SUBPLANCK_TOL)
    label = "subplanck-asymptotic" if asymptotic else f"subplanck-N{cfg.layers}"
    return DepthResult(root, bracket, label, iterations)


def thermal_fock_wigner_origin(n: int, nbar: float) -> float:
    """Wigner function at the phase-space origin of a thermalized number state.

    The isotropic Gaussian average of the displaced Fock Wigner function
    reduces to a Laplace transform of the Laguerre polynomial with the exact
    value (2/pi) (2 nbar - 1)^n / (1 + 2 nbar)^(n+1); evaluating that form
    keeps full precision through the n-fold zero at nbar = 1/2, where
    numerical quadrature drowns in roundoff.
    """
    if n < 0:
        raise ValueError("fock index must be nonnegative")
    if nbar < 0.0:
        raise ValueError("nbar must be nonnegative")
    return (2.0 / math.pi) * (2.0 * nbar - 1.0) ** n / (1.0 + 2.0 * nbar) ** (n + 1)


def wigner_negativity_depth(n: int) -> DepthResult:
    """Occupation washing out the origin Wigner negativity of fock ``n``.

    The origin value is proportional to (2 nbar - 1)^n (see
    :func:`thermal_fock_wigner_origin`), so it vanishes at nbar = 1/2 for
    every n: a sign change for odd n, a touch of zero for even n, where the
    negativity elsewhere in phase space vanishes at the same occupation.
    """
    if n < 1:
        raise PreconditionError("need a nonclassical fock state, n >= 1")
    return DepthResult(0.5, (0.5, 0.5), "wigner-negativity", 0)


def thermal_fock_number_distribution(
    n: int, nbar: float, cutoff: int | None = None
) -> PhononDistribution:
    """Number populations of fock ``n`` after the thermal displacement channel.

    The channel is loss at transmissivity 1/(1+nbar), then a quantum-limited
    amplifier of gain 1+nbar, so P(m) = sum_k C(n,k) C(m,k) nbar^(n+m-2k)
    / (1+nbar)^(n+m+1) over k <= min(n, m): positive terms, summed in logs.
    ``cutoff`` must leave a truncation deficit below 1e-8.
    """
    if n < 0:
        raise ValueError("fock index must be nonnegative")
    if nbar < 0.0:
        raise ValueError("nbar must be nonnegative")
    required = int(math.ceil(n + 10.0 * (1.0 + nbar)))
    if cutoff is None:
        # geometric tail ratio nbar/(1+nbar); 40 extra decades-of-e terms
        # keep the deficit below 1e-8 across the whole solver bracket
        cutoff = int(math.ceil(n + 40.0 * (1.0 + nbar)))
    if cutoff < required:
        raise CutoffTooSmall(f"cutoff {cutoff} below required {required}")
    pops = np.zeros(cutoff + 1)
    if nbar == 0.0:
        pops[n] = 1.0
        return phonon_stats(pops)
    ms = np.arange(cutoff + 1)
    log_fact = gammaln(ms + 1.0)
    log_nbar, log_gain = math.log(nbar), math.log1p(nbar)
    log_m = log_fact[n] + log_fact + (n + ms) * log_nbar - (n + ms + 1) * log_gain
    for k in range(n + 1):
        log_k = log_fact[n - k] + 2.0 * (log_fact[k] + k * log_nbar)
        pops[k:] += np.exp(log_m[k:] - log_k - log_fact[: cutoff + 1 - k])
    deficit = 1.0 - float(pops.sum())
    if deficit > 1e-8:
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves truncation deficit {deficit:.3e}"
        )
    return phonon_stats(pops / pops.sum())


def fano_depth(n: int) -> DepthResult:
    """Occupation at which the thermalized number statistics reach Fano = 1.

    The channel adds nbar to the mean, n + nbar, and gives the variance
    (2n + 1) nbar + nbar^2, so Fano = 1 where nbar^2 + 2n nbar - n = 0:
    nbar = sqrt(n^2 + n) - n, evaluated as n / (n + sqrt(n^2 + n)) to avoid
    cancellation.
    """
    if n < 1:
        raise PreconditionError("need a sub-Poissonian fock state, n >= 1")
    root = n / (n + math.sqrt(n * n + n))
    return DepthResult(root, (root, root), "fano", 0)
