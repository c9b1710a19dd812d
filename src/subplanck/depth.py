"""Robustness of nonclassical signatures against thermal occupation.

Thermalization is the Gaussian-displacement channel with mean occupation
``nbar``; on quadrature densities it acts as a Gaussian blur of variance
``nbar``.  Each witness here (distillable squeezing, Wigner negativity at
the origin, sub-Poissonian number statistics) vanishes at some occupation,
and the solvers localize that point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .density import GridSpec
from .distill import (
    GROUND_VARIANCE,
    DistillConfig,
    asymptotic_variance,
    golden_section,
    quantify,
)
from .errors import (
    CutoffTooSmall,
    NoRootInBracket,
    NoSqueezingAtZero,
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
_WIGNER_TOL = 1e-6
_FANO_TOL = 1e-4


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
    if nbar == 0.0:
        return (2.0 / math.pi) * (-1.0) ** n
    return (2.0 / math.pi) * (2.0 * nbar - 1.0) ** n / (1.0 + 2.0 * nbar) ** (n + 1)


def wigner_negativity_depth(n: int) -> DepthResult:
    """Occupation washing out the origin Wigner negativity of fock ``n``.

    Odd n: the origin value changes sign, located by bisection.  Even n: the
    origin value only touches zero, so its minimum is localized by
    golden-section instead; the negativity elsewhere in phase space vanishes
    at the same occupation.
    """
    if n < 1:
        raise ValueError("need a nonclassical fock state, n >= 1")
    lo, hi = 1e-9, 1.0 - 1e-9
    if n % 2 == 1:
        f = lambda nb: thermal_fock_wigner_origin(n, nb)
        root, bracket, iterations = _bisect(f, lo, hi, f(lo), f(hi), _WIGNER_TOL)
        return DepthResult(root, bracket, "wigner-negativity", iterations)
    f = lambda nb: abs(thermal_fock_wigner_origin(n, nb))
    (a, b), _, iterations = golden_section(f, lo, hi, _WIGNER_TOL)
    root = 0.5 * (a + b)
    if f(root) > 1e-9:
        raise NoRootInBracket("origin Wigner value never vanishes in (0, 1)")
    return DepthResult(root, (a, b), "wigner-negativity", iterations)


def thermal_fock_number_distribution(
    n: int, nbar: float, cutoff: int | None = None
) -> PhononDistribution:
    """Number populations of fock ``n`` after the thermal displacement channel.

    Radial Gauss-Laguerre quadrature over the displacement magnitude with the
    displaced-Fock overlaps in closed Laguerre form; the integrand is
    polynomial in the radius squared, so the quadrature is exact up to
    roundoff.  ``cutoff`` must leave a truncation deficit below 1e-8.
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
    if nbar == 0.0:
        pops = np.zeros(cutoff + 1)
        pops[n] = 1.0
        return phonon_stats(pops)
    # weight exp(-u (1+nbar)/nbar) absorbed by substitution; the rest is a
    # polynomial of degree m+n, integrated exactly by enough nodes
    deg = max(96, (cutoff + n) // 2 + 8)
    t_nodes, t_weights = np.polynomial.laguerre.laggauss(deg)
    u = t_nodes * (nbar / (1.0 + nbar))
    ms = np.arange(cutoff + 1)
    k = np.abs(ms - n)
    lo = np.minimum(ms, n)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    pops = np.empty(cutoff + 1)
    for m in ms:
        lag = eval_genlaguerre(int(lo[m]), int(k[m]), u)
        log_fac = gammaln(lo[m] + 1.0) - gammaln(lo[m] + k[m] + 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_g = k[m] * log_u + log_fac + 2.0 * np.log(np.abs(lag))
        g = np.where(np.isfinite(log_g), np.exp(log_g), 0.0)
        pops[m] = float(np.dot(t_weights, g)) / (1.0 + nbar)
    deficit = 1.0 - float(pops.sum())
    if deficit > 1e-8:
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves truncation deficit {deficit:.3e}"
        )
    pops = np.clip(pops, 0.0, None)
    return phonon_stats(pops / pops.sum())


def fano_depth(n: int) -> DepthResult:
    """Occupation at which the thermalized number statistics reach Fano = 1."""
    if n < 1:
        raise ValueError("need a sub-Poissonian fock state, n >= 1")

    def witness(nbar: float) -> float:
        dist = thermal_fock_number_distribution(n, nbar)
        assert dist.fano is not None
        return dist.fano - 1.0

    lo, hi = 1e-6, 1.0 - 1e-9
    w_lo = witness(lo)
    w_hi = witness(hi)
    if not w_lo < 0.0 < w_hi:
        raise NoRootInBracket(
            f"Fano witness does not cross 1 on ({lo}, {hi}): {w_lo:.4f}..{w_hi:.4f}"
        )
    root, bracket, iterations = _bisect(witness, lo, hi, w_lo, w_hi, _FANO_TOL)
    return DepthResult(root, bracket, "fano", iterations)
