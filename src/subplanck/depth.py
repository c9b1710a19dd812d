"""Robustness of nonclassical signatures against thermal occupation.

Thermalization is the Gaussian-displacement channel with mean occupation
``nbar``: a Gaussian blur of variance ``nbar`` on quadrature densities, and
on number statistics loss followed by quantum-limited gain, a finite sum.
Each witness here (distillable squeezing, Wigner negativity at the origin,
sub-Poissonian number statistics) vanishes at some added occupation:
squeezing by Brent's root finder on any density, catalog or measured,
transformed once per search range and blurred per occupation; the other two
at closed-form occupations of a number state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import GridDensity, gaussian_blur
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
from .states import realize  # noqa: F401  (unused here; bench/spans.py wraps this name)

__all__ = [
    "DepthResult",
    "subplanck_depth",
    "thermal_fock_wigner_origin",
    "wigner_negativity_depth",
    "thermal_fock_number_distribution",
    "fano_depth",
]

# Upper ends of the root search, tried in turn until the witness is no longer
# squeezed.  A Gaussian blur of variance nbar gives (log p)'' >= -1/nbar
# (Brascamp & Lieb 1976), so the many-copy limit 1/kappa reaches 1/2 by
# nbar = 1/2 for every state; the finite pipeline has no such bound.  The
# asymptotic search first tries the end a Gaussian peak predicts (see
# subplanck_depth).
_ASYMPTOTIC_ENDS = (0.5, 2.0)
_PIPELINE_ENDS = (2.0,)
_SUBPLANCK_XTOL = 1e-6


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


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float):
    """Brent's zeroin (Brent 1973, ch. 4) on a sign change of ``f`` over [a, b].

    ``b`` is the best estimate and ``c`` keeps the opposite sign.  Each step
    takes the inverse quadratic or secant estimate when it stays inside the
    bracket and shrinks it fast enough, and bisects otherwise, so a witness
    that jumps still converges.  Stops once [b, c] is at most ``xtol`` wide;
    returns (b, sorted (b, c), evaluations of ``f``), with the bracket
    collapsed to (b, b) on an exact zero.
    """
    if not fa * fb < 0.0:
        raise NoRootInBracket(f"no sign change on [{a}, {b}]")
    c, fc = a, fa
    d = e = b - a
    tol = 0.5 * xtol
    evaluations = 0
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0:
            return b, (b, b), evaluations
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b, (min(b, c), max(b, c)), evaluations
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        evaluations += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def subplanck_depth(
    density: GridDensity,
    cfg: DistillConfig | None = None,
    asymptotic: bool = False,
) -> DepthResult:
    """Occupation that ``density`` can take on before its squeezing disappears.

    ``density`` is the input at zero added occupation: a catalog state
    realized at nbar 0, a fitted mixture, or a measured histogram, for which
    nbar* is the thermal noise the experiment's own state can still absorb.
    The witness is the minimal filtered variance at ``cfg.layers`` layers, or
    the many-copy variance limit when ``asymptotic`` is set.  Requires a
    density that is squeezable as given and classical by nbar = 2.  It is
    transformed once per search range (:func:`gaussian_blur`), so each
    occupation's density equals :func:`convolve_gaussian` at that occupation
    to roundoff, and to the bit at the range's upper end.  The asymptotic
    root is searched on [0, g] with g = -w(0) = 1/2 - 1/kappa(0), where a
    Gaussian peak, whose variance adds under the blur (1/kappa(nbar) =
    1/kappa(0) + nbar), would cross; then on [g, 1/2], where the limit is
    bound to cross; and on [1/2, 2] only if the grid's numerics leave it
    squeezed at 1/2.  The pipeline root is searched on [0, 2].  An exact zero
    at an upper end is the root.
    """
    cfg = cfg or DistillConfig()
    blurs = {}

    def excess(dens) -> float:
        if asymptotic:
            return asymptotic_variance(dens) - GROUND_VARIANCE
        return quantify(dens, cfg).min_variance - GROUND_VARIANCE

    def witness(nbar: float) -> float:
        # one transform for [0, 1/2] and one for [1/2, 2], each built when
        # first needed
        var_max = 0.5 if asymptotic and nbar <= 0.5 else 2.0
        if var_max not in blurs:
            blurs[var_max] = gaussian_blur(density, var_max)
        return excess(blurs[var_max](nbar))

    label = "subplanck-asymptotic" if asymptotic else f"subplanck-N{cfg.layers}"
    lo, w_lo = 0.0, excess(density)
    if w_lo >= 0.0:
        raise NoSqueezingAtZero(
            f"witness is already classical at nbar = 0 ({w_lo + GROUND_VARIANCE:.6f})"
        )
    tops = _PIPELINE_ENDS
    if asymptotic:
        # the Gaussian-peak end g = -w(0), unless it lies no nearer than 1/2
        tops = _ASYMPTOTIC_ENDS if -w_lo >= 0.5 else (-w_lo, *_ASYMPTOTIC_ENDS)
    ends = 1
    for hi in tops:
        w_hi = witness(hi)
        ends += 1
        if w_hi >= 0.0:
            break
        lo, w_lo = hi, w_hi
    if w_hi == 0.0:
        return DepthResult(hi, (hi, hi), label, ends)
    if w_hi < 0.0:
        raise NoRootInBracket(f"witness still squeezed at nbar = {hi}")
    root, bracket, evaluations = _brent(witness, lo, hi, w_lo, w_hi, _SUBPLANCK_XTOL)
    # the end evaluations count too
    return DepthResult(root, bracket, label, evaluations + ends)


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
    from scipy.special import gammaln

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
