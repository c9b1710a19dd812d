"""Distillation of squeezing from structured 1D densities.

The universal pipeline powers up 2**N copies of a density, recenters the
chosen global maximum, and passes the result through a ground-state filter
of tunable transmissivity.  The variance left after the optimal filter is
the operational figure of merit; its many-copy limit equals the density's
value over curvature at the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    GridDensity,
    MaximumLocation,
    curvature_at,
    from_log_values,
    global_maxima,
    log_interp,
    log_norm,
    pow_scale,
    shift,
    variance,  # noqa: F401  (unused here; bench/spans.py wraps this name)
)
from .errors import (
    FlatMaximum,
    NonPositiveVariance,
    ZeroMassCondition,
)

__all__ = [
    "DistillConfig",
    "DistillReport",
    "universal_distill",
    "binary_sequence_distill",
    "nonuniversal_layer",
    "displace_to_origin",
    "filter_with_ground_state",
    "optimize_filter",
    "asymptotic_variance",
    "quantify",
    "efficiency",
    "GROUND_VARIANCE",
]

GROUND_VARIANCE = 0.5

# Variances this close to the ground level count as unsqueezed; trapezoid
# noise sits many orders below this.
_SQUEEZE_MARGIN = 1e-6

# The ground-state filter factor exp(-(1-T) x^2) is below 3e-20 beyond this
# many widths, so truncating there cannot bias the variance.
_FILTER_CUT = 45.0

_SQRT2 = math.sqrt(2.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Bracket width at which the transmissivity search stops.
_GOLDEN_TOL = 1e-5
_MAX_LAYERS = 12
_MAX_CONDITIONED_LAYERS = 4
_TRANSMISSIVITY_POINTS = 64


@dataclass(frozen=True)
class DistillConfig:
    """Pipeline settings for :func:`quantify`.

    ``layers`` universal interference layers act on 2**layers copies.  A
    single nonuniversal prelayer conditioned at ``prelayer_xbar`` may run
    first; nonzero ``conditioning_xbar`` instead threads the same offset
    through every universal layer (validation-scale runs only).  Invalid
    settings raise ``ValueError`` when the config is built.
    """

    layers: int = 4
    conditioning_xbar: float = 0.0
    nonuniversal_prelayers: int = 0
    prelayer_xbar: float = 0.0

    def __post_init__(self) -> None:
        for name in ("layers", "nonuniversal_prelayers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.layers <= _MAX_LAYERS:
            raise ValueError(f"layers must lie in 0..{_MAX_LAYERS}")
        if self.nonuniversal_prelayers not in (0, 1):
            raise ValueError("nonuniversal_prelayers must be 0 or 1")
        if self.conditioning_xbar != 0.0 and self.layers > _MAX_CONDITIONED_LAYERS:
            raise ValueError(
                f"conditioned universal layers are limited to {_MAX_CONDITIONED_LAYERS}"
            )


@dataclass(frozen=True)
class DistillReport:
    """Outcome of one quantification run."""

    maximum: MaximumLocation
    T_opt: float
    min_variance: float
    squeezing_db: float
    asymptotic_variance: float
    efficiency: float
    is_squeezed: bool
    layers: int
    copies: int

    def to_dict(self) -> dict:
        return {
            "min_variance": self.min_variance,
            "squeezing_db": self.squeezing_db,
            "T_opt": self.T_opt,
            "maximum_a": self.maximum.a,
            "asymptotic_variance": self.asymptotic_variance,
            "efficiency": self.efficiency,
            "is_squeezed": self.is_squeezed,
            "layers": self.layers,
            "copies": self.copies,
        }


def universal_distill(p: GridDensity, layers: int) -> GridDensity:
    """N balanced interference layers on 2**N copies, all conditioned at zero."""
    if layers < 0 or layers > _MAX_LAYERS:
        raise ValueError(f"layers must lie in 0..{_MAX_LAYERS}")
    return pow_scale(p, 1 << layers)


def binary_sequence_distill(p: GridDensity, layers: int, xbar: float) -> GridDensity:
    """Full product over all 2**N conditioning sign sequences.

    Each layer conditions its difference port at ``xbar``; the surviving
    output collects P at every signed combination of the per-layer offsets.
    Kept to few layers because the product has 2**N factors.
    """
    if layers < 0 or layers > _MAX_CONDITIONED_LAYERS:
        raise ValueError(
            f"conditioned distillation supports 0..{_MAX_CONDITIONED_LAYERS} layers"
        )
    if layers == 0:
        return p
    scale = _SQRT2**layers
    weights = xbar / _SQRT2 ** np.arange(1, layers + 1)
    xs_new = p.xs() * scale
    log_new = np.zeros_like(xs_new)
    for code in range(1 << layers):
        signs = 1.0 - 2.0 * ((code >> np.arange(layers)) & 1)
        offset = float(np.dot(signs, weights))
        log_new += log_interp(p, xs_new / scale + offset)
    if not np.isfinite(log_new).any():
        raise ZeroMassCondition("conditioning removed all probability mass")
    return from_log_values(xs_new[0], p.x_step * scale, log_new)


def nonuniversal_layer(p: GridDensity, xbar: float) -> GridDensity:
    """One two-copy layer that conditions the opposite port at ``xbar``.

    The unconditioned port carries the output, so the surviving density is
    proportional to P((xbar+x)/sqrt2) P((xbar-x)/sqrt2): symmetric in x for
    any input, with the conditioning offset entering both factors with the
    same sign.  With ``xbar = 0`` and a symmetric input this is one
    universal layer.
    """
    xs_new = p.xs() * _SQRT2
    log_new = log_interp(p, (xbar + xs_new) / _SQRT2)
    log_new += log_interp(p, (xbar - xs_new) / _SQRT2)
    if not np.isfinite(log_new).any():
        raise ZeroMassCondition("conditioning removed all probability mass")
    return from_log_values(xs_new[0], p.x_step * _SQRT2, log_new)


def displace_to_origin(q: GridDensity) -> tuple[GridDensity, MaximumLocation]:
    """Shift the selected global maximum to x = 0.

    Among the global maxima (within a relative ``density.GLOBAL_REL_TOL``
    of the highest), the one with the smallest nonnegative position wins
    (ties in symmetric densities break toward +x).
    """
    maxima = global_maxima(q)
    nonneg = [m for m in maxima if m.a >= 0.0]
    chosen = min(nonneg, key=lambda m: m.a) if nonneg else max(maxima, key=lambda m: m.a)
    return shift(q, -chosen.a), chosen


def _filter_window(q: GridDensity, transmissivity: float):
    """The filter's output grid and unnormalized log values.

    Returns ``(lo, step, xs, xs*xs, log values)`` of Q(sqrt(T) x)
    exp(-(1-T) x^2) on a window of Q's node count.
    """
    t = float(transmissivity)
    if not 0.0 < t <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    weight = 1.0 - t
    rt = math.sqrt(t)
    lo = q.x_min / rt
    hi = q.x_max / rt
    if weight > 0.0:
        cut = math.sqrt(_FILTER_CUT / weight)
        lo = max(lo, -cut)
        hi = min(hi, cut)
    if not lo < hi:
        raise ZeroMassCondition("filter window collapsed")
    n = q.n_nodes
    step = (hi - lo) / (n - 1)
    xs = np.arange(n, dtype=float)
    xs *= step
    xs += lo
    xs2 = xs * xs
    log_new = log_interp(q, rt * xs)
    log_new -= weight * xs2
    if not np.isfinite(log_new).any():
        raise ZeroMassCondition("filtered density has no mass")
    return lo, step, xs, xs2, log_new


def filter_with_ground_state(q: GridDensity, transmissivity: float) -> GridDensity:
    """Interfere with a ground-state ancilla and condition the tap on zero.

    Output density is proportional to Q(sqrt(T) x) exp(-(1-T) x^2).
    """
    lo, step, _, _, log_new = _filter_window(q, transmissivity)
    return from_log_values(lo, step, log_new)


def _filtered_variance(q: GridDensity, transmissivity: float) -> float:
    """``variance(filter_with_ground_state(q, transmissivity))``, to the bit.

    The normalization and both trapezoid moments are taken on the window's
    own arrays, with the same checks and the same operation order.
    """
    _, step, xs, xs2, log_p = _filter_window(q, transmissivity)
    log_p -= log_norm(log_p, step)
    v = np.exp(log_p, out=log_p)
    m1 = float(np.trapezoid(xs * v, dx=step))
    xs2 *= v
    m2 = float(np.trapezoid(xs2, dx=step))
    return m2 - m1 * m1


def golden_section(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b] down to bracket width
    ``_GOLDEN_TOL``; returns the better interior point as ``(x, f(x))``."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc = f(c)
    fd = f(d)
    while (b - a) > _GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def optimize_filter(q: GridDensity) -> tuple[float, float]:
    """Transmissivity minimizing the filtered variance.

    Coarse logarithmic scan over (0, 1] followed by golden-section refinement
    of the best bracket; the endpoint T = 1 is always evaluated exactly.
    Returns ``(T_opt, min_variance)``.
    """

    def objective(t: float) -> float:
        return _filtered_variance(q, t)

    ts = np.geomspace(1e-4, 1.0, _TRANSMISSIVITY_POINTS)
    vs = np.array([objective(t) for t in ts])
    k = int(np.argmin(vs))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, ts.shape[0] - 1)]
    best_t, best_v = golden_section(objective, float(lo), float(hi))
    # keep exact endpoints competitive with the refined interior point
    for t_cand, v_cand in ((float(ts[k]), float(vs[k])), (1.0, float(vs[-1]))):
        if v_cand < best_v:
            best_t, best_v = t_cand, v_cand
    return best_t, best_v


def asymptotic_variance(p: GridDensity) -> float:
    """Many-copy variance limit: density over |curvature| at the chosen maximum."""
    _, chosen = displace_to_origin(p)
    curv = curvature_at(p, chosen.a)
    if abs(curv) < 1e-12 * chosen.value or curv > 0.0:
        raise FlatMaximum(
            f"curvature {curv!r} at {chosen.a!r} is too flat for a variance limit"
        )
    return chosen.value / abs(curv)


def efficiency(asymptotic: float, achieved: float) -> float:
    """Ratio of the many-copy variance limit to the achieved variance."""
    if not (asymptotic > 0.0 and achieved > 0.0):
        raise NonPositiveVariance("variances must be positive")
    return asymptotic / achieved


def quantify(p: GridDensity, cfg: DistillConfig | None = None) -> DistillReport:
    """Run the full pipeline and report the distillable squeezing.

    Order: optional nonuniversal prelayer, universal layers, recentering,
    optimal ground-state filter.  The asymptotic variance is evaluated after
    the prelayer, i.e. on the density the universal pipeline actually sees.
    """
    cfg = cfg or DistillConfig()
    work = p
    if cfg.nonuniversal_prelayers:
        work = nonuniversal_layer(work, cfg.prelayer_xbar)
    asym = asymptotic_variance(work)
    if cfg.conditioning_xbar != 0.0:
        distilled = binary_sequence_distill(work, cfg.layers, cfg.conditioning_xbar)
    else:
        distilled = universal_distill(work, cfg.layers)
    recentered, maximum = displace_to_origin(distilled)
    t_opt, min_var = optimize_filter(recentered)
    return DistillReport(
        maximum=maximum,
        T_opt=t_opt,
        min_variance=min_var,
        squeezing_db=10.0 * math.log10(min_var / GROUND_VARIANCE),
        asymptotic_variance=asym,
        efficiency=efficiency(asym, min_var),
        is_squeezed=min_var < GROUND_VARIANCE - _SQUEEZE_MARGIN,
        layers=cfg.layers,
        copies=1 << cfg.layers,
    )
