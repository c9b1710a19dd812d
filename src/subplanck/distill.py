"""Distillation of squeezing from structured 1D densities.

The universal pipeline powers up 2**N copies of a density, recenters the
chosen global maximum, and passes the result through a ground-state filter
of tunable transmissivity.  The variance left after the optimal filter is
the operational figure of merit; its many-copy limit is 1/kappa, with
kappa = -(log p)'' at the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    GridDensity,
    MaximumLocation,
    curvature_at,  # noqa: F401  (unused here; bench/spans.py wraps this name)
    from_log_values,
    global_maxima,
    log_interp,
    log_peak_fit,
    pow_scale,
    shift,
    variance,  # noqa: F401  (unused here; bench/spans.py wraps this name)
)
from .errors import (
    FlatMaximum,
    NonPositiveVariance,
    PreconditionError,
    ZeroMassCondition,
)
from .states import _real

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

_SQRT2 = math.sqrt(2.0)
_MAX_LAYERS = 12
_MAX_CONDITIONED_LAYERS = 4

# Transmissivities of the filter scan: log-spaced in T, and in 1 - T for the
# nearly transparent filters that deep pipelines favour.
_SCAN_POINTS = np.union1d(np.geomspace(1e-4, 1.0, 64), 1.0 - np.geomspace(1e-7, 0.5, 32))
# Rows of T exponentiated together; bounds the scan's memory at 8 x nodes.
_SCAN_BLOCK = 8
# Brent's minimizer stops once T_opt lies within this of both ends of its
# bracket, which holds the minimum of a curve unimodal between the scan's
# neighbours of its best point.
_T_TOL = 2e-8
# Nodes this many e-folds below the peak carry no weight in a filtered moment.
_NEGLIGIBLE = 80.0


@dataclass(frozen=True)
class DistillConfig:
    """Pipeline settings for :func:`quantify`.

    ``layers`` universal interference layers act on 2**layers copies.  A
    single nonuniversal prelayer conditioned at ``prelayer_xbar`` may run
    first; nonzero ``conditioning_xbar`` instead threads the same offset
    through every universal layer (validation-scale runs only).  Invalid
    settings, ``prelayer_xbar`` without a prelayer among them, raise
    ``ValueError`` when the config is built; each message starts with the
    setting it names.
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
        for name in ("conditioning_xbar", "prelayer_xbar"):
            value = getattr(self, name)
            if not (_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and real, got {value!r}")
        if not 0 <= self.layers <= _MAX_LAYERS:
            raise ValueError(f"layers must lie in 0..{_MAX_LAYERS}")
        if self.nonuniversal_prelayers not in (0, 1):
            raise ValueError("nonuniversal_prelayers must be 0 or 1")
        if self.conditioning_xbar != 0.0 and self.layers > _MAX_CONDITIONED_LAYERS:
            raise ValueError(
                f"layers are limited to {_MAX_CONDITIONED_LAYERS} with conditioning_xbar"
            )
        if self.prelayer_xbar != 0.0 and not self.nonuniversal_prelayers:
            raise ValueError("prelayer_xbar must be 0 without a prelayer")


@dataclass(frozen=True)
class DistillReport:
    """Outcome of one quantification run.

    ``asymptotic_variance`` and ``efficiency`` are None where the chosen
    maximum has no variance limit (:class:`FlatMaximum`).
    """

    maximum: MaximumLocation
    T_opt: float
    min_variance: float
    squeezing_db: float
    asymptotic_variance: float | None
    efficiency: float | None
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
    (ties in symmetric densities break toward +x).  A maximum within 1e-4
    of a step below 0 counts as nonnegative: the peak fit places the centre
    of a symmetric density on an even node count ~1e-6 steps off.
    """
    maxima = global_maxima(q)
    nonneg = [m for m in maxima if m.a >= -1e-4 * q.x_step]
    chosen = min(nonneg, key=lambda m: m.a) if nonneg else max(maxima, key=lambda m: m.a)
    return shift(q, -chosen.a), chosen


def filter_with_ground_state(q: GridDensity, transmissivity: float) -> GridDensity:
    """Interfere with a ground-state ancilla and condition the tap on zero.

    Output density is proportional to Q(sqrt(T) x) exp(-(1-T) x^2), taken on
    Q's own nodes y = sqrt(T) x, so the output grid is Q's scaled by
    1/sqrt(T).  Below the resolution floor (see :func:`_peak_model`) that
    grid cannot resolve the output, which is then the Gaussian of log Q's
    Taylor expansion at 0, on ``n_nodes`` nodes over +-12 standard deviations.
    """
    t = float(transmissivity)
    if not 0.0 < t <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    rt = math.sqrt(t)
    floor, slope, kappa = _peak_model(q)
    if t >= floor:
        xs = q.xs() / rt
        return from_log_values(q.x_min / rt, q.x_step / rt, q.log_p - (1.0 - t) * xs * xs)
    a = 2.0 * (1.0 - t) + kappa * t
    if not (math.isfinite(slope) and 0.0 < a < math.inf):
        raise PreconditionError(
            f"log density must be finite and concave around x = 0 to filter below T = {floor!r}"
        )
    xs = (slope * rt + math.sqrt(a) * np.linspace(-12.0, 12.0, q.n_nodes)) / a
    return from_log_values(xs[0], xs[1] - xs[0], xs * (slope * rt - 0.5 * a * xs))


def _peak_model(q: GridDensity) -> tuple[float, float, float]:
    """The filter's resolution floor 2h^2 / (1 + 2h^2) on ``q``, below which
    it is narrower than one step, and log Q's slope and curvature
    -(log Q)'' at x = 0, read off the peak fit of ``density.global_maxima``
    (not finite where its window holds an exact zero)."""
    h = q.x_step
    return (2.0 * h * h / (1.0 + 2.0 * h * h), *log_peak_fit(q, 0.0))


def _filter_scan(q: GridDensity):
    """The filtered variance of the recentred ``q`` as a function of T: of an
    array of T for the scan, or of one float T for the minimizer.

    With y = sqrt(T) x the filtered density is Q(y) exp(-(1-T) y^2 / T) on
    Q's own nodes, and Var_x(T) = Var_y(T) / T: no regrid, no interpolation.
    Rows of T are exponentiated in blocks of ``_SCAN_BLOCK`` (a float T is
    one row), each over the nodes its widest filter leaves within
    ``_NEGLIGIBLE`` e-folds of the peak, and reduced to three trapezoid
    moments by one matrix product.  Below the resolution floor
    2h^2 / (1 + 2h^2), where the filter is narrower than one step, the
    Gaussian limit 1 / (2(1-T) + kappa T) holds instead, with
    kappa = -(log Q)'' at x = 0; where that is not finite and positive (an
    exact zero near the peak), those rows read +inf, so the optimum is a
    resolved filter.
    """
    floor, _, kappa = _peak_model(q)
    log_p = q.log_p
    w = np.full(q.n_nodes, q.x_step)
    w[0] *= 0.5
    w[-1] *= 0.5
    # a node lies within h/2 of the maximum at 0, and above the floor
    # (1-T)/T <= 1/(2h^2), so every row peaks within 1/8 e-fold of
    # log_p.max(): shifted by it once, every exponent stays <= 0 and is
    # rounded at its own size rather than at log Q's (-4556 for Fock 4 at
    # 12 layers), and the nodes dropped here or by a block's window weigh
    # below e^-79 of the row's peak
    top = log_p.max()
    keep = log_p > top - _NEGLIGIBLE
    ys = q.xs()[keep]
    log_p, w = log_p[keep] - top, w[keep]
    ys2 = ys * ys
    moments = np.column_stack((w, w * ys, w * ys2))

    def gaussian_limit(ts):
        precision = 2.0 * (1.0 - ts) + kappa * ts
        limit = (precision > 0.0) & (precision < math.inf)
        return np.divide(1.0, precision, out=np.full(np.shape(ts), math.inf), where=limit)

    def resolved(t):
        # (1-T)/T y^2 > _NEGLIGIBLE + 1/8 for the widest filter of t, plus
        # one node of slack, puts a node out of every row's reach
        spread = (1.0 - t) / t
        widest = np.min(spread)
        reach = math.sqrt((_NEGLIGIBLE + 0.125) / widest) if widest > 0.0 else math.inf
        lo, hi = np.searchsorted(ys, (-reach, reach)).tolist()
        lo, hi = max(lo - 1, 0), hi + 1
        a = np.multiply.outer(-spread, ys2[lo:hi])
        a += log_p[lo:hi]
        np.exp(a, out=a)
        m0, m1, m2 = (a @ moments[lo:hi]).T
        m1 = m1 / m0
        return (m2 / m0 - m1 * m1) / t

    def variances(ts):
        if np.ndim(ts) == 0:
            return float(resolved(ts) if ts >= floor else gaussian_limit(ts))
        out = gaussian_limit(ts)
        rows = np.flatnonzero(ts >= floor)
        for start in range(0, rows.size, _SCAN_BLOCK):
            block = rows[start : start + _SCAN_BLOCK]
            out[block] = resolved(ts[block])
        return out

    return variances


def _brent_min(f, a: float, b: float, x: float, fx: float, xtol: float) -> tuple[float, float]:
    """Brent's localmin (Brent 1973, ch. 5) of ``f`` on [a, b] from ``x``, ``fx = f(x)``.

    Each step takes the parabola through the three best points when its
    vertex lies inside the bracket and the step is less than half the one
    before last, and a golden-section step into the larger side of ``x``
    otherwise (so ``x`` may start at an end, and a +inf value, whose
    parabola is not finite, only shrinks the bracket).  No step is shorter
    than ``xtol / 2``.  Stops once ``x`` lies within ``xtol`` of both ends,
    and returns the best point and its value.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    tol = 0.5 * xtol
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while max(x - a, b - x) > xtol:
        xm = 0.5 * (a + b)
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        # every comparison is False on a NaN parabola, which falls to golden
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < xtol or b - x - d < xtol:
                d = math.copysign(tol, xm - x)
        else:
            e = (a if x >= xm else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, fx


def optimize_filter(q: GridDensity) -> tuple[float, float]:
    """Transmissivity minimizing the filtered variance of the recentred ``q``.

    Scans T log-spaced over [1e-4, 1] and 1 - T log-spaced down to 1e-7, then
    runs Brent's minimizer between the best scan point's neighbours, starting
    from that point, until T_opt lies within ``_T_TOL`` of both ends of its
    bracket.  Each step filters one row.  Returns ``(T_opt, min_variance)``.
    """
    variances = _filter_scan(q)
    ts = _SCAN_POINTS.tolist()
    vs = variances(_SCAN_POINTS)
    k = int(np.argmin(vs))
    return _brent_min(
        variances,
        ts[max(k - 1, 0)],
        ts[min(k + 1, len(ts) - 1)],
        ts[k],
        float(vs[k]),
        _T_TOL,
    )


def asymptotic_variance(p: GridDensity) -> float:
    """Many-copy variance limit 1/kappa, kappa = -(log p)'' at the chosen maximum."""
    _, chosen = displace_to_origin(p)
    if not chosen.kappa > 1e-12:
        cause = "an exact zero" if math.isnan(chosen.kappa) else f"curvature {chosen.kappa!r}"
        raise FlatMaximum(f"no variance limit: the peak window at {chosen.a!r} has {cause}")
    return 1.0 / chosen.kappa


def efficiency(asymptotic: float, achieved: float) -> float:
    """Ratio of the many-copy variance limit to the achieved variance."""
    if not (asymptotic > 0.0 and achieved > 0.0):
        raise NonPositiveVariance("variances must be positive")
    return asymptotic / achieved


def quantify(p: GridDensity, cfg: DistillConfig | None = None) -> DistillReport:
    """Run the full pipeline and report the distillable squeezing.

    Order: optional nonuniversal prelayer, universal layers, recentering,
    optimal ground-state filter.  The asymptotic variance is evaluated after
    the prelayer, i.e. on the density the universal pipeline actually sees;
    where that density has no limit, it and the efficiency are None, and the
    filtered minimum still stands.
    """
    cfg = cfg or DistillConfig()
    work = p
    if cfg.nonuniversal_prelayers:
        work = nonuniversal_layer(work, cfg.prelayer_xbar)
    try:
        asym = asymptotic_variance(work)
    except FlatMaximum:
        asym = None
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
        efficiency=None if asym is None else efficiency(asym, min_var),
        is_squeezed=min_var < GROUND_VARIANCE - _SQUEEZE_MARGIN,
        layers=cfg.layers,
        copies=1 << cfg.layers,
    )
