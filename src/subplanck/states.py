"""Catalog of quadrature probability densities for benchmark quantum states.

Units fix the ground-state quadrature variance at 1/2, so any variance below
that threshold is squeezed.  Each catalog state is emitted in the variable
where its analytic density is known (number states in position, even cat
states in momentum, grid states in position, cubic phase states in momentum);
``quadrature_angle`` rotates to the conjugate variable where a closed form
exists.  Thermal occupation acts as a Gaussian blur of variance ``nbar`` on
the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import GridDensity, GridSpec, convolve_gaussian, from_log_values
from .errors import (
    AngleUnsupported,
    GridTooNarrow,
    InvalidPopulations,
    InvalidStateSpec,
)
from .phonon import check_populations

__all__ = [
    "StateSpec",
    "airy_ai",
    "fock_density",
    "fock_mixture_density",
    "cat_momentum_density",
    "gkp_position_density",
    "cubic_momentum_density",
    "default_grid",
    "realize",
]

_KINDS = ("fock", "mixture", "cat", "gkp", "cubic")
# Each key of a state's dict form: the StateSpec field it sets and the kind of
# its value (``list`` is a list of numbers).  The CLI's state section reads it.
STATE_KEYS = {
    "kind": ("kind", str),
    "n": ("n", int),
    "populations": ("populations", list),
    "alpha": ("alpha", float),
    "delta": ("delta", float),
    "side_peaks": ("side_peaks", int),
    "spacing": ("spacing", float),
    "gamma": ("gamma", float),
    "nbar": ("thermal_nbar", float),
    "angle": ("quadrature_angle", float),
}
_REAL_FIELDS = tuple(field for field, kind in STATE_KEYS.values() if kind is float)
_INTEGERS = (int, np.integer)
_REALS = _INTEGERS + (float, np.floating)


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a catalog state.

    Exactly the fields relevant to ``kind`` are read; ``thermal_nbar`` adds a
    Gaussian blur of that variance and ``quadrature_angle`` picks the
    measured quadrature (0 or pi/2 where supported; number states are
    rotation invariant).  Real fields must be finite and are kept as Python
    floats.  A spec that breaks these invariants raises
    :class:`InvalidStateSpec` or :class:`InvalidPopulations` when built.
    """

    kind: str
    n: int = 0
    populations: tuple[float, ...] | None = None
    alpha: float = 0.0
    delta: float = 0.0
    side_peaks: int = 1
    spacing: float = 0.0
    gamma: float = 0.0
    thermal_nbar: float = 0.0
    quadrature_angle: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidStateSpec(f"unknown state kind {self.kind!r}")
        for field, kind in STATE_KEYS.values():
            value = getattr(self, field)
            if kind is int and (isinstance(value, bool) or not isinstance(value, _INTEGERS)):
                raise InvalidStateSpec(f"{field} must be an integer, got {value!r}")
            if kind is float:
                if isinstance(value, bool) or not isinstance(value, _REALS):
                    raise InvalidStateSpec(f"{field} must be a number, got {value!r}")
                object.__setattr__(self, field, float(value))
        if not (math.isfinite(self.thermal_nbar) and self.thermal_nbar >= 0.0):
            raise InvalidStateSpec(
                f"thermal_nbar must be finite and nonnegative, got {self.thermal_nbar!r}"
            )
        for field in _REAL_FIELDS:
            if not math.isfinite(getattr(self, field)):
                raise InvalidStateSpec(f"{field} must be finite, got {getattr(self, field)!r}")
        if self.kind == "fock" and self.n < 0:
            raise InvalidStateSpec("fock index must be a nonnegative integer")
        if self.kind == "mixture":
            if not self.populations:
                raise InvalidPopulations("mixture needs a population vector")
            check_populations(np.asarray(self.populations, dtype=float))
        if self.kind == "cat" and not self.alpha > 0.0:
            raise InvalidStateSpec("cat amplitude alpha must be positive")
        if self.kind == "gkp":
            if not self.delta > 0.0:
                raise InvalidStateSpec("gkp delta must be positive")
            if self.side_peaks < 1:
                raise InvalidStateSpec("gkp needs at least one side peak")
            if not self.spacing > 0.0:
                raise InvalidStateSpec("gkp spacing must be positive")
        if self.kind == "cubic" and self.gamma == 0.0:
            raise InvalidStateSpec("cubic gamma must be nonzero")

    @staticmethod
    def from_dict(data: dict) -> "StateSpec":
        """The spec of a state's dict form, whose keys :data:`STATE_KEYS` lists."""
        unknown = set(data) - set(STATE_KEYS)
        if unknown:
            raise InvalidStateSpec(f"unknown state keys: {sorted(unknown)}")
        fields = {STATE_KEYS[key][0]: value for key, value in data.items()}
        if fields.get("populations") is not None:
            fields["populations"] = tuple(fields["populations"])
        return StateSpec(**{"kind": "", **fields})


# --- special functions ------------------------------------------------------

# Maclaurin branch is used on [_AI_SEAM_NEG, _AI_SEAM_POS]; beyond that the
# alternating series loses too many digits to cancellation and the asymptotic
# expansions are already below 1e-12.
_AI_SEAM_POS = 6.0
_AI_SEAM_NEG = -8.0
_AI_0 = 0.3550280538878172  # 3**(-2/3) / Gamma(2/3)
_AI_PRIME_0 = -0.2588194037928068  # -3**(-1/3) / Gamma(1/3)


def _airy_u_coeffs(count: int) -> np.ndarray:
    u = np.empty(count)
    u[0] = 1.0
    for k in range(1, count):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
    return u


_AI_U = _airy_u_coeffs(40)


def _airy_series(x: np.ndarray) -> np.ndarray:
    """Maclaurin solution of y'' = x y with Ai's initial data."""
    x3 = x**3
    f_term = np.ones_like(x)
    g_term = x.copy()
    f_sum = f_term.copy()
    g_sum = g_term.copy()
    for k in range(60):
        f_term = f_term * x3 / ((3 * k + 2) * (3 * k + 3))
        g_term = g_term * x3 / ((3 * k + 3) * (3 * k + 4))
        f_sum += f_term
        g_sum += g_term
        if np.all(np.abs(f_term) + np.abs(g_term) < 1e-20 * (np.abs(f_sum) + np.abs(g_sum) + 1.0)):
            break
    return _AI_0 * f_sum + _AI_PRIME_0 * g_sum


def _asym_sum(zeta: np.ndarray, start: int, stride: int) -> np.ndarray:
    """Alternating sum of u_k / zeta**k over k = start, start + stride, ...,
    truncated at the smallest term."""
    total = np.zeros_like(zeta)
    term_prev = np.full_like(zeta, np.inf)
    sign = 1.0
    for k in range(start, _AI_U.shape[0], stride):
        term = _AI_U[k] / zeta**k
        grown = term >= term_prev
        if grown.all():
            break
        term = np.where(grown, 0.0, term)
        total += sign * term
        term_prev = np.where(grown, term_prev, term)
        sign = -sign
    return total


def _airy_asym_pos(x: np.ndarray) -> np.ndarray:
    zeta = (2.0 / 3.0) * x**1.5
    total = _asym_sum(zeta, 0, 1)
    return np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x**0.25) * total


def _airy_asym_neg(x: np.ndarray) -> np.ndarray:
    t = -x
    zeta = (2.0 / 3.0) * t**1.5
    cos_sum = _asym_sum(zeta, 0, 2)
    sin_sum = _asym_sum(zeta, 1, 2)
    phase = zeta - 0.25 * math.pi
    return (np.cos(phase) * cos_sum + np.sin(phase) * sin_sum) / (
        math.sqrt(math.pi) * t**0.25
    )


def airy_ai(x: np.ndarray | float) -> np.ndarray | float:
    """Airy function Ai, accurate to better than 1e-10 absolutely on [-20, 10].

    Maclaurin series in the middle, standard asymptotic expansions outside,
    with seams placed where both branches agree to 1e-10.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    mid = (arr >= _AI_SEAM_NEG) & (arr <= _AI_SEAM_POS)
    pos = arr > _AI_SEAM_POS
    neg = arr < _AI_SEAM_NEG
    if mid.any():
        out[mid] = _airy_series(arr[mid])
    if pos.any():
        out[pos] = _airy_asym_pos(arr[pos])
    if neg.any():
        out[neg] = _airy_asym_neg(arr[neg])
    if np.ndim(x) == 0:
        return float(out[0])
    return out


# --- densities --------------------------------------------------------------

def _fock_extent(n: int) -> float:
    return 6.0 + 2.0 * math.sqrt(2.0 * n + 1.0)


def default_grid(spec: StateSpec) -> GridSpec:
    """Grid wide enough that the state's density decays at the edges."""
    if spec.kind == "fock":
        extent = _fock_extent(spec.n)
    elif spec.kind == "mixture":
        pops = np.asarray(spec.populations, dtype=float)
        occupied = np.nonzero(pops > 0.0)[0]
        extent = _fock_extent(int(occupied[-1]) if occupied.size else 0)
    elif spec.kind == "cat":
        extent = 8.0
        if abs(spec.quadrature_angle - 0.5 * math.pi) < 1e-12:
            extent = 8.0 + math.sqrt(2.0) * spec.alpha
    elif spec.kind == "gkp":
        extent = max(8.0, 2.0 * spec.side_peaks * spec.spacing + 6.0 * spec.delta + 2.0)
        if abs(spec.quadrature_angle - 0.5 * math.pi) < 1e-12:
            extent = max(8.0, 6.0 / spec.delta + 2.0 * math.pi / spec.spacing)
    else:  # cubic
        extent = 14.0
    # thermal blur widens the state; convolution pads further on its own
    if spec.thermal_nbar > 0.0:
        extent += 4.0 * math.sqrt(spec.thermal_nbar)
    return GridSpec(extent)


def _fock_wavefunctions(n_top: int, xs: np.ndarray) -> list[np.ndarray]:
    """Oscillator eigenfunctions psi_0..psi_n_top via the normalized recurrence.

    Folding exp(-x^2/2) into the start keeps every iterate bounded, so no
    factorials or overflow appear for any practical n.
    """
    psi_prev = math.pi**-0.25 * np.exp(-0.5 * xs**2)
    out = [psi_prev]
    if n_top == 0:
        return out
    psi = math.sqrt(2.0) * xs * psi_prev
    out.append(psi)
    for k in range(1, n_top):
        psi, psi_prev = (
            math.sqrt(2.0 / (k + 1)) * xs * psi - math.sqrt(k / (k + 1.0)) * psi_prev,
            psi,
        )
        out.append(psi)
    return out


def fock_density(n: int, grid: GridSpec | None = None) -> GridDensity:
    """Position density of the number state ``n``."""
    if n < 0:
        raise InvalidStateSpec("fock index must be nonnegative")
    if grid is None:
        grid = GridSpec(_fock_extent(n))
    if grid.extent < _fock_extent(n) - 1e-9:
        raise GridTooNarrow(
            f"fock {n} needs extent >= {_fock_extent(n):.3f}, got {grid.extent}"
        )
    xs = grid.xs()
    psi = _fock_wavefunctions(n, xs)[n]
    with np.errstate(divide="ignore"):
        log_p = 2.0 * np.log(np.abs(psi))
    return from_log_values(xs[0], grid.step, log_p)


def fock_mixture_density(
    populations: np.ndarray, grid: GridSpec | None = None
) -> GridDensity:
    """Position density of an incoherent number-state mixture."""
    pops = check_populations(np.asarray(populations, dtype=float))
    occupied = np.nonzero(pops > 0.0)[0]
    n_top = int(occupied[-1]) if occupied.size else 0
    if grid is None:
        grid = GridSpec(_fock_extent(n_top))
    if grid.extent < _fock_extent(n_top) - 1e-9:
        raise GridTooNarrow(
            f"mixture up to fock {n_top} needs extent >= {_fock_extent(n_top):.3f}"
        )
    xs = grid.xs()
    psis = _fock_wavefunctions(n_top, xs)
    dens = np.zeros_like(xs)
    for m in occupied:
        dens += pops[m] * psis[m] ** 2
    with np.errstate(divide="ignore"):
        log_p = np.log(dens)
    return from_log_values(xs[0], grid.step, log_p)


def cat_momentum_density(alpha: float, grid: GridSpec | None = None) -> GridDensity:
    """Momentum density of the even cat state with real amplitude ``alpha``.

    Proportional to exp(-p^2) cos^2(alpha p); the cosine zeros are exact.
    """
    if not alpha > 0.0:
        raise InvalidStateSpec("cat amplitude alpha must be positive")
    if grid is None:
        grid = GridSpec(8.0)
    ps = grid.xs()
    with np.errstate(divide="ignore"):
        log_p = -(ps**2) + 2.0 * np.log(np.abs(np.cos(alpha * ps)))
    return from_log_values(ps[0], grid.step, log_p)


def _cat_position_density(alpha: float, grid: GridSpec) -> GridDensity:
    """Position density of the even cat: two humps plus an exponentially small bridge."""
    c = math.sqrt(2.0) * alpha
    xs = grid.xs()
    terms = np.stack(
        [
            -((xs - c) ** 2),
            -((xs + c) ** 2),
            math.log(2.0) - xs**2 - c**2,
        ]
    )
    m = terms.max(axis=0)
    log_p = m + np.log(np.sum(np.exp(terms - m), axis=0))
    return from_log_values(xs[0], grid.step, log_p)


def gkp_position_density(
    delta: float, side_peaks: int, spacing: float, grid: GridSpec | None = None
) -> GridDensity:
    """Position density of a finite-energy grid state.

    A comb of Gaussians of width ``delta`` at multiples of ``2*spacing``
    under the standard finite-energy envelope, renormalized on the grid.
    """
    if not delta > 0.0 or side_peaks < 1 or not spacing > 0.0:
        raise InvalidStateSpec("gkp needs delta > 0, side_peaks >= 1, spacing > 0")
    if grid is None:
        grid = GridSpec(max(8.0, 2.0 * side_peaks * spacing + 6.0 * delta + 2.0))
    xs = grid.xs()
    ss = np.arange(-side_peaks, side_peaks + 1)
    centers = 2.0 * spacing * ss
    # envelope weight follows the peak position, exp(-delta^2 x_s^2)
    logs = -(delta**2) * centers[:, None] ** 2 - (
        (xs[None, :] - centers[:, None]) / delta
    ) ** 2
    m = logs.max(axis=0)
    log_p = m + np.log(np.sum(np.exp(logs - m), axis=0))
    return from_log_values(xs[0], grid.step, log_p)


def _gkp_momentum_density(
    delta: float, side_peaks: int, spacing: float, grid: GridSpec
) -> GridDensity:
    """Momentum density of the same grid state: dual comb under exp(-delta^2 p^2)."""
    ps = grid.xs()
    ss = np.arange(1, side_peaks + 1)
    amp = 1.0 + 2.0 * np.sum(
        np.exp(-(delta**2) * (2.0 * spacing * ss[:, None]) ** 2 / 2.0)
        * np.cos(2.0 * spacing * ss[:, None] * ps[None, :]),
        axis=0,
    )
    with np.errstate(divide="ignore"):
        log_p = -(delta**2) * ps**2 + 2.0 * np.log(np.abs(amp))
    return from_log_values(ps[0], grid.step, log_p)


def cubic_momentum_density(gamma: float, grid: GridSpec | None = None) -> GridDensity:
    """Momentum density of the cubic phase state, an exponentially tilted Airy.

    Nonzero gamma only; negative gamma mirrors the density in p.  The closed
    form is unnormalized, so the grid sum is renormalized; the slow exp(-p/6)
    tail on the oscillatory side is truncated by the grid.
    """
    if gamma == 0.0:
        raise InvalidStateSpec("cubic gamma must be nonzero")
    if grid is None:
        grid = GridSpec(14.0)
    if gamma < 0.0:
        # exact mirror: reuse the positive-gamma normalization so the two
        # parities agree to the bit
        d = cubic_momentum_density(-gamma, grid)
        return GridDensity(
            x_min=-d.x_max,
            x_step=d.x_step,
            log_p=d.log_p[::-1].copy(),
            norm_log=d.norm_log,
        )
    ps = grid.xs()
    z = (1.0 - 4.0 * gamma * ps) / (4.0 * gamma ** (4.0 / 3.0))
    ai = np.asarray(airy_ai(z))
    with np.errstate(divide="ignore"):
        log_p = (1.0 - gamma * ps) / (6.0 * gamma**2) + 2.0 * np.log(np.abs(ai))
    return from_log_values(ps[0], grid.step, log_p)


def realize(spec: StateSpec, grid: GridSpec | None = None) -> GridDensity:
    """Produce the quadrature density a :class:`StateSpec` describes."""
    angle = spec.quadrature_angle
    rotated = abs(angle - 0.5 * math.pi) < 1e-12
    if not rotated and abs(angle) > 1e-12 and spec.kind not in ("fock", "mixture"):
        raise AngleUnsupported(
            f"angle {angle!r} has no analytic density for kind {spec.kind!r}"
        )
    if grid is None:
        grid = default_grid(spec)
    if spec.kind == "fock":
        base = fock_density(spec.n, grid)
    elif spec.kind == "mixture":
        base = fock_mixture_density(np.asarray(spec.populations, dtype=float), grid)
    elif spec.kind == "cat":
        base = (
            _cat_position_density(spec.alpha, grid)
            if rotated
            else cat_momentum_density(spec.alpha, grid)
        )
    elif spec.kind == "gkp":
        base = (
            _gkp_momentum_density(spec.delta, spec.side_peaks, spec.spacing, grid)
            if rotated
            else gkp_position_density(spec.delta, spec.side_peaks, spec.spacing, grid)
        )
    else:  # cubic
        if rotated:
            # the cubic phase leaves the position density untouched: pure ground state
            xs = grid.xs()
            base = from_log_values(xs[0], grid.step, -(xs**2))
        else:
            base = cubic_momentum_density(spec.gamma, grid)
    if spec.thermal_nbar > 0.0:
        base = convolve_gaussian(base, spec.thermal_nbar)
    return base
