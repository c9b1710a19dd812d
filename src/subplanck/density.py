"""Log-domain numerics for 1D probability densities on uniform grids.

Densities are stored as log values on a uniform grid together with a
normalization constant, so that repeated products of many copies (which
underflow catastrophically in linear space) stay exact.  Exact zeros are
represented as ``-inf`` and survive every operation.

Conventions: quadrature variance of the ground state is 1/2, integrals are
trapezoidal, and interpolation of the log density is linear between nodes.
All operations return new objects; grids are immutable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .errors import (
    ConfigError,
    DegenerateResult,
    GridTooNarrow,
    InsufficientSupport,
    NegativeDensity,
    NoInteriorMaximum,
    NonUniformGrid,
    NotPowerOfTwo,
    PreconditionError,
    TooFewPoints,
    WindowOutOfRange,
    ZeroMass,
)

__all__ = [
    "GridSpec",
    "GridDensity",
    "MaximumLocation",
    "make_grid_density",
    "mean",
    "variance",
    "global_maxima",
    "curvature_at",
    "convolve_gaussian",
    "pow_scale",
    "shift",
    "read_density_csv",
    "write_density_csv",
]

MIN_NODES = 64

# Input edges must stay below this fraction of the peak before an operation
# that pads the grid with exact zeros may run.
_EDGE_DECAY_GUARD = 1e-9

# Maxima within this relative height of the highest count as global.
GLOBAL_REL_TOL = 1e-3

# Nodes on each side of the point in the quartic curvature fit.
CURVATURE_WINDOW = 8


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid on [-extent, extent]."""

    extent: float
    nodes: int = 4096

    def __post_init__(self) -> None:
        if isinstance(self.extent, bool) or not isinstance(self.extent, (int, float, np.integer)):
            raise PreconditionError(f"extent must be a number, got {self.extent!r}")
        if not (math.isfinite(self.extent) and self.extent > 0.0):
            raise GridTooNarrow(
                f"grid extent must be finite and positive, got {self.extent!r}"
            )
        if isinstance(self.nodes, bool) or not isinstance(self.nodes, (int, np.integer)):
            raise PreconditionError(f"nodes must be an integer, got {self.nodes!r}")
        if self.nodes < MIN_NODES:
            raise TooFewPoints(f"need at least {MIN_NODES} nodes, got {self.nodes}")

    def xs(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.nodes)

    @property
    def step(self) -> float:
        return 2.0 * self.extent / (self.nodes - 1)


@dataclass(frozen=True)
class GridDensity:
    """Normalized probability density sampled on a uniform grid.

    ``log_p`` holds unnormalized log values (``-inf`` for exact zeros) and
    ``norm_log`` the log of their trapezoidal integral, so the density at
    node i is ``exp(log_p[i] - norm_log)``.
    """

    x_min: float
    x_step: float
    log_p: np.ndarray
    norm_log: float

    def __post_init__(self) -> None:
        self.log_p.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.log_p.shape[0]

    @property
    def x_max(self) -> float:
        return self.x_min + self.x_step * (self.n_nodes - 1)

    def xs(self) -> np.ndarray:
        return self.x_min + self.x_step * np.arange(self.n_nodes)

    def log_values(self) -> np.ndarray:
        """Normalized log density at the nodes."""
        return self.log_p - self.norm_log

    def values(self) -> np.ndarray:
        """Normalized density at the nodes."""
        return np.exp(self.log_values())


@dataclass(frozen=True)
class MaximumLocation:
    """A local maximum refined off the grid by a three-point parabola."""

    a: float
    value: float


def log_norm(log_p: np.ndarray, x_step: float) -> float:
    """Log of the trapezoidal integral of exp(log_p), checked.

    Raises :class:`TooFewPoints`, :class:`NonUniformGrid`,
    :class:`NegativeDensity` (``+inf`` or NaN) and :class:`ZeroMass`: the
    checks every :class:`GridDensity` passes.
    """
    if log_p.ndim != 1 or log_p.shape[0] < MIN_NODES:
        raise TooFewPoints(f"need at least {MIN_NODES} nodes, got {log_p.shape[0]}")
    if x_step <= 0.0:
        raise NonUniformGrid("grid step must be positive")
    # NaN and +inf both propagate to the maximum
    top = log_p.max()
    if not top < math.inf:
        raise NegativeDensity("log density must be finite or -inf")
    finite = np.isfinite(log_p)
    w = np.full(log_p.shape[0], x_step)
    w[0] *= 0.5
    w[-1] *= 0.5
    # with every entry finite the compress would copy the same array
    if not finite.all():
        log_p, w = log_p[finite], w[finite]
    terms = np.exp(log_p - top)
    terms *= w
    total = terms.sum()
    norm = top + math.log(total) if total > 0.0 else -math.inf
    if not math.isfinite(norm):
        raise ZeroMass("density integrates to zero")
    return norm


def from_log_values(x_min: float, x_step: float, log_p: np.ndarray) -> GridDensity:
    """Normalize raw log values into a :class:`GridDensity`."""
    log_p = np.asarray(log_p, dtype=float).copy()
    return GridDensity(float(x_min), float(x_step), log_p, log_norm(log_p, x_step))


def make_grid_density(xs: np.ndarray, ps: np.ndarray) -> GridDensity:
    """Build a normalized density from sampled values.

    :param xs: strictly increasing, uniformly spaced abscissas (>= 64 of them,
        uniform to 1e-9 relative tolerance).
    :param ps: nonnegative density samples; zeros are kept exact.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.ndim != 1 or xs.shape != ps.shape:
        raise NonUniformGrid("xs and ps must be 1D arrays of equal length")
    if xs.shape[0] < MIN_NODES:
        raise TooFewPoints(f"need at least {MIN_NODES} nodes, got {xs.shape[0]}")
    steps = np.diff(xs)
    h = float(np.mean(steps))
    if h <= 0.0 or np.any(steps <= 0.0):
        raise NonUniformGrid("xs must be strictly increasing")
    if np.max(np.abs(steps - h)) > 1e-9 * abs(h):
        raise NonUniformGrid("xs are not uniformly spaced")
    if np.isnan(ps).any() or np.any(ps < 0.0):
        raise NegativeDensity("density values must be nonnegative")
    with np.errstate(divide="ignore"):
        log_p = np.log(ps)
    return from_log_values(float(xs[0]), h, log_p)


def mean(d: GridDensity) -> float:
    xs = d.xs()
    v = d.values()
    return float(np.trapezoid(xs * v, dx=d.x_step))


def variance(d: GridDensity) -> float:
    xs = d.xs()
    v = d.values()
    m1 = float(np.trapezoid(xs * v, dx=d.x_step))
    m2 = float(np.trapezoid(xs * xs * v, dx=d.x_step))
    return m2 - m1 * m1


def global_maxima(d: GridDensity) -> list[MaximumLocation]:
    """Locate the global maxima, parabola-refined, sorted by height.

    An interior local maximum is global when its refined value is within
    ``GLOBAL_REL_TOL`` (relative) of the highest one.  Raises
    :class:`NoInteriorMaximum` when the density peaks at a grid edge.
    """
    v = d.values()
    n = v.shape[0]
    top = int(np.argmax(v))
    if top == 0 or top == n - 1:
        raise NoInteriorMaximum("density is maximized at a grid edge")
    inner = v[1:-1]
    is_peak = (inner > v[:-2]) & (inner >= v[2:])
    i = np.nonzero(is_peak)[0] + 1
    h = d.x_step
    y1, y2, y3 = v[i - 1], v[i], v[i + 1]
    denom = y1 - 2.0 * y2 + y3
    # a flat triple keeps the node itself: delta = 0 gives a = x_i, value = y2
    flat = denom >= 0.0
    delta = np.divide(0.5 * (y1 - y3), denom, out=np.zeros_like(denom), where=~flat)
    delta = np.clip(delta, -1.0, 1.0)
    a = d.x_min + (i + delta) * h
    value = y2 - 0.25 * (y1 - y3) * delta
    keep = value >= (1.0 - GLOBAL_REL_TOL) * value.max()
    a, value = a[keep], value[keep]
    # a stable sort keeps equal heights in grid order
    order = np.argsort(-value, kind="stable")
    columns = (x[order].tolist() for x in (a, value))
    return [MaximumLocation(*fields) for fields in zip(*columns)]


def curvature_at(d: GridDensity, a: float) -> float:
    """Second derivative of the density at ``a`` from a quartic LSQ fit.

    The fit uses ``2*CURVATURE_WINDOW + 1`` nodes centered on the node
    nearest ``a`` and reproduces exact quartics to machine precision.
    """
    window = CURVATURE_WINDOW
    j = int(round((a - d.x_min) / d.x_step))
    if j - window < 0 or j + window > d.n_nodes - 1:
        raise WindowOutOfRange(
            f"window of {window} nodes around {a!r} falls outside the grid"
        )
    idx = np.arange(j - window, j + window + 1)
    xs = d.x_min + d.x_step * idx
    s = (xs - a) / d.x_step
    y = np.exp(d.log_p[idx] - d.norm_log)
    coef = np.polynomial.polynomial.polyfit(s, y, 4)
    return float(2.0 * coef[2] / d.x_step**2)


def convolve_gaussian(d: GridDensity, var: float) -> GridDensity:
    """Convolve with a zero-mean Gaussian of variance ``var``.

    The grid is extended so the smeared tails still decay at the edges; the
    convolution itself runs through an FFT against the exact Gaussian
    characteristic function, which preserves normalization identically.
    """
    if var < 0.0:
        raise ValueError("Gaussian variance must be nonnegative")
    if var == 0.0:
        return d
    v = d.values()
    vmax = float(v.max())
    if v[0] > _EDGE_DECAY_GUARD * vmax or v[-1] > _EDGE_DECAY_GUARD * vmax:
        raise InsufficientSupport(
            "density does not decay at the grid edges; widen the grid first"
        )
    h = d.x_step
    sigma = math.sqrt(var)
    pad = int(math.ceil(10.0 * sigma / h)) + 8
    ext = np.concatenate([np.zeros(pad), v, np.zeros(pad)])
    nfft = scipy.fft.next_fast_len(ext.shape[0] + pad)
    omega = 2.0 * math.pi * np.fft.rfftfreq(nfft, d=h)
    spec = np.fft.rfft(ext, n=nfft) * np.exp(-0.5 * var * omega**2)
    out = np.fft.irfft(spec, n=nfft)[: ext.shape[0]]
    np.clip(out, 0.0, None, out=out)
    with np.errstate(divide="ignore"):
        log_out = np.log(out)
    return from_log_values(d.x_min - pad * h, h, log_out)


def pow_scale(d: GridDensity, copies: int) -> GridDensity:
    """Distill ``copies`` = 2**N copies: density proportional to P(x/sqrt(M))**M.

    Output nodes are the input nodes scaled by sqrt(M), so the M-fold log
    product is exact (no interpolation).  Exact zeros propagate.
    """
    if copies < 1 or (copies & (copies - 1)) != 0:
        raise NotPowerOfTwo(f"copy count must be a power of two, got {copies}")
    if copies == 1:
        return d
    r = math.sqrt(copies)
    log_new = copies * (d.log_p - d.norm_log)
    if not np.isfinite(log_new).any():
        raise DegenerateResult("all density values vanished under powering")
    return from_log_values(d.x_min * r, d.x_step * r, log_new)


def shift(d: GridDensity, offset: float) -> GridDensity:
    """Translate the density by ``offset`` (exact; only the grid origin moves)."""
    return replace(d, x_min=d.x_min + float(offset))


def log_interp(d: GridDensity, xq: np.ndarray) -> np.ndarray:
    """Normalized log density at arbitrary points.

    Linear interpolation of the log between nodes; exact zeros propagate to
    the whole adjacent open interval, and points outside the grid are zero.
    """
    xq = np.asarray(xq, dtype=float)
    t = (xq - d.x_min) / d.x_step
    n = d.n_nodes
    out = np.full(xq.shape, -math.inf)
    inside = (t >= 0.0) & (t <= n - 1)
    ti = t[inside]
    i0 = np.minimum(np.floor(ti), n - 2).astype(np.intp)
    frac = ti - i0
    left = d.log_p[i0]
    right = d.log_p[i0 + 1]
    with np.errstate(invalid="ignore"):
        val = (1.0 - frac) * left + frac * right
    # at an exact node the neighbor's -inf must not bleed in
    val = np.where(frac == 0.0, left, val)
    # 0 * -inf and NaN nodes give NaN; it reads as an exact zero
    val = np.where(np.isnan(val), -math.inf, val)
    out[inside] = val - d.norm_log
    return out


def read_two_columns(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the first two columns of a CSV file as floats.

    Blank lines and unparseable lines before the first data row (a header)
    are skipped.  Raises :class:`ConfigError` when the file cannot be read
    and :class:`PreconditionError` naming the line when a later row is not
    two numbers.
    """
    first: list[float] = []
    second: list[float] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or not row[0].strip():
                    continue
                try:
                    a = float(row[0])
                    b = float(row[1])
                except (ValueError, IndexError) as exc:
                    if not first:  # header line
                        continue
                    raise PreconditionError(
                        f"{path}, line {reader.line_num}: expected two numbers, "
                        f"got {row!r}"
                    ) from exc
                first.append(a)
                second.append(b)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return np.array(first), np.array(second)


def read_density_csv(path: str) -> GridDensity:
    """Load ``x,density`` rows (header optional) into a normalized density."""
    xs, ps = read_two_columns(path)
    return make_grid_density(xs, ps)


def write_density_csv(d: GridDensity, path: str) -> None:
    xs = d.xs()
    v = d.values()
    with open(path, "w", newline="") as fh:
        fh.write("x,density\n")
        for x, p in zip(xs, v):
            fh.write(f"{x:.17g},{p:.17g}\n")
