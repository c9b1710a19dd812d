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
    "gaussian_blur",
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

# Nodes on each side of the centre node in the quartic peak fit.
PEAK_WINDOW = 8
_OFFSETS = np.arange(-PEAK_WINDOW, PEAK_WINDOW + 1)
# _PEAK_FIT @ y: least-squares quartic of values y at _OFFSETS, in steps.
_PEAK_FIT = np.linalg.pinv(np.vander(_OFFSETS.astype(float), 5, increasing=True))


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
    """A maximum refined off the grid on the peak fit of ``log_p``: density
    ``value`` and ``kappa`` = -(log p)'' at ``a`` (at the node, with ``kappa``
    NaN, where the fit's window holds an exact zero)."""

    a: float
    value: float
    kappa: float


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

    :param xs: finite, strictly increasing, uniformly spaced abscissas (>= 64
        of them, uniform to 1e-9 relative tolerance).
    :param ps: nonnegative density samples; zeros are kept exact.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.ndim != 1 or xs.shape != ps.shape:
        raise NonUniformGrid("xs and ps must be 1D arrays of equal length")
    if xs.shape[0] < MIN_NODES:
        raise TooFewPoints(f"need at least {MIN_NODES} nodes, got {xs.shape[0]}")
    if not np.isfinite(xs).all():
        raise NonUniformGrid("xs must be finite")
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


def _quartic(c: np.ndarray, s):
    """Value, slope and second derivative at ``s`` of the quartic(s) ``c[0..4]``."""
    c0, c1, c2, c3, c4 = c
    value = c0 + s * (c1 + s * (c2 + s * (c3 + s * c4)))
    slope = c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * 4.0 * c4))
    return value, slope, 2.0 * c2 + s * (6.0 * c3 + s * 12.0 * c4)


def _peak_fits(y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peak fits of ``y`` around the nodes nearest ``u`` (in steps from the
    first node; a window is moved inside the grid, and its fit is NaN where
    it holds an exact zero), and ``u`` in steps from each window's centre."""
    centre = np.clip(np.rint(u).astype(np.intp), PEAK_WINDOW, y.shape[0] - 1 - PEAK_WINDOW)
    windows = y[centre[:, None] + _OFFSETS]
    windows[np.isinf(windows)] = math.nan
    return _PEAK_FIT @ windows.T, u - centre


def global_maxima(d: GridDensity) -> list[MaximumLocation]:
    """Locate the global maxima on the peak fit, sorted by height.

    Newton steps move each local maximum within one e-fold of the highest
    node to its fit's vertex, at most a step away.  It is global when its
    value is within ``GLOBAL_REL_TOL`` (relative) of the highest.  Raises
    :class:`NoInteriorMaximum` when the density peaks at a grid edge.
    """
    log_p = d.log_p
    top = int(np.argmax(log_p))
    if top == 0 or top == log_p.shape[0] - 1:
        raise NoInteriorMaximum("density is maximized at a grid edge")
    inner = log_p[1:-1]
    is_peak = (inner > log_p[:-2]) & (inner >= log_p[2:]) & (inner >= log_p[top] - 1.0)
    i = np.nonzero(is_peak)[0] + 1
    c, s0 = _peak_fits(log_p, i)
    found = []
    for cj, start, node in zip(c.T.tolist(), s0.tolist(), i.tolist()):
        x = start
        for _ in range(8):
            _, slope, curv = _quartic(cj, x)
            # a window with an exact zero (NaN fit) or a convex fit keeps the node
            step = slope / curv if curv < 0.0 else 0.0
            x = min(max(x - step, start - 1.0), start + 1.0)
            if abs(step) < 1e-9:  # converged: the next step would be ~1e-18
                break
        lv, _, curv = _quartic(cj, x)
        value = math.exp((log_p[node] if math.isnan(lv) else lv) - d.norm_log)
        a = d.x_min + (node + x - start) * d.x_step
        found.append(MaximumLocation(a, value, -curv / d.x_step**2))
    floor = (1.0 - GLOBAL_REL_TOL) * max(m.value for m in found)
    # a stable sort keeps equal heights in grid order
    return sorted((m for m in found if m.value >= floor), key=lambda m: -m.value)


def log_peak_fit(d: GridDensity, x: float) -> tuple[float, float]:
    """Slope and curvature -(log p)'' at ``x`` of the peak fit around the node
    nearest ``x`` (not finite where its window holds an exact zero)."""
    c, s = _peak_fits(d.log_p, np.array([(x - d.x_min) / d.x_step]))
    _, slope, curv = _quartic(c[:, 0], s[0])
    return float(slope / d.x_step), float(-curv / d.x_step**2)


def curvature_at(d: GridDensity, a: float) -> float:
    """Second derivative of the density at ``a``: the peak fit of the values
    around the node nearest ``a``, exact for quartics to machine precision."""
    u = (a - d.x_min) / d.x_step
    if not PEAK_WINDOW <= round(u) <= d.n_nodes - 1 - PEAK_WINDOW:
        raise WindowOutOfRange(
            f"window of {PEAK_WINDOW} nodes around {a!r} falls outside the grid"
        )
    c, s = _peak_fits(d.values(), np.array([u]))
    _, _, curv = _quartic(c[:, 0], s[0])
    return float(curv / d.x_step**2)


def _next_fast_len(n: int) -> int:
    """Smallest m >= n whose prime factors are all at most 5, for n >= 1.

    numpy's pocketfft runs these lengths fastest; a factor of 7 or 11 costs
    it about 1.5x.
    """
    # m < 2n, so no prime's exponent in m exceeds k = bit_length(2n), and m
    # divides 30**k = (2*3*5)**k exactly when it is 5-smooth
    smooth = 30 ** (2 * n).bit_length()
    m = n
    while smooth % m:
        m += 1
    return m


# exp(-x) is exactly 0.0 in double precision for every x above this.
_EXP_UNDERFLOW = 746.0


def gaussian_blur(d: GridDensity, var_max: float):
    """Blurs of ``d`` by zero-mean Gaussians of variance 0 to ``var_max``.

    The density is padded once for ``var_max`` and transformed once; the
    returned ``blur(var)`` multiplies that spectrum by the exact Gaussian
    characteristic function, which preserves normalization identically, and
    transforms back onto the input grid extended by its own variance's pad,
    so the smeared tails still decay at the edges.  ``blur(var_max)`` is
    :func:`convolve_gaussian` to the bit; a smaller variance matches it to
    roundoff.  Raises :class:`InsufficientSupport` when ``d`` does not decay
    at its edges, and ``blur`` raises ``ValueError`` outside [0, var_max].
    """
    if not var_max >= 0.0:
        raise ValueError("Gaussian variance must be nonnegative")
    v = d.values()
    vmax = float(v.max())
    if v[0] > _EDGE_DECAY_GUARD * vmax or v[-1] > _EDGE_DECAY_GUARD * vmax:
        raise InsufficientSupport(
            f"density does not decay at the grid edges: its first and last nodes hold "
            f"{v[0] / vmax:.3g} and {v[-1] / vmax:.3g} of the peak, above the "
            f"{_EDGE_DECAY_GUARD:g} guard"
        )
    h = d.x_step
    n = d.n_nodes

    def pad_of(var: float) -> int:
        return int(math.ceil(10.0 * math.sqrt(var) / h)) + 8

    pad_max = pad_of(var_max)
    # the zero pads keep any circular wrap at least 10 sigma away (e^-50)
    nfft = _next_fast_len(n + 2 * pad_max)
    spec = np.fft.rfft(np.concatenate([np.zeros(pad_max), v, np.zeros(pad_max)]), n=nfft)
    d_omega = 2.0 * math.pi / (nfft * h)
    omega_sq = (d_omega * np.arange(spec.shape[0])) ** 2

    def blur(var: float) -> GridDensity:
        if not 0.0 <= var <= var_max:
            raise ValueError(f"Gaussian variance must lie in [0, {var_max}], got {var!r}")
        if var == 0.0:
            return d
        pad = pad_of(var)
        # the characteristic function underflows to 0 above the band
        band = min(spec.shape[0], int(math.sqrt(2.0 * _EXP_UNDERFLOW / var) / d_omega) + 1)
        out = np.fft.irfft(spec[:band] * np.exp(-0.5 * var * omega_sq[:band]), n=nfft)
        out = out[pad_max - pad : pad_max + n + pad]
        np.clip(out, 0.0, None, out=out)
        with np.errstate(divide="ignore"):
            log_out = np.log(out)
        return from_log_values(d.x_min - pad * h, h, log_out)

    return blur


def convolve_gaussian(d: GridDensity, var: float) -> GridDensity:
    """Convolve with a zero-mean Gaussian of variance ``var``: the one blur of
    :func:`gaussian_blur` whose transform is padded for ``var`` itself."""
    if var == 0.0:
        return d
    return gaussian_blur(d, var)(var)


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
