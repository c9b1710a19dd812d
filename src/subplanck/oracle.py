"""Monte Carlo simulation of the physical interference-and-postselect protocol.

The deterministic pipeline computes conditioned densities directly; this
module actually runs the protocol on random samples, so the two routes check
each other.  Samples are drawn by inverse transform on the trapezoid CDF;
each layer mixes sample pairs on a balanced beamsplitter, keeps the sum port,
and postselects the difference port inside a finite window around the
conditioning value.  A necessary condition for passing the first layer's
window, on the gap between a pair's uniforms, drops most pairs before they
are drawn; the window test still decides the rest, so the samples, counts
and errors are those of drawing every pair, byte for byte.  Exact-point
conditioning has probability zero, so the window width ``eps`` is the price
of a physical realization and its bias is what the comparison measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import GridDensity
from .errors import NoAcceptedSamples, PreconditionError, TooFewSamples

__all__ = [
    "ProtocolRun",
    "sample_density",
    "simulate_protocol",
    "ks_distance",
]

MAX_PROTOCOL_LAYERS = 4
_SQRT2 = math.sqrt(2.0)
_DEFAULT_BATCH = 1 << 17
_CELLS_PER_NODE = 16
_CHUNK = 1 << 14


@dataclass(frozen=True)
class ProtocolRun:
    """Outcome of a simulated run: surviving samples plus bookkeeping.

    ``attempted`` counts full protocol attempts (2^N input samples each),
    so ``acceptance_rate`` is the per-attempt success probability.
    """

    samples_out: np.ndarray
    accepted: int
    attempted: int
    window_eps: float
    seed: int
    ks_vs_deterministic: float | None = field(default=None)

    def __post_init__(self) -> None:
        self.samples_out.setflags(write=False)
        if self.accepted > self.attempted:
            raise PreconditionError("accepted exceeds attempted")

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempted if self.attempted else 0.0

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "attempted": self.attempted,
            "acceptance_rate": self.acceptance_rate,
            "ks_vs_deterministic": self.ks_vs_deterministic,
            "window_eps": self.window_eps,
            "seed": self.seed,
        }


def _cdf_nodes(p: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    xs = p.xs()
    vals = p.values()
    increments = 0.5 * (vals[1:] + vals[:-1]) * p.x_step
    cdf = np.concatenate(([0.0], np.cumsum(increments)))
    cdf /= cdf[-1]
    return xs, cdf


class _InverseCdf:
    """Inverse transform of uniform draws: ``np.interp(u, cdf, xs)``, faster.

    ``np.interp`` binary-searches every draw.  A guide table (Chen & Asau,
    1974) splits [0, 1) into at least ``_CELLS_PER_NODE`` cells per node,
    rounded up to a power of two so that ``u * cells`` and the cell edges are
    exact.  Each cell stores the last node with ``cdf[j] <= start`` and the
    next node's CDF value, so one comparison finds the node of any draw in a
    cell that holds at most one node boundary.  Wider cells (zero-width and
    tail steps) are flagged and searched.  The value then follows numpy's own
    formula, its ``u == cdf[j]`` case and its NaN fallback, so the result
    equals ``np.interp`` bit for bit.

    Every step rises at least ``_min_slope = min(diff(xs)) / max(diff(cdf))``
    (0.0, bounding nothing, where that is not finite and positive), so the
    draws of u and v lie at least ``_min_slope * |u - v|`` apart.
    """

    def __init__(self, xs: np.ndarray, cdf: np.ndarray) -> None:
        cells = 1 << (_CELLS_PER_NODE * cdf.size - 1).bit_length()
        edges = np.arange(cells + 1) / cells
        bounds = np.searchsorted(cdf, edges, side="right") - 1
        guide = bounds[:-1]
        padded = np.concatenate((cdf, [np.inf, np.inf]))
        self._cells = cells
        self._guide = guide
        self._next_cdf = padded[guide + 1]
        self._wide = padded[guide + 2] < edges[1:]
        self._xs = xs
        self._cdf = cdf
        # zero-width steps give infinite slopes, which no draw selects
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self._slope = np.diff(xs) / np.diff(cdf)
            min_slope = np.min(np.diff(xs)) / np.max(np.diff(cdf))
        self._min_slope = float(min_slope) if 0.0 < min_slope < math.inf else 0.0

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The transform of ``rng.random(count)``, drawn in fixed chunks.

        Chunks hold the stream unchanged and keep the temporaries small: no
        array of a whole batch's uniform draws is ever held.
        """
        out = np.empty(count)
        for lo in range(0, count, _CHUNK):
            part = out[lo : lo + _CHUNK]
            part[:] = self._draw(rng.random(part.size))
        return out

    def near_pairs(
        self, rng: np.random.Generator, count: int, shift: float, reach: float
    ) -> np.ndarray:
        """Exact draws of the pairs ``(2i, 2i + 1)`` of ``rng.random(count)``,
        read in the even-sized chunks of ``__call__``, but for those whose
        uniforms lie over ``(|shift| + reach) / _min_slope`` apart, so that
        their draws provably differ by more than ``reach`` from ``shift``."""
        bound = (abs(shift) + reach) / self._min_slope if self._min_slope else math.inf
        picked = []
        for lo in range(0, count, _CHUNK):
            u = rng.random(min(_CHUNK, count - lo))
            pairs = u[: u.size & ~1].reshape(-1, 2)
            picked.append(pairs.compress(~(np.abs(pairs[:, 0] - pairs[:, 1]) > bound), 0))
        return self._draw(np.concatenate(picked).ravel())

    def _draw(self, u: np.ndarray) -> np.ndarray:
        """``np.interp(u, cdf, xs)`` for u in [0, 1)."""
        cell = (u * self._cells).astype(np.intp)
        j = self._guide[cell]
        j += u >= self._next_cdf[cell]
        wide = self._wide[cell]
        if wide.any():
            j[wide] = np.searchsorted(self._cdf, u[wide], side="right") - 1
        x = self._xs[j]
        c = self._cdf[j]
        slope = self._slope[j]
        # as in np.interp, a NaN on the way to the fallback is not an error
        with np.errstate(invalid="ignore"):
            # slope * (u - c) + x, in place
            out = u - c
            out *= slope
            out += x
            bad = np.isnan(out)
            if bad.any():
                # numpy retries from the step's right end, then takes a flat value
                jb = j[bad] + 1
                retry = slope[bad] * (u[bad] - self._cdf[jb]) + self._xs[jb]
                flat = np.isnan(retry) & (x[bad] == self._xs[jb])
                retry[flat] = x[bad][flat]
                out[bad] = retry
        # a draw on a node takes the node's position, ahead of any fallback
        np.copyto(out, x, where=u == c)
        return out


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise PreconditionError(f"seed must be a nonnegative integer, got {seed!r}")


def sample_density(p: GridDensity, count: int, seed: int) -> np.ndarray:
    """Draw i.i.d. samples by inverse transform on the trapezoid CDF."""
    if count < 1:
        raise PreconditionError("count must be at least 1")
    _check_seed(seed)
    draw = _InverseCdf(*_cdf_nodes(p))
    rng = np.random.default_rng(seed)
    return draw(rng, count)


def simulate_protocol(
    p: GridDensity,
    layers: int,
    xbar: float = 0.0,
    eps: float = 0.02,
    batches: int = 64,
    seed: int = 0,
    batch_size: int = _DEFAULT_BATCH,
) -> ProtocolRun:
    """Run the N-layer conditioned interference protocol on samples of ``p``.

    Within a batch every layer is pooled: all pairs of the surviving
    population interfere at once.  Survival of each pair is independent of
    every other pair, so pooling leaves both the output distribution and the
    expected acceptance rate identical to attempt-by-attempt simulation while
    the batch runs as a handful of array operations.  Batch ``index`` draws
    ``batch_size`` uniforms from its own ``(seed, index)`` stream.

    The first layer is squeezed: a pair whose uniforms' gap shows that its
    draws differ from ``sqrt(2) * xbar`` by more than ``sqrt(2) * eps``, plus
    a relative allowance for rounding, cannot pass the window and is never
    interpolated.  The samples, counts and errors equal those of drawing the
    whole batch, bit for bit.
    """
    if not 1 <= layers <= MAX_PROTOCOL_LAYERS:
        raise PreconditionError(
            f"layers must be in [1, {MAX_PROTOCOL_LAYERS}], got {layers}"
        )
    if not eps > 0.0:
        raise PreconditionError("window eps must be positive")
    if batches < 1 or batch_size < (1 << layers):
        raise PreconditionError("need at least one batch of 2^layers samples")
    _check_seed(seed)
    draw = _InverseCdf(*_cdf_nodes(p))
    shift = _SQRT2 * xbar
    reach = _SQRT2 * eps
    reach += 1e-9 * (reach + abs(shift) + 2.0 * max(abs(p.x_min), abs(p.x_max)))
    per_attempt = 1 << layers
    kept: list[np.ndarray] = []
    attempted = 0
    for index in range(batches):
        rng = np.random.default_rng([seed, index])
        pool = draw.near_pairs(rng, batch_size, shift, reach)
        attempted += batch_size // per_attempt
        for _ in range(layers):
            if pool.size < 2:
                pool = pool[:0]
                break
            if pool.size % 2:
                pool = pool[:-1]
            a = pool[0::2]
            b = pool[1::2]
            keep = np.abs((a - b) / _SQRT2 - xbar) <= eps
            pool = ((a + b) / _SQRT2)[keep]
        kept.append(pool)
    samples = np.concatenate(kept)
    if samples.size == 0:
        raise NoAcceptedSamples(
            f"no attempt survived {layers} layers at eps={eps:g}"
        )
    return ProtocolRun(
        samples_out=samples,
        accepted=int(samples.size),
        attempted=attempted,
        window_eps=eps,
        seed=seed,
    )


def ks_distance(samples: np.ndarray, p: GridDensity) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against the density's CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < 100:
        raise TooFewSamples(f"need at least 100 samples, got {n}")
    xs, cdf = _cdf_nodes(p)
    model = np.interp(s, xs, cdf, left=0.0, right=1.0)
    ranks = np.arange(1, n + 1) / n
    return float(max(np.max(ranks - model), np.max(model - (ranks - 1.0 / n))))
