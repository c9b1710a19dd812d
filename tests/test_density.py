"""Grid-density kernel: construction, moments, maxima, curvature, convolution,
log-domain power scaling."""

import dataclasses
import math

import numpy as np
import pytest

from subplanck.density import (
    GridDensity,
    GridSpec,
    MaximumLocation,
    convolve_gaussian,
    curvature_at,
    from_log_values,
    global_maxima,
    log_interp,
    make_grid_density,
    mean,
    pow_scale,
    read_density_csv,
    shift,
    variance,
    write_density_csv,
)
from subplanck.distill import displace_to_origin
from subplanck.errors import (
    NegativeDensity,
    NonUniformGrid,
    NoInteriorMaximum,
    NotPowerOfTwo,
    PreconditionError,
    TooFewPoints,
    WindowOutOfRange,
    ZeroMass,
)
from subplanck.oracle import sample_density
from subplanck.states import StateSpec, default_grid, realize

SQRT_PI = math.sqrt(math.pi)


def gaussian_density(sigma2: float, mu: float = 0.0, extent: float = 8.0, nodes: int = 4096):
    xs = GridSpec(extent, nodes).xs()
    return make_grid_density(xs, np.exp(-0.5 * (xs - mu) ** 2 / sigma2))


def ground_density(extent: float = 8.0, nodes: int = 4096):
    return gaussian_density(0.5, extent=extent, nodes=nodes)


def fock1_density(extent: float = 10.0, nodes: int = 4096):
    xs = GridSpec(extent, nodes).xs()
    return make_grid_density(xs, 2.0 * xs**2 * np.exp(-(xs**2)) / SQRT_PI)


class TestConstruction:
    def test_ground_state_normalized(self):
        d = ground_density()
        xs = d.xs()
        integral = np.trapezoid(d.values(), xs)
        assert abs(integral - 1.0) <= 1e-9
        assert abs(variance(d) - 0.5) <= 1e-6

    def test_fock1_variance(self):
        assert abs(variance(fock1_density()) - 1.5) <= 1e-6

    def test_zeros_stored_as_negative_infinity(self):
        xs = GridSpec(8.0, 512).xs()
        ps = np.exp(-(xs**2))
        ps[100] = 0.0
        d = make_grid_density(xs, ps)
        assert np.isneginf(d.log_p[100])
        assert d.values()[100] == 0.0

    def test_negative_entry_rejected(self):
        xs = GridSpec(8.0, 512).xs()
        ps = np.exp(-(xs**2))
        ps[10] = -1e-3
        with pytest.raises(NegativeDensity):
            make_grid_density(xs, ps)

    def test_nonuniform_grid_rejected(self):
        xs = GridSpec(8.0, 512).xs().copy()
        xs[200] += 1e-3
        with pytest.raises(NonUniformGrid):
            make_grid_density(xs, np.exp(-(xs**2)))

    def test_zero_mass_rejected(self):
        xs = GridSpec(8.0, 512).xs()
        with pytest.raises(ZeroMass):
            make_grid_density(xs, np.zeros_like(xs))

    def test_too_few_points_rejected(self):
        xs = np.linspace(-8.0, 8.0, 63)
        with pytest.raises(TooFewPoints):
            make_grid_density(xs, np.exp(-(xs**2)))


class TestGridSpec:
    @pytest.mark.parametrize("nodes", [4096.0, np.float64(4096), True, "4096", None], ids=repr)
    def test_nodes_must_be_an_integer(self, nodes):
        with pytest.raises(PreconditionError, match=r"^nodes must be an integer"):
            GridSpec(10.0, nodes)

    @pytest.mark.parametrize("extent", ["10", None, True, [10.0]], ids=repr)
    def test_extent_must_be_a_number(self, extent):
        with pytest.raises(PreconditionError, match=r"^extent must be a number"):
            GridSpec(extent, 4096)

    @pytest.mark.parametrize("extent", [10, np.float64(10.0), np.int64(10)], ids=repr)
    def test_numeric_extent_types(self, extent):
        assert np.array_equal(GridSpec(extent, 512).xs(), GridSpec(10.0, 512).xs())

    def test_numpy_integer_nodes(self):
        grid = GridSpec(10.0, np.int64(512))
        assert np.array_equal(grid.xs(), GridSpec(10.0, 512).xs())
        assert grid.step == GridSpec(10.0, 512).step


class TestMoments:
    def test_mean_of_offset_gaussian(self):
        d = gaussian_density(0.5, mu=1.5)
        assert abs(mean(d) - 1.5) <= 1e-9

    def test_variance_translation_invariant(self):
        d = fock1_density()
        shifted = shift(d, 3.0)
        assert abs(variance(shifted) - variance(d)) <= 1e-9

    def test_shift_moves_maxima(self):
        d = ground_density()
        moved = shift(d, 2.0)
        locs = global_maxima(moved)
        assert abs(locs[0].a - 2.0) <= 1e-9


class TestGlobalMaxima:
    def test_ground_single_maximum_at_zero(self):
        locs = global_maxima(ground_density())
        assert len(locs) == 1
        assert abs(locs[0].a) <= 1e-6

    def test_fock1_twin_maxima(self):
        locs = global_maxima(fock1_density())
        assert len(locs) == 2
        assert sorted(abs(m.a) for m in locs) == pytest.approx([1.0, 1.0], abs=1e-4)

    def test_sorted_descending_by_value(self):
        locs = global_maxima(fock1_density())
        values = [m.value for m in locs]
        assert values == sorted(values, reverse=True)

    def test_edge_maximum_rejected(self):
        xs = GridSpec(2.0, 256).xs()
        with pytest.raises(NoInteriorMaximum):
            global_maxima(make_grid_density(xs, np.exp(xs)))

    def test_refined_within_one_step(self):
        d = gaussian_density(0.5, mu=0.3)
        locs = global_maxima(d)
        assert abs(locs[0].a - 0.3) <= d.x_step


@dataclasses.dataclass(frozen=True)
class LoopMaximum:
    a: float
    value: float
    is_global: bool


def loop_global_maxima(d, rel_tol=1e-3):
    """The seed-by-seed parabola refinement that global_maxima replaced.

    Returns every interior local maximum, each flagged global or not.
    """
    v = d.values()
    inner = v[1:-1]
    seeds = np.nonzero((inner > v[:-2]) & (inner >= v[2:]))[0] + 1
    h = d.x_step
    out = []
    for i in seeds:
        y1, y2, y3 = v[i - 1], v[i], v[i + 1]
        denom = y1 - 2.0 * y2 + y3
        if denom >= 0.0:
            out.append(LoopMaximum(d.x_min + i * h, float(y2), False))
            continue
        delta = float(np.clip(0.5 * (y1 - y3) / denom, -1.0, 1.0))
        a = d.x_min + (i + delta) * h
        value = y2 - 0.25 * (y1 - y3) * delta
        out.append(LoopMaximum(float(a), float(value), False))
    vmax = max(loc.value for loc in out)
    out = [
        dataclasses.replace(loc, is_global=loc.value >= (1.0 - rel_tol) * vmax)
        for loc in out
    ]
    out.sort(key=lambda loc: -loc.value)
    return out


def loop_globals(d):
    """The loop's global maxima as global_maxima returns them."""
    return [
        MaximumLocation(m.a, m.value)
        for m in loop_global_maxima(d)
        if m.is_global
    ]


def flat_triple_density():
    """A parabola whose peak triple rounds to denom == 0 exactly."""
    xs = -4.0 + 0.08 * np.arange(101)
    log_p = -(xs**2)
    log_p[49:52] = (math.log1p(-(2.0**-53)), 0.0, 0.0)
    return GridDensity(-4.0, 0.08, log_p, 0.0)


BIT_EXACT_SPECS = {
    **{
        f"fock{n}-nbar{nbar}": StateSpec(kind="fock", n=n, thermal_nbar=nbar)
        for n in range(1, 11)
        for nbar in (0.0, 0.02, 0.1, 0.5, 2.0)
    },
    "cat": StateSpec(kind="cat", alpha=2.0),
    "gkp": StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=SQRT_PI),
    "mixture": StateSpec(kind="mixture", populations=(0.2, 0.5, 0.3), thermal_nbar=0.1),
}


def assert_plain_fields(maxima):
    for m in maxima:
        assert type(m.a) is float and type(m.value) is float


class TestGlobalMaximaBitExact:
    """The vectorized refinement returns the loop's global maxima to the bit."""

    @pytest.mark.parametrize("copies", [1, 4])
    @pytest.mark.parametrize("name", list(BIT_EXACT_SPECS))
    def test_matches_loop(self, name, copies):
        d = pow_scale(realize(BIT_EXACT_SPECS[name]), copies)
        got = global_maxima(d)
        assert got == loop_globals(d)
        assert_plain_fields(got)

    @pytest.mark.parametrize("copies", [1, 4])
    def test_noisy_histogram_matches_loop(self, copies):
        spec = StateSpec(kind="fock", n=1)
        extent = default_grid(spec).extent
        draws = sample_density(realize(spec), 10**6, seed=2024)
        counts, edges = np.histogram(draws, bins=701, range=(-extent, extent))
        centres = 0.5 * (edges[1:] + edges[:-1])
        d = pow_scale(make_grid_density(centres, counts.astype(float)), copies)
        got = global_maxima(d)
        assert got == loop_globals(d)
        assert_plain_fields(got)

    def test_ripple_maxima_get_no_record(self):
        d = realize(StateSpec(kind="fock", n=1, thermal_nbar=0.02))
        assert len(loop_global_maxima(d)) == 529
        assert len(global_maxima(d)) == 2

    def test_flat_triple_keeps_the_node(self):
        d = flat_triple_density()
        got = global_maxima(d)
        assert got == loop_globals(d)
        assert_plain_fields(got)
        (m,) = got
        assert (m.a, m.value) == (0.0, 1.0)

    @pytest.mark.parametrize("copies", [1, 4])
    @pytest.mark.parametrize("name", list(BIT_EXACT_SPECS))
    def test_displace_to_origin_picks_the_loop_choice(self, name, copies):
        d = pow_scale(realize(BIT_EXACT_SPECS[name]), copies)
        globals_ = [m for m in loop_global_maxima(d) if m.is_global]
        nonneg = [m for m in globals_ if m.a >= 0.0]
        want = min(nonneg, key=lambda m: m.a) if nonneg else max(globals_, key=lambda m: m.a)
        _, chosen = displace_to_origin(d)
        assert (chosen.a, chosen.value) == (want.a, want.value)


class TestCurvature:
    def test_ground_state_curvature(self):
        value = curvature_at(ground_density(), 0.0)
        assert abs(value - (-2.0 / SQRT_PI)) <= 1e-4

    def test_fock1_curvature_at_peak(self):
        value = curvature_at(fock1_density(), 1.0)
        assert abs(value - (-8.0 * math.exp(-1.0) / SQRT_PI)) <= 1e-3

    def test_exact_quartic_reproduced(self):
        # machine-level contract for noise-free polynomial input
        xs = GridSpec(2.0, 512).xs()
        ps = 5.0 + xs + 0.5 * xs**2 - 0.25 * xs**3 + 0.125 * xs**4
        d = make_grid_density(xs, ps)
        norm = np.trapezoid(ps, xs)
        expected = (1.0 - 1.5 * 0.7 + 1.5 * 0.7**2) / norm
        got = curvature_at(d, 0.7)
        assert abs(got - expected) <= 1e-10

    def test_window_out_of_range(self):
        d = ground_density()
        with pytest.raises(WindowOutOfRange):
            curvature_at(d, d.x_min + 2.0 * d.x_step)

    def test_relative_concavity_of_thermalized_fock1(self):
        nbar = 0.1
        d = convolve_gaussian(fock1_density(), nbar)
        peak = max(global_maxima(d), key=lambda m: m.a)
        ratio = peak.value / abs(curvature_at(d, peak.a))
        expected = (1.0 + 2.0 * nbar) / (4.0 * abs(1.0 - nbar))
        assert abs(ratio - expected) <= 1e-3


class TestConvolution:
    def test_gaussian_variance_addition(self):
        blurred = convolve_gaussian(ground_density(), 0.3)
        assert abs(variance(blurred) - 0.8) <= 1e-6

    def test_identity_at_zero_variance(self):
        d = fock1_density()
        same = convolve_gaussian(d, 0.0)
        assert np.max(np.abs(same.values() - d.values())) <= 1e-12

    def test_semigroup_property(self):
        d = fock1_density()
        once = convolve_gaussian(convolve_gaussian(d, 0.1), 0.15)
        combined = convolve_gaussian(d, 0.25)
        lo, hi = max(once.x_min, combined.x_min), min(once.x_max, combined.x_max)
        probe = np.linspace(lo, hi, 2001)
        a = np.exp(log_interp(once, probe))
        b = np.exp(log_interp(combined, probe))
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_thermalized_fock1_closed_form(self):
        nbar = 0.2
        d = convolve_gaussian(fock1_density(), nbar)
        xs = d.xs()
        expected = (
            2.0
            * np.exp(-(xs**2) / (1.0 + 2.0 * nbar))
            * (xs**2 + 2.0 * nbar**2 + nbar)
            / (SQRT_PI * (1.0 + 2.0 * nbar) ** 2.5)
        )
        assert np.max(np.abs(d.values() - expected)) <= 1e-6


class TestPowScale:
    def test_identity_at_one_copy(self):
        d = fock1_density()
        same = pow_scale(d, 1)
        assert np.max(np.abs(same.values() - d.values())) <= 1e-12

    def test_gaussian_closure(self):
        d = gaussian_density(0.7, mu=1.0)
        scaled = pow_scale(d, 4)
        assert abs(mean(scaled) - 2.0) <= 1e-6
        assert abs(variance(scaled) - 0.7) <= 1e-6

    def test_fock1_two_copies_maxima(self):
        scaled = pow_scale(fock1_density(), 2)
        locs = global_maxima(scaled)
        assert sorted(abs(m.a) for m in locs) == pytest.approx(
            [math.sqrt(2.0)] * 2, abs=1e-4
        )

    def test_log_values_preserved_exactly(self):
        # the whole point of log-domain scaling: no interpolation error
        d = fock1_density()
        scaled = pow_scale(d, 16)
        centered = d.log_p - d.norm_log
        rescaled = scaled.log_p - scaled.norm_log
        finite = np.isfinite(centered)
        offset = rescaled[finite][0] - 16.0 * centered[finite][0]
        assert np.max(np.abs(rescaled[finite] - 16.0 * centered[finite] - offset)) <= 1e-9

    def test_non_power_of_two_rejected(self):
        with pytest.raises(NotPowerOfTwo):
            pow_scale(ground_density(), 3)


class TestInterpolation:
    def test_outside_grid_is_zero(self):
        d = ground_density()
        vals = log_interp(d, np.array([d.x_min - 1.0, d.x_max + 1.0]))
        assert np.all(np.isneginf(vals))

    def test_exact_zero_propagates(self):
        xs = GridSpec(8.0, 512).xs()
        ps = np.exp(-(xs**2))
        ps[200:203] = 0.0
        d = make_grid_density(xs, ps)
        assert np.isneginf(log_interp(d, np.array([xs[201]]))[0])

    def test_nodes_reproduced(self):
        d = fock1_density()
        xs = d.xs()
        assert np.max(np.abs(log_interp(d, xs[5:-5]) - (d.log_p - d.norm_log)[5:-5])) <= 1e-12


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        d = fock1_density()
        path = str(tmp_path / "density.csv")
        write_density_csv(d, path)
        back = read_density_csv(path)
        assert abs(variance(back) - variance(d)) <= 1e-9
        assert np.max(np.abs(back.values() - d.values())) <= 1e-12

    def test_headerless_accepted(self, tmp_path):
        d = ground_density(nodes=256)
        path = tmp_path / "plain.csv"
        rows = "\n".join(f"{x:.17g},{p:.17g}" for x, p in zip(d.xs(), d.values()))
        path.write_text(rows + "\n")
        back = read_density_csv(str(path))
        assert abs(variance(back) - 0.5) <= 1e-5
