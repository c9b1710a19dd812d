"""Grid-density kernel: construction, moments, maxima, curvature, convolution,
log-domain power scaling."""

import math
import warnings

import numpy as np
import pytest

from subplanck.density import (
    GLOBAL_REL_TOL,
    PEAK_WINDOW,
    GridSpec,
    _next_fast_len,
    convolve_gaussian,
    curvature_at,
    gaussian_blur,
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
from subplanck.distill import asymptotic_variance, displace_to_origin
from subplanck.errors import (
    FlatMaximum,
    InsufficientSupport,
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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_abscissa_rejected(self, bad):
        xs = GridSpec(8.0, 512).xs().copy()
        xs[200] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUniformGrid, match="xs must be finite"):
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


def exp_quartic_density(vertex, kappa, extent=6.0, nodes=1201):
    """exp of a quartic in x - vertex whose only maximum is ``vertex``, where
    -(log p)'' = ``kappa``; log values are exact, so the fit must be too."""
    xs = GridSpec(extent, nodes).xs()
    t = xs - vertex
    return from_log_values(xs[0], xs[1] - xs[0], t * t * (-0.5 * kappa + t * (0.2 - 0.5 * t)))


class TestPeakFit:
    """The log-quartic peak fit against values that need no program output."""

    @pytest.mark.parametrize("vertex", [0.3137, -1.0, 2.004])
    @pytest.mark.parametrize("kappa", [0.5, 3.0, 40.0])
    def test_exp_quartic_vertex_and_kappa(self, vertex, kappa):
        (m,) = global_maxima(exp_quartic_density(vertex, kappa))
        assert m.a == pytest.approx(vertex, abs=1e-10)
        assert m.kappa == pytest.approx(kappa, rel=1e-10)
        assert m.value == pytest.approx(math.exp(-exp_quartic_density(vertex, kappa).norm_log))
        assert type(m.a) is float and type(m.value) is float and type(m.kappa) is float

    def test_window_is_moved_inside_the_grid(self):
        # a vertex three steps from the left edge: the 17-node window cannot be
        # centred on its node, and the shifted fit still reproduces the quartic
        d = exp_quartic_density(0.0, 3.0, nodes=1201)
        edge = from_log_values(0.0, d.x_step, d.log_p[597:])
        (m,) = global_maxima(edge)
        assert m.a == pytest.approx(3.0 * d.x_step, abs=1e-10)
        assert m.kappa == pytest.approx(3.0, rel=1e-10)

    def test_ripple_maxima_get_no_record(self):
        # the thermal blur leaves hundreds of spurious maxima in the far tails
        d = realize(StateSpec(kind="fock", n=1, thermal_nbar=0.2))
        v = d.values()
        ripples = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
        assert ripples.sum() > 500
        assert len(global_maxima(d)) == 2

    def test_window_with_a_zero_keeps_the_node(self):
        xs = GridSpec(10.0, 128).xs()
        vals = np.exp(-xs * xs / 2.0)
        k = int(np.argmax(vals))
        vals[k + 3] = 0.0
        d = make_grid_density(xs, vals)
        (m,) = global_maxima(d)
        assert (m.a, m.value) == (xs[k], d.values()[k])
        assert math.isnan(m.kappa)
        with pytest.raises(FlatMaximum, match="exact zero"):
            asymptotic_variance(d)

    def test_fock1_histogram_limit(self):
        # 10^6 draws at 601 bins: the limit spreads by ~0.035 over seeds
        spec = StateSpec(kind="fock", n=1)
        extent = default_grid(spec).extent
        draws = sample_density(realize(spec), 10**6, seed=2024)
        counts, edges = np.histogram(draws, bins=601, range=(-extent, extent))
        centres = 0.5 * (edges[1:] + edges[:-1])
        limit = asymptotic_variance(make_grid_density(centres, counts.astype(float)))
        assert abs(limit - 0.25) <= 3 * 0.035


def loop_peak_maxima(d):
    """Node-by-node reference for ``global_maxima``: ``np.polynomial`` fits of
    ``log_p`` over each moved window and Newton steps on them, as
    ``(a, value, kappa)`` tuples of the global maxima."""
    log_p = d.log_p
    n = log_p.shape[0]
    offsets = np.arange(-PEAK_WINDOW, PEAK_WINDOW + 1, dtype=float)
    top = float(np.max(log_p))
    out = []
    for i in range(1, n - 1):
        y = log_p[i]
        if not (y > log_p[i - 1] and y >= log_p[i + 1] and y >= top - 1.0):
            continue
        c = min(max(i, PEAK_WINDOW), n - 1 - PEAK_WINDOW)
        window = log_p[c - PEAK_WINDOW : c + PEAK_WINDOW + 1]
        if not np.all(np.isfinite(window)):
            out.append((d.x_min + i * d.x_step, math.exp(y - d.norm_log), math.nan))
            continue
        fit = np.polynomial.Polynomial.fit(offsets, window, 4, domain=[-1, 1], window=[-1, 1])
        slope, second = fit.deriv(1), fit.deriv(2)
        start = s = float(i - c)
        for _ in range(8):
            if second(s) >= 0.0:
                break
            step = slope(s) / second(s)
            s = min(max(s - step, start - 1.0), start + 1.0)
            if abs(step) < 1e-9:
                break
        out.append(
            (d.x_min + (c + s) * d.x_step, math.exp(fit(s) - d.norm_log), -second(s) / d.x_step**2)
        )
    floor = (1.0 - GLOBAL_REL_TOL) * max(m[1] for m in out)
    return [m for m in out if m[1] >= floor]


def assert_matches_loop(d, got):
    # twins of equal height may swap places in the sort, so pair them by position
    want = sorted(loop_peak_maxima(d))
    assert len(got) == len(want)
    for m, (a, value, kappa) in zip(sorted(got, key=lambda m: m.a), want):
        assert abs(m.a - a) <= 1e-8 * d.x_step
        assert m.value == pytest.approx(value, rel=1e-12)
        assert m.kappa == pytest.approx(kappa, rel=1e-8, nan_ok=True)
        assert type(m.a) is float and type(m.value) is float and type(m.kappa) is float


LOOP_SPECS = {
    **{
        f"fock{n}-nbar{nbar}": StateSpec(kind="fock", n=n, thermal_nbar=nbar)
        for n in range(1, 11)
        for nbar in (0.0, 0.02, 0.1, 0.5, 2.0)
    },
    "cat": StateSpec(kind="cat", alpha=2.0),
    "gkp": StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=SQRT_PI),
    "mixture": StateSpec(kind="mixture", populations=(0.2, 0.5, 0.3), thermal_nbar=0.1),
}


class TestPeakFitMatchesLoop:
    """The one-matmul fit of ``global_maxima`` against a per-maximum loop of
    ``np.polynomial`` least-squares fits, on catalog and histogram densities."""

    @pytest.mark.parametrize("copies", [1, 4])
    @pytest.mark.parametrize("name", list(LOOP_SPECS))
    def test_matches_loop(self, name, copies):
        d = pow_scale(realize(LOOP_SPECS[name]), copies)
        assert_matches_loop(d, global_maxima(d))

    @pytest.mark.parametrize("copies", [1, 4])
    def test_noisy_histogram_matches_loop(self, copies):
        spec = StateSpec(kind="fock", n=1)
        extent = default_grid(spec).extent
        draws = sample_density(realize(spec), 10**6, seed=2024)
        counts, edges = np.histogram(draws, bins=701, range=(-extent, extent))
        centres = 0.5 * (edges[1:] + edges[:-1])
        d = pow_scale(make_grid_density(centres, counts.astype(float)), copies)
        assert_matches_loop(d, global_maxima(d))

    def test_window_with_a_zero_matches_loop(self):
        xs = GridSpec(10.0, 128).xs()
        vals = np.exp(-xs * xs / 2.0)
        vals[int(np.argmax(vals)) + 3] = 0.0
        d = make_grid_density(xs, vals)
        assert_matches_loop(d, global_maxima(d))

    @pytest.mark.parametrize("copies", [1, 4])
    @pytest.mark.parametrize("name", list(LOOP_SPECS))
    def test_displace_to_origin_picks_the_loop_choice(self, name, copies):
        d = pow_scale(realize(LOOP_SPECS[name]), copies)
        maxima = loop_peak_maxima(d)
        nonneg = [m for m in maxima if m[0] >= -1e-4 * d.x_step]
        want = min(nonneg) if nonneg else max(maxima)
        shifted, chosen = displace_to_origin(d)
        assert abs(chosen.a - want[0]) <= 1e-8 * d.x_step
        assert chosen.kappa == pytest.approx(want[2], rel=1e-8)
        # the recentred density has the chosen maximum at the origin
        assert min(abs(m.a) for m in global_maxima(shifted)) <= 1e-12


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


BLUR_SPECS = [
    StateSpec(kind="fock", n=1),
    StateSpec(kind="fock", n=7),
    StateSpec(kind="mixture", populations=(0.2, 0.3, 0.5)),
    StateSpec(kind="cat", alpha=2.0),
    StateSpec(kind="cat", alpha=2.0, quadrature_angle=math.pi / 2),
    StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=SQRT_PI),
    StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=SQRT_PI, quadrature_angle=math.pi / 2),
    StateSpec(kind="cubic", gamma=1.0, quadrature_angle=math.pi / 2),
]


class TestGaussianBlur:
    """One transform per variance range: ``gaussian_blur(d, var_max)``."""

    @pytest.mark.parametrize("spec", BLUR_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("var", [0.02, 0.5, 2.0])
    def test_top_variance_is_convolve_gaussian_to_the_bit(self, spec, var):
        d = realize(spec)
        got, want = gaussian_blur(d, var)(var), convolve_gaussian(d, var)
        assert (got.x_min, got.x_step, got.norm_log) == (want.x_min, want.x_step, want.norm_log)
        assert got.log_p.tobytes() == want.log_p.tobytes()

    @pytest.mark.parametrize("spec", BLUR_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("var_max", [0.5, 2.0])
    def test_lower_variance_matches_its_own_convolution(self, spec, var_max):
        # same grid; the transforms differ in length only, so the values
        # differ by the FFT's roundoff, about 1e-15 of the peak
        d = realize(spec)
        blur = gaussian_blur(d, var_max)
        for var in (1e-4, 0.01, 0.1, 0.25, 0.49, 1.0, 1.9):
            if var >= var_max:
                continue
            got, want = blur(var), convolve_gaussian(d, var)
            assert (got.x_min, got.x_step, got.n_nodes) == (want.x_min, want.x_step, want.n_nodes)
            a, b = got.values(), want.values()
            assert np.max(np.abs(a - b)) <= 2e-15 * b.max()
            high = b > 1e-2 * b.max()
            assert np.max(np.abs(a[high] / b[high] - 1.0)) <= 1e-13

    def test_zero_variance_is_the_input(self):
        d = fock1_density()
        assert gaussian_blur(d, 0.5)(0.0) is d
        assert gaussian_blur(d, 0.0)(0.0) is d

    @pytest.mark.parametrize("var", [-1e-12, 0.5 + 1e-12, math.nan])
    def test_variance_outside_the_range_raises(self, var):
        blur = gaussian_blur(fock1_density(), 0.5)
        with pytest.raises(ValueError):
            blur(var)

    def test_negative_range_raises(self):
        with pytest.raises(ValueError):
            gaussian_blur(fock1_density(), -0.1)

    def test_edges_that_do_not_decay_raise_on_build(self):
        # exp(-4) at the edges of a ground state on [-2, 2]
        with pytest.raises(InsufficientSupport):
            gaussian_blur(ground_density(extent=2.0), 0.5)

def smooth5(n):
    """Whether n's prime factors are all at most 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestNextFastLen:
    """The FFT length of ``convolve_gaussian``: the next 5-smooth length."""

    def test_matches_brute_force(self):
        ns = range(1, 200_001)
        smooth = [m for m in range(1, 200_001 + 1000) if smooth5(m)]
        expected, k = [], 0
        for n in ns:
            while smooth[k] < n:
                k += 1
            expected.append(smooth[k])
        assert [_next_fast_len(n) for n in ns] == expected

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 4096, 6750, 5**7, 3**9 * 5**4, 2**30, 5**13])
    def test_smooth_length_is_kept(self, n):
        assert _next_fast_len(n) == n

    @pytest.mark.parametrize(
        "n,m", [(7, 8), (11, 12), (77, 80), (2310, 2400), (7986, 8000), (11**9, 2359296000)]
    )
    def test_rough_length_moves_up(self, n, m):
        assert _next_fast_len(n) == m


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
