"""Distillation pipeline: interference layers, recentering, filtering, limits."""

import math

import numpy as np
import pytest

from subplanck import distill
from subplanck.density import (
    GridDensity,
    GridSpec,
    from_log_values,
    global_maxima,
    log_interp,
    make_grid_density,
    mean,
    pow_scale,
    variance,
)
from subplanck.distill import (
    GROUND_VARIANCE,
    DistillConfig,
    asymptotic_variance,
    binary_sequence_distill,
    displace_to_origin,
    efficiency,
    filter_with_ground_state,
    nonuniversal_layer,
    optimize_filter,
    quantify,
    universal_distill,
)
from subplanck.errors import (
    FlatMaximum,
    NegativeDensity,
    NonPositiveVariance,
    NonUniformGrid,
    PreconditionError,
    TooFewPoints,
    ZeroMass,
    ZeroMassCondition,
)
from subplanck.oracle import sample_density
from subplanck.states import StateSpec, default_grid, realize


def gaussian(sigma2, mu=0.0, extent=10.0, nodes=4096):
    xs = GridSpec(extent, nodes).xs()
    return make_grid_density(xs, np.exp(-((xs - mu) ** 2) / (2.0 * sigma2)))


class TestUniversalDistill:
    def test_ground_is_fixed_point(self):
        p = realize(StateSpec(kind="fock", n=0))
        q = universal_distill(p, 4)
        assert abs(variance(q) - variance(p)) <= 1e-9

    def test_filtered_variance_approaches_limit(self):
        # the raw distilled density keeps the mirror peak, so only the
        # filtered variance is monotone in the layer count
        p = realize(StateSpec(kind="fock", n=1))
        limit = asymptotic_variance(p)
        prev = math.inf
        for layers in (1, 2, 3, 4):
            v = quantify(p, DistillConfig(layers=layers)).min_variance
            assert limit - 1e-6 <= v < prev
            prev = v
        assert prev < 1.1 * limit

    def test_layer_bound(self):
        with pytest.raises(ValueError):
            universal_distill(realize(StateSpec(kind="fock", n=0)), 13)


class TestNonuniversalLayer:
    def test_zero_offset_matches_universal_layer(self):
        p = realize(StateSpec(kind="fock", n=1))
        a = nonuniversal_layer(p, 0.0)
        b = universal_distill(p, 1)
        assert np.max(np.abs(a.values() - b.values())) <= 1e-12

    def test_output_is_symmetric_for_asymmetric_input(self):
        p = realize(StateSpec(kind="cubic", gamma=1.0))
        q = nonuniversal_layer(p, 5.0)
        vals = q.values()
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-10

    def test_gaussian_variance_preserved(self):
        # the two ports carry x and the offset separately, so the surviving
        # Gaussian keeps its width for any conditioning value
        p = gaussian(0.8)
        for xbar in (0.0, 1.0, 3.0):
            assert abs(variance(nonuniversal_layer(p, xbar)) - 0.8) <= 1e-6

    def test_conditioning_outside_support(self):
        with pytest.raises(ZeroMassCondition):
            nonuniversal_layer(gaussian(0.5, extent=6.0), 30.0)


class TestBinarySequenceDistill:
    def test_zero_offset_matches_power_scaling(self):
        p = realize(StateSpec(kind="fock", n=1))
        a = binary_sequence_distill(p, 3, 0.0)
        b = universal_distill(p, 3)
        assert np.max(np.abs(a.values() - b.values())) <= 1e-12

    def test_gaussian_variance_preserved(self):
        # signed offset combinations cancel pairwise for a Gaussian
        p = gaussian(1.2)
        q = binary_sequence_distill(p, 3, 0.7)
        assert abs(variance(q) - 1.2) <= 1e-6

    def test_layer_bound(self):
        with pytest.raises(ValueError):
            binary_sequence_distill(realize(StateSpec(kind="fock", n=1)), 5, 0.1)


# a symmetric Fock mixture whose centre maximum ties with its side peaks at
# nbar 0.1748; at nbar 0 the side peaks are highest
TIED_MIXTURE = (
    0.17436676865208306,
    0.031711055833983134,
    0.00959145310539289,
    0.10852600113057333,
    0.6758047212779676,
)


class TestDisplaceToOrigin:
    def test_fock1_picks_positive_twin(self):
        shifted, chosen = displace_to_origin(realize(StateSpec(kind="fock", n=1)))
        assert chosen.a == pytest.approx(1.0, abs=1e-3)
        peak = max(global_maxima(shifted), key=lambda m: m.value)
        assert abs(peak.a) <= 1e-9

    def test_falls_back_to_negative_maximum(self):
        xs = GridSpec(10.0).xs()
        vals = np.exp(-((xs + 3.0) ** 2)) + 0.2 * np.exp(-((xs - 3.0) ** 2))
        _, chosen = displace_to_origin(make_grid_density(xs, vals))
        assert chosen.a == pytest.approx(-3.0, abs=1e-3)

    def test_centre_between_nodes_counts_as_nonnegative(self):
        # symmetric on an even node count: the centre maximum, as high as the
        # side peaks at +-2.406 to within the global tolerance, is placed
        # -1.04e-8 (1.6e-6 steps) off by its off-centre peak window and must
        # still win over the side peak at +2.406
        spec = StateSpec(kind="mixture", populations=TIED_MIXTURE, thermal_nbar=0.1748046875)
        d = realize(spec)
        _, chosen = displace_to_origin(d)
        assert abs(chosen.a) <= 1e-4 * d.x_step

    @pytest.mark.parametrize(
        "spec",
        [StateSpec(kind="fock", n=4), StateSpec(kind="mixture", populations=TIED_MIXTURE)],
        ids=["fock4", "tied-mixture"],
    )
    def test_recentring_commutes_with_pow_scale(self, spec):
        # M copies put the maximum at sqrt(M) a with the same -(log p)''
        d = realize(spec)
        _, one = displace_to_origin(d)
        for layers in range(1, 13):
            _, chosen = displace_to_origin(pow_scale(d, 1 << layers))
            assert chosen.a == pytest.approx(math.sqrt(1 << layers) * one.a, rel=1e-12)
            assert chosen.kappa == pytest.approx(one.kappa, rel=1e-12)


class TestGroundStateFilter:
    def test_full_transmission_is_identity(self):
        p = realize(StateSpec(kind="fock", n=1))
        q = filter_with_ground_state(p, 1.0)
        assert np.max(np.abs(q.values() - p.values())) <= 1e-12

    @pytest.mark.parametrize("sigma2,t", [(0.3, 0.7), (1.5, 0.4), (0.5, 0.9)])
    def test_gaussian_closed_form(self, sigma2, t):
        v = variance(filter_with_ground_state(gaussian(sigma2), t))
        assert abs(1.0 / v - (t / sigma2 + 2.0 * (1.0 - t))) <= 1e-6

    def test_vanishing_transmission_returns_ground(self):
        v = variance(filter_with_ground_state(gaussian(2.0), 1e-6))
        assert abs(v - GROUND_VARIANCE) <= 1e-3

    def test_below_the_floor_is_the_gaussian_limit(self):
        # T = 1e-6 lies below 2h^2 / (1 + 2h^2), where Q's own nodes cannot
        # resolve the output; log Q's Taylor expansion is exact for a Gaussian
        t, sigma2, mu = 1e-6, 2.0, 1.0
        out = filter_with_ground_state(gaussian(sigma2, mu=mu), t)
        precision = t / sigma2 + 2.0 * (1.0 - t)
        assert variance(out) == pytest.approx(1.0 / precision, rel=1e-9)
        assert mean(out) == pytest.approx(math.sqrt(t) * mu / sigma2 / precision, rel=1e-6)

    def test_below_the_floor_needs_finite_log_values_at_zero(self):
        xs = GridSpec(10.0).xs()
        vals = np.exp(-xs * xs)
        vals[int(np.argmin(np.abs(xs))) + 1] = 0.0
        q = make_grid_density(xs, vals)
        assert math.isfinite(variance(filter_with_ground_state(q, 0.5)))
        with pytest.raises(PreconditionError, match="finite and concave around x = 0"):
            filter_with_ground_state(q, 1e-7)

    @pytest.mark.parametrize("t", [0.0, -0.1, 1.01])
    def test_transmissivity_range(self, t):
        with pytest.raises(ValueError):
            filter_with_ground_state(realize(StateSpec(kind="fock", n=0)), t)


class TestOptimizeFilter:
    def test_already_squeezed_gaussian_passes_through(self):
        t_opt, v = optimize_filter(gaussian(0.3))
        assert t_opt == pytest.approx(1.0, abs=1e-4)
        assert v == pytest.approx(0.3, abs=1e-4)

    def test_wide_gaussian_is_pushed_to_ground(self):
        _, v = optimize_filter(gaussian(2.0))
        assert v >= GROUND_VARIANCE - 1e-6
        assert v <= GROUND_VARIANCE + 1e-3


class TestAsymptoticVariance:
    def test_ground(self):
        p = realize(StateSpec(kind="fock", n=0))
        assert asymptotic_variance(p) == pytest.approx(0.5, abs=1e-6)

    def test_fock1(self):
        p = realize(StateSpec(kind="fock", n=1))
        assert asymptotic_variance(p) == pytest.approx(0.25, abs=1e-4)

    def test_thermalized_fock1_reaches_ground_level(self):
        d = realize(StateSpec(kind="fock", n=1, thermal_nbar=0.25))
        assert asymptotic_variance(d) == pytest.approx(0.5, abs=1e-3)

    def test_flat_maximum_rejected(self):
        xs = GridSpec(12.0).xs()
        plateau = make_grid_density(xs, np.exp(-((xs / 4.0) ** 8)))
        with pytest.raises(FlatMaximum):
            asymptotic_variance(plateau)


class TestEfficiency:
    def test_ratio(self):
        assert efficiency(0.25, 0.5) == 0.5

    def test_positive_only(self):
        with pytest.raises(NonPositiveVariance):
            efficiency(0.0, 0.3)
        with pytest.raises(NonPositiveVariance):
            efficiency(0.3, -1.0)

    def test_super_asymptotic_is_silent(self, caplog):
        # a finite-copy pipeline may beat the many-copy limit; that is no fault
        with caplog.at_level("DEBUG"):
            assert efficiency(0.5, 0.25) == 2.0
        assert caplog.records == []


class TestQuantify:
    def test_fock1_defaults(self):
        report = quantify(realize(StateSpec(kind="fock", n=1)))
        assert report.layers == 4
        assert report.copies == 16
        assert report.is_squeezed
        assert report.maximum.a == pytest.approx(4.0, abs=1e-3)
        # bench/reference.py's full-line pipeline gives 0.270007114491
        assert report.min_variance == pytest.approx(0.270007114491, rel=1e-9)
        assert report.asymptotic_variance == pytest.approx(0.249999847408, rel=1e-9)
        assert report.efficiency == pytest.approx(0.925900963311, rel=1e-9)
        assert report.squeezing_db == pytest.approx(
            10.0 * math.log10(report.min_variance / GROUND_VARIANCE), abs=1e-12
        )

    def test_ground_is_not_squeezed(self):
        report = quantify(realize(StateSpec(kind="fock", n=0)))
        assert not report.is_squeezed
        assert report.min_variance == pytest.approx(0.5, abs=1e-4)

    def test_cubic_needs_nonuniversal_prelayer(self):
        p = realize(StateSpec(kind="cubic", gamma=1.0))
        bare = quantify(p, DistillConfig(layers=2))
        assert bare.asymptotic_variance >= 0.5
        cfg = DistillConfig(layers=2, nonuniversal_prelayers=1, prelayer_xbar=5.0)
        primed = quantify(p, cfg)
        assert primed.asymptotic_variance == pytest.approx(0.1515, abs=5e-3)
        assert primed.is_squeezed

    def test_conditioned_pipeline_matches_universal_at_zero(self):
        p = realize(StateSpec(kind="fock", n=1))
        a = quantify(p, DistillConfig(layers=3))
        b = quantify(p, DistillConfig(layers=3, conditioning_xbar=1e-30))
        assert b.min_variance == pytest.approx(a.min_variance, rel=1e-9)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(layers=13),
            dict(layers=-1),
            dict(nonuniversal_prelayers=2),
            dict(layers=5, conditioning_xbar=0.2),
            dict(layers=1.5),
            dict(layers=2.0),
            dict(layers=True),
            dict(nonuniversal_prelayers=0.5),
            dict(nonuniversal_prelayers=False),
            dict(prelayer_xbar=0.7),
            dict(conditioning_xbar="0.5"),
            dict(conditioning_xbar=None),
            dict(conditioning_xbar=True),
            dict(nonuniversal_prelayers=1, prelayer_xbar="0.5"),
            dict(nonuniversal_prelayers=1, prelayer_xbar=None),
            dict(nonuniversal_prelayers=1, prelayer_xbar=True),
        ],
    )
    def test_config_validation(self, cfg):
        # an invalid config cannot be built, so quantify never sees one
        with pytest.raises(ValueError):
            DistillConfig(**cfg)

    def test_filter_runs_only_inside_optimize_filter(self, monkeypatch):
        # quantify builds the scan kernel once, inside optimize_filter, and
        # never filters a density on the side
        calls = []
        for name in ("_filter_scan", "filter_with_ground_state"):
            original = getattr(distill, name)

            def counting(q, *args, name=name, original=original):
                calls.append(name)
                return original(q, *args)

            monkeypatch.setattr(distill, name, counting)
        p = realize(StateSpec(kind="fock", n=1))
        quantify(p, DistillConfig(layers=2))
        assert calls == ["_filter_scan"]
        calls.clear()
        recentered, _ = displace_to_origin(universal_distill(p, 2))
        optimize_filter(recentered)
        assert calls == ["_filter_scan"]


class TestBrentMin:
    @staticmethod
    def run(f, a, b, x, xtol=1e-7):
        calls = []

        def recorded(t):
            calls.append(t)
            return f(t)

        t, v = distill._brent_min(recorded, a, b, x, f(x), xtol)
        assert all(a <= u <= b for u in calls)
        assert len(set(calls)) == len(calls)
        return t, v, calls

    @pytest.mark.parametrize("x", [0.1, 0.2, 0.5])
    def test_parabola_from_inside_or_either_end(self, x):
        t, v, calls = self.run(lambda t: (t - 0.3) ** 2 + 1.0, 0.1, 0.5, x)
        assert abs(t - 0.3) <= 1e-7 and v == (t - 0.3) ** 2 + 1.0
        assert len(calls) <= 10

    def test_minimum_at_an_end_stays_there(self):
        t, v, calls = self.run(lambda t: 2.0 - t, 1.0 - 1e-7, 1.0, 1.0, xtol=2e-8)
        assert (t, v) == (1.0, 1.0)
        assert 1 <= len(calls) <= 2

    def test_infinite_values_only_shrink_the_bracket(self):
        f = lambda t: math.inf if t < 0.25 else (t - 0.3) ** 2  # noqa: E731
        t, v, calls = self.run(f, 0.0, 0.6, 0.5)
        assert abs(t - 0.3) <= 1e-7 and v < 1e-13
        assert math.inf in map(f, calls)

    def test_flat_curve_stops(self):
        t, v, calls = self.run(lambda t: 0.5, 0.2, 0.4, 0.3)
        assert v == 0.5 and 0.2 <= t <= 0.4 and len(calls) <= 40


# --- the filter scan against independent values ------------------------------

FOUND_MIXTURE = StateSpec(
    kind="mixture",
    populations=(0.20033769881242364, 0.06908975105896357, 0.06696699287676419, 0.6636055572518486),
    thermal_nbar=0.12761897996665642,
)
GKP_COMB = StateSpec(kind="gkp", delta=0.3, side_peaks=2, spacing=math.sqrt(math.pi))

# (state, layers, min_variance, T_opt) from bench/reference.py's ``distill``:
# the same pipeline on the analytic density over the whole line, in numpy and
# scipy alone, so nothing here comes from the program itself.
FULL_LINE = [
    (StateSpec(kind="fock", n=1), 4, 0.270007114490638, 0.8508272430029374),
    (StateSpec(kind="fock", n=1), 10, 0.25057100973992125, 0.9954417707183711),
    (StateSpec(kind="fock", n=1), 12, 0.2501639279831752, 0.9986893959886238),
    (StateSpec(kind="fock", n=4), 4, 0.17086975292147327, 0.9165879277808796),
    (StateSpec(kind="fock", n=4), 10, 0.15858280154486773, 0.9990654257400996),
    (StateSpec(kind="fock", n=4), 12, 0.15851562342558861, 0.9997372972084645),
    (GKP_COMB, 2, 0.05177018285979546, 0.8717875579797584),
    (GKP_COMB, 8, 0.04499999999999999, 1.0),
    (FOUND_MIXTURE, 4, 0.5000060969870738, 1e-4),
    (FOUND_MIXTURE, 6, 0.5000060961066795, 1e-4),
    # from bench/: python3 -c "import reference as r; d = r.distill(r.fock(3), 3);
    # print(repr(d.min_variance), repr(d.T_opt))"
    (StateSpec(kind="fock", n=3), 3, 0.21065744179919468, 0.7608611045118958),
]

# states whose filter minimum must be found to roundoff at 0..8 layers:
# shallow optima, optima near T = 1, flat ground-state curves, T_opt at the
# scan's ends (cats at 1, the mixtures at 1e-4) and thermal states
REFINE_BATTERY = {
    **{f"fock{n}": StateSpec(kind="fock", n=n) for n in range(11)},
    "thermal-fock1": StateSpec(kind="fock", n=1, thermal_nbar=0.1),
    "thermal-fock2": StateSpec(kind="fock", n=2, thermal_nbar=0.05),
    "thermal-fock4": StateSpec(kind="fock", n=4, thermal_nbar=0.1),
    "thermal-fock6": StateSpec(kind="fock", n=6, thermal_nbar=0.02),
    "cat1.5": StateSpec(kind="cat", alpha=1.5),
    "cat2": StateSpec(kind="cat", alpha=2.0),
    "gkp": GKP_COMB,
    "found-mixture": FOUND_MIXTURE,
    "tied-mixture": StateSpec(kind="mixture", populations=TIED_MIXTURE),
    "mixture3": StateSpec(kind="mixture", populations=(0.15, 0.05, 0.2, 0.6)),
    "mixture5": StateSpec(kind="mixture", populations=(0.3, 0.1, 0.05, 0.05, 0.1, 0.4)),
}


def full_width_variances(q, ts):
    """Var_x(T) of the filtered ``q`` from every node, a per-row maximum and
    ``np.trapezoid`` moments, one T at a time.

    The row's maximum comes off log Q before the filter's exponent does, so
    each node's exponent is rounded at its own size and not at the size of
    log Q (-4556 for Fock 4 at 12 layers, which costs 5e-13 relative).
    """
    ys = q.xs()
    out = []
    for t in ts:
        c = (1.0 - t) / t
        f = np.exp((q.log_p - np.max(q.log_p - c * ys * ys)) - c * ys * ys)
        m0 = np.trapezoid(f, dx=q.x_step)
        m1 = np.trapezoid(f * ys, dx=q.x_step) / m0
        out.append((np.trapezoid(f * ys * ys, dx=q.x_step) / m0 - m1 * m1) / t)
    return np.array(out)


def histogram_density(spec, bins, seed=3, draws=10**6):
    """A measured-style input: a histogram of ``draws`` samples of ``spec``,
    with empty bins (exact zeros) in its tails."""
    extent = default_grid(spec).extent
    samples = sample_density(realize(spec), draws, seed)
    counts, edges = np.histogram(samples, bins=bins, range=(-extent, extent))
    centres = 0.5 * (edges[1:] + edges[:-1])
    return make_grid_density(centres, counts / (draws * (edges[1] - edges[0])))


def cat_two_layer_variance(alpha):
    """Closed form for the even cat at two layers, where T_opt = 1.

    Four copies of exp(-p^2) cos^2(alpha p) power to exp(-x^2) cos^8(alpha x / 2),
    and cos^8 is a cosine series with weights (35, 56, 28, 8, 1) / 128 at
    frequencies k alpha, so both moments are sums of Gaussian integrals.
    """
    b = alpha * np.arange(5)
    w = np.array([35.0, 56.0, 28.0, 8.0, 1.0]) * np.exp(-b * b / 4.0)
    return float(w @ (0.5 - b * b / 4.0) / w.sum())


class TestFilterScan:
    @pytest.mark.parametrize("layers", range(13))
    def test_ground_state_gives_half(self, layers):
        report = quantify(realize(StateSpec(kind="fock", n=0)), DistillConfig(layers=layers))
        assert abs(report.min_variance - GROUND_VARIANCE) <= 1e-9
        assert not report.is_squeezed

    def test_cat_at_two_layers_beats_its_limit(self):
        report = quantify(realize(StateSpec(kind="cat", alpha=2.0)), DistillConfig(layers=2))
        assert report.T_opt == 1.0
        assert report.min_variance == pytest.approx(cat_two_layer_variance(2.0), abs=1e-12)
        assert report.min_variance == pytest.approx(0.09616, abs=5e-6)
        assert report.min_variance < report.asymptotic_variance

    @pytest.mark.parametrize(
        "spec,layers,min_variance,t_opt",
        FULL_LINE,
        ids=[f"{spec.kind}{spec.n or ''}-{layers}" for spec, layers, _, _ in FULL_LINE],
    )
    def test_matches_full_line_reference(self, spec, layers, min_variance, t_opt):
        report = quantify(realize(spec), DistillConfig(layers=layers))
        assert abs(report.min_variance - min_variance) <= 1e-7
        assert abs(report.T_opt - t_opt) <= 1e-5
        assert report.is_squeezed == (min_variance < GROUND_VARIANCE - 1e-6)

    @pytest.mark.parametrize("name", list(REFINE_BATTERY))
    def test_minimum_is_no_higher_than_a_dense_scan(self, name):
        # the scan's rows 1e-7 apart within 2e-5 of T_opt (inside its range
        # [1e-4, 1]) find nothing lower: the minimizer leaves no bracket
        # behind that misses the minimum
        p = realize(REFINE_BATTERY[name])
        for layers in range(9):
            q, _ = displace_to_origin(universal_distill(p, layers))
            t_opt, min_var = optimize_filter(q)
            ts = t_opt + np.linspace(-2e-5, 2e-5, 401)
            ts = ts[(ts >= distill._SCAN_POINTS[0]) & (ts <= 1.0)]
            dense = distill._filter_scan(q)(ts).min()
            assert min_var <= dense * (1.0 + 1e-13), (layers, t_opt, min_var - dense)

    @pytest.mark.parametrize("name", ["fock1", "fock4", "fock10", "thermal-fock2", "mixture3"])
    @pytest.mark.parametrize("layers", [1, 4, 8])
    def test_refines_in_few_rows(self, name, layers, monkeypatch):
        # past the scan's 96 rows, the minimizer filters one row per step
        rows = []
        original = distill._filter_scan

        def counting(q):
            variances = original(q)

            def counted(ts):
                rows.append(np.size(ts))
                return variances(ts)

            return counted

        monkeypatch.setattr(distill, "_filter_scan", counting)
        q, _ = displace_to_origin(universal_distill(realize(REFINE_BATTERY[name]), layers))
        optimize_filter(q)
        assert rows[0] == distill._SCAN_POINTS.size
        assert set(rows[1:]) == {1} and len(rows) - 1 <= 15

    @pytest.mark.parametrize(
        "spec,prelayer_xbar",
        [
            (StateSpec(kind="fock", n=1), None),
            (StateSpec(kind="fock", n=4), None),
            (StateSpec(kind="fock", n=10), None),
            (StateSpec(kind="fock", n=2, thermal_nbar=0.1), None),
            (StateSpec(kind="cat", alpha=2.0), None),
            (GKP_COMB, None),
            (FOUND_MIXTURE, None),
            (StateSpec(kind="cubic", gamma=1.0), 5.0),
        ],
        ids=["fock1", "fock4", "fock10", "thermal-fock2", "cat", "gkp", "found-mixture", "cubic"],
    )
    @pytest.mark.parametrize("layers", [0, 4, 8, 12])
    def test_scan_matches_full_width_moments(self, spec, prelayer_xbar, layers):
        p = realize(spec)
        if prelayer_xbar is not None:
            p = nonuniversal_layer(p, prelayer_xbar)
        self.check_scan_rows(universal_distill(p, layers))

    @pytest.mark.parametrize("bins", [501, 601, 701])
    @pytest.mark.parametrize("layers", [0, 2])
    def test_histogram_scan_matches_full_width_moments(self, bins, layers):
        p = histogram_density(StateSpec(kind="fock", n=2), bins)
        assert (p.log_p == -math.inf).any()
        self.check_scan_rows(universal_distill(p, layers))

    @staticmethod
    def check_scan_rows(distilled):
        # the blocked scan drops far nodes, windows each block and folds the
        # peak out once; at every scan row above the floor it must agree
        # with the plain evaluation to roundoff
        q, _ = displace_to_origin(distilled)
        h = q.x_step
        ts = distill._SCAN_POINTS[distill._SCAN_POINTS >= 2.0 * h * h / (1.0 + 2.0 * h * h)]
        scan = distill._filter_scan(q)(ts)
        np.testing.assert_allclose(scan, full_width_variances(q, ts), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "q",
        [
            pytest.param(gaussian(2.0), id="wide-gaussian"),
            pytest.param(gaussian(0.3, nodes=1024), id="squeezed-gaussian"),
            pytest.param(realize(StateSpec(kind="fock", n=1)), id="fock1-0"),
            pytest.param(universal_distill(realize(FOUND_MIXTURE), 4), id="found-mixture-4"),
            pytest.param(universal_distill(realize(StateSpec(kind="cat", alpha=2.0)), 6), id="cat-6"),
        ],
    )
    def test_closed_form_meets_scan_at_floor(self, q):
        # at the floor the filter's width is one step: the trapezoid moments
        # err by up to 2 (2 pi)^2 exp(-2 pi^2) = 2e-7 (relative) and the
        # Gaussian limit by a few 1e-7 on a narrow peak, both well inside the
        # 1e-6 margin that decides is_squeezed
        q, _ = displace_to_origin(q)
        h = q.x_step
        floor = 2.0 * h * h / (1.0 + 2.0 * h * h)
        below, at = distill._filter_scan(q)(np.array([floor * (1.0 - 1e-12), floor]))
        assert abs(below - at) <= 1e-6

    @pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2, 0.3, 0.9, 1.0])
    def test_filter_density_matches_scan(self, t):
        # the floor of this density lies at 4.2e-4, so the first two are the
        # Gaussian limit on both sides
        q, _ = displace_to_origin(universal_distill(realize(StateSpec(kind="fock", n=2)), 3))
        v = distill._filter_scan(q)(np.array([t]))[0]
        assert variance(filter_with_ground_state(q, t)) == pytest.approx(v, rel=1e-10)

    @pytest.mark.parametrize("gap", [1, 2])
    @pytest.mark.parametrize("layers", [0, 4])
    def test_zero_next_to_the_peak_keeps_to_resolved_filters(self, gap, layers):
        # a histogram whose tallest bin has an empty bin `gap` nodes away:
        # log Q has no finite curvature at the peak, so the Gaussian limit
        # below the floor is out and the optimum is a resolved filter
        xs = GridSpec(10.0, 128).xs()
        vals = np.exp(-xs * xs / 2.0)
        k = int(np.argmax(vals))
        vals[k] *= 1.5
        vals[k + gap] = 0.0
        p = make_grid_density(xs, vals)
        q, _ = displace_to_origin(universal_distill(p, layers))
        t_opt, min_var = optimize_filter(q)
        h = q.x_step
        assert t_opt >= 2.0 * h * h / (1.0 + 2.0 * h * h)
        v = variance(filter_with_ground_state(q, t_opt))
        assert min_var == pytest.approx(v, rel=1e-10)
        # the many-copy limit has no meaning there, and quantify reports it
        # absent while keeping the resolved filter's minimum
        with pytest.raises(FlatMaximum, match="exact zero"):
            asymptotic_variance(p)
        report = quantify(p, DistillConfig(layers=layers))
        assert report.min_variance == min_var
        assert report.asymptotic_variance is None and report.efficiency is None


# --- log_interp and the normalization, bit for bit --------------------------------
#
# References: the boolean compress-and-scatter interpolation and the
# normalization that ``log_interp`` and ``from_log_values`` replaced; the
# conditioned layers, which interpolate, must give the same bytes.


def reference_log_interp(d, xq):
    """Boolean compress-and-scatter interpolation that log_interp replaced."""
    xq = np.asarray(xq, dtype=float)
    t = (xq - d.x_min) / d.x_step
    n = d.n_nodes
    out = np.full(xq.shape, -math.inf)
    inside = (t >= 0.0) & (t <= n - 1)
    ti = t[inside]
    i0 = np.floor(ti).astype(int)
    np.clip(i0, 0, n - 2, out=i0)
    frac = ti - i0
    left = d.log_p[i0]
    right = d.log_p[i0 + 1]
    with np.errstate(invalid="ignore"):
        val = (1.0 - frac) * left + frac * right
    on_node = frac == 0.0
    val = np.where(on_node, left, val)
    val = np.where(np.isnan(val), -math.inf, val)
    out[inside] = val - d.norm_log
    return out


def reference_log_trapz(log_f, step):
    finite = np.isfinite(log_f)
    if not finite.any():
        return -math.inf
    w = np.full(log_f.shape[0], step)
    w[0] *= 0.5
    w[-1] *= 0.5
    m = log_f[finite].max()
    total = np.sum(np.exp(log_f[finite] - m) * w[finite])
    if total <= 0.0:
        return -math.inf
    return m + math.log(total)


def reference_from_log_values(x_min, x_step, log_p):
    log_p = np.asarray(log_p, dtype=float).copy()
    if log_p.ndim != 1 or log_p.shape[0] < 64:
        raise TooFewPoints(f"need at least 64 nodes, got {log_p.shape[0]}")
    if x_step <= 0.0:
        raise NonUniformGrid("grid step must be positive")
    if np.isposinf(log_p).any() or np.isnan(log_p).any():
        raise NegativeDensity("log density must be finite or -inf")
    norm = reference_log_trapz(log_p, x_step)
    if not math.isfinite(norm):
        raise ZeroMass("density integrates to zero")
    return GridDensity(float(x_min), float(x_step), log_p, norm)


def bits(x):
    return type(x), np.float64(x).tobytes()


def density_bytes(d):
    return bits(d.x_min), bits(d.x_step), d.log_p.tobytes(), bits(d.norm_log)


def outcome(fn, *args):
    """What a call returns, as bytes, or the type and message of what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)
    if isinstance(result, GridDensity):
        return density_bytes(result)
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    return bits(result)


# name -> (state, prelayer conditioning offset or None)
INTERP_INPUTS = {
    "fock3": (StateSpec(kind="fock", n=3), None),
    "fock4": (StateSpec(kind="fock", n=4), None),
    # thermal blurring leaves exact zeros (-inf) scattered through the tails
    "thermal-fock1": (StateSpec(kind="fock", n=1, thermal_nbar=0.1), None),
    "thermal-fock4": (StateSpec(kind="fock", n=4, thermal_nbar=0.1), None),
    "cat": (StateSpec(kind="cat", alpha=2.0), None),
    "gkp": (StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=math.sqrt(math.pi)), None),
    "cubic-prelayer": (StateSpec(kind="cubic", gamma=1.0), 5.0),
    "found-mixture": (FOUND_MIXTURE, None),
}


def interp_input(name):
    spec, prelayer_xbar = INTERP_INPUTS[name]
    p = realize(spec)
    return p if prelayer_xbar is None else nonuniversal_layer(p, prelayer_xbar)


def shaped_density(log_p, extent=10.0):
    """A hand-built density: whatever log values, no checks."""
    log_p = np.asarray(log_p, dtype=float)
    step = 2.0 * extent / (log_p.shape[0] - 1)
    return GridDensity(-extent, step, log_p, 0.0)


class TestLogInterpBitExact:
    """log_interp and from_log_values keep the reference bytes."""

    @pytest.mark.parametrize(
        "log_p,step",
        [
            pytest.param(np.zeros(63), 0.1, id="too-few-nodes"),
            pytest.param(np.zeros(64), 0.0, id="zero-step"),
            pytest.param(np.r_[np.zeros(99), math.inf], 0.1, id="positive-inf"),
            pytest.param(np.r_[math.nan, np.zeros(99)], 0.1, id="nan"),
            pytest.param(np.r_[math.nan, np.full(99, -math.inf)], 0.1, id="nan-no-mass"),
            pytest.param(np.full(100, -math.inf), 0.1, id="no-mass"),
            pytest.param(np.zeros(100), 1e307, id="overflowing-integral"),
            pytest.param(np.r_[-math.inf, np.zeros(98), -math.inf], 0.1, id="zero-ends"),
            pytest.param(np.r_[0.0, np.full(98, -math.inf), 0.0], 0.1, id="only-ends"),
            pytest.param(np.r_[np.full(99, -math.inf), -3.0], 0.1, id="last-node-only"),
        ],
    )
    def test_normalization_matches_reference(self, log_p, step):
        with np.errstate(over="ignore"):
            expected = outcome(reference_from_log_values, -1.0, step, log_p)
            assert outcome(from_log_values, -1.0, step, log_p) == expected

    @pytest.mark.parametrize("name", ["fock4", "thermal-fock4", "found-mixture"])
    def test_log_interp_matches_reference(self, name):
        d = interp_input(name)
        xs = d.xs()
        rng = np.random.default_rng(7)
        wide = np.linspace(d.x_min - 3.0, d.x_max + 3.0, 5001)
        queries = [
            wide,
            wide[::-1],  # decreasing, as nonuniversal_layer's second factor
            rng.permutation(wide),  # in-grid points not in one run
            xs,  # every node, the last one included
            xs[::-1],
            np.r_[xs[:3], math.nan, xs[-3:]],
            np.r_[d.x_min - 1.0, xs[10:20], d.x_max + 1.0, xs[30:40]],
            np.array([d.x_max + 1.0, d.x_min - 1.0]),
            np.array([]),
            np.array(0.3),
            wide[:5000].reshape(50, 100),
        ]
        for xq in queries:
            assert outcome(log_interp, d, xq) == outcome(reference_log_interp, d, xq)

    def test_log_interp_on_unchecked_values(self):
        # +inf, NaN and a -inf left of the last node: the NaN and 0 * inf cases
        log_p = np.zeros(200)
        log_p[50:53] = math.inf
        log_p[80] = math.nan
        log_p[-2] = -math.inf
        d = shaped_density(log_p)
        xq = np.r_[d.xs(), np.linspace(d.x_min, d.x_max, 777)]
        assert outcome(log_interp, d, xq) == outcome(reference_log_interp, d, xq)

    @pytest.mark.parametrize("name", ["fock3", "thermal-fock1", "cat", "gkp", "cubic-prelayer"])
    def test_conditioned_layers_match_reference(self, name, monkeypatch):
        p = interp_input(name)
        calls = [
            (nonuniversal_layer, 0.0),
            (nonuniversal_layer, 0.4),
            (nonuniversal_layer, -1.3),
            (lambda d, xbar: binary_sequence_distill(d, 3, xbar), 0.3),
            (lambda d, xbar: binary_sequence_distill(d, 2, xbar), -0.7),
        ]
        got = [outcome(fn, p, xbar) for fn, xbar in calls]
        monkeypatch.setattr(distill, "log_interp", reference_log_interp)
        monkeypatch.setattr(distill, "from_log_values", reference_from_log_values)
        assert got == [outcome(fn, p, xbar) for fn, xbar in calls]
