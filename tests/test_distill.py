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
    shift,
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
    TooFewPoints,
    ZeroMass,
    ZeroMassCondition,
)
from subplanck.states import StateSpec, cubic_momentum_density, fock_density, realize


def gaussian(sigma2, mu=0.0, extent=10.0, nodes=4096):
    xs = GridSpec(extent, nodes).xs()
    return make_grid_density(xs, np.exp(-((xs - mu) ** 2) / (2.0 * sigma2)))


class TestUniversalDistill:
    def test_ground_is_fixed_point(self):
        p = fock_density(0)
        q = universal_distill(p, 4)
        assert abs(variance(q) - variance(p)) <= 1e-9

    def test_filtered_variance_approaches_limit(self):
        # the raw distilled density keeps the mirror peak, so only the
        # filtered variance is monotone in the layer count
        p = fock_density(1)
        limit = asymptotic_variance(p)
        prev = math.inf
        for layers in (1, 2, 3, 4):
            v = quantify(p, DistillConfig(layers=layers)).min_variance
            assert limit - 1e-6 <= v < prev
            prev = v
        assert prev < 1.1 * limit

    def test_layer_bound(self):
        with pytest.raises(ValueError):
            universal_distill(fock_density(0), 13)


class TestNonuniversalLayer:
    def test_zero_offset_matches_universal_layer(self):
        p = fock_density(1)
        a = nonuniversal_layer(p, 0.0)
        b = universal_distill(p, 1)
        assert np.max(np.abs(a.values() - b.values())) <= 1e-12

    def test_output_is_symmetric_for_asymmetric_input(self):
        p = cubic_momentum_density(1.0)
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
        p = fock_density(1)
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
            binary_sequence_distill(fock_density(1), 5, 0.1)


class TestDisplaceToOrigin:
    def test_fock1_picks_positive_twin(self):
        shifted, chosen = displace_to_origin(fock_density(1))
        assert chosen.a == pytest.approx(1.0, abs=1e-3)
        peak = max(global_maxima(shifted), key=lambda m: m.value)
        assert abs(peak.a) <= 1e-9

    def test_falls_back_to_negative_maximum(self):
        xs = GridSpec(10.0).xs()
        vals = np.exp(-((xs + 3.0) ** 2)) + 0.2 * np.exp(-((xs - 3.0) ** 2))
        _, chosen = displace_to_origin(make_grid_density(xs, vals))
        assert chosen.a == pytest.approx(-3.0, abs=1e-3)


class TestGroundStateFilter:
    def test_full_transmission_is_identity(self):
        p = fock_density(1)
        q = filter_with_ground_state(p, 1.0)
        assert np.max(np.abs(q.values() - p.values())) <= 1e-12

    @pytest.mark.parametrize("sigma2,t", [(0.3, 0.7), (1.5, 0.4), (0.5, 0.9)])
    def test_gaussian_closed_form(self, sigma2, t):
        v = variance(filter_with_ground_state(gaussian(sigma2), t))
        assert abs(1.0 / v - (t / sigma2 + 2.0 * (1.0 - t))) <= 1e-6

    def test_vanishing_transmission_returns_ground(self):
        v = variance(filter_with_ground_state(gaussian(2.0), 1e-6))
        assert abs(v - GROUND_VARIANCE) <= 1e-3

    @pytest.mark.parametrize("t", [0.0, -0.1, 1.01])
    def test_transmissivity_range(self, t):
        with pytest.raises(ValueError):
            filter_with_ground_state(fock_density(0), t)


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
        assert asymptotic_variance(fock_density(0)) == pytest.approx(0.5, abs=1e-6)

    def test_fock1(self):
        assert asymptotic_variance(fock_density(1)) == pytest.approx(0.25, abs=1e-4)

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
        report = quantify(fock_density(1))
        assert report.layers == 4
        assert report.copies == 16
        assert report.is_squeezed
        assert report.maximum.a == pytest.approx(4.0, abs=1e-3)
        assert report.min_variance == pytest.approx(0.270006132941, rel=1e-9)
        assert report.asymptotic_variance == pytest.approx(0.250001301787, rel=1e-9)
        assert report.efficiency == pytest.approx(0.925909715692, rel=1e-9)
        assert report.squeezing_db == pytest.approx(
            10.0 * math.log10(report.min_variance / GROUND_VARIANCE), abs=1e-12
        )

    def test_ground_is_not_squeezed(self):
        report = quantify(fock_density(0))
        assert not report.is_squeezed
        assert report.min_variance == pytest.approx(0.5, abs=1e-4)

    def test_cubic_needs_nonuniversal_prelayer(self):
        p = cubic_momentum_density(1.0)
        bare = quantify(p, DistillConfig(layers=2))
        assert bare.asymptotic_variance >= 0.5
        cfg = DistillConfig(layers=2, nonuniversal_prelayers=1, prelayer_xbar=5.0)
        primed = quantify(p, cfg)
        assert primed.asymptotic_variance == pytest.approx(0.1515, abs=5e-3)
        assert primed.is_squeezed

    def test_conditioned_pipeline_matches_universal_at_zero(self):
        p = fock_density(1)
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
        ],
    )
    def test_config_validation(self, cfg):
        # an invalid config cannot be built, so quantify never sees one
        with pytest.raises(ValueError):
            DistillConfig(**cfg)

    def test_filter_runs_only_inside_optimize_filter(self, monkeypatch):
        # the scan's kernel serves both the filter and the scan's objective,
        # so quantify may call it only through optimize_filter
        calls = []
        original = distill._filter_window

        def counting(q, transmissivity):
            calls.append(transmissivity)
            return original(q, transmissivity)

        monkeypatch.setattr(distill, "_filter_window", counting)
        p = fock_density(1)
        quantify(p, DistillConfig(layers=2))
        in_quantify = len(calls)
        calls.clear()
        recentered, _ = displace_to_origin(universal_distill(p, 2))
        optimize_filter(recentered)
        assert in_quantify > 0
        assert in_quantify == len(calls)


# --- the filter scan, bit for bit ---------------------------------------------
#
# References: the filter as a regrid through ``log_interp`` plus a
# ``GridDensity`` from ``from_log_values``, and the scan as a loop of
# ``variance(filter)``; the fused kernel must give the same bytes.


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


def reference_filter(q, transmissivity):
    t = float(transmissivity)
    if not 0.0 < t <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    weight = 1.0 - t
    rt = math.sqrt(t)
    lo = q.x_min / rt
    hi = q.x_max / rt
    if weight > 0.0:
        cut = math.sqrt(45.0 / weight)
        lo = max(lo, -cut)
        hi = min(hi, cut)
    if not lo < hi:
        raise ZeroMassCondition("filter window collapsed")
    n = q.n_nodes
    step = (hi - lo) / (n - 1)
    xs = lo + step * np.arange(n)
    log_new = reference_log_interp(q, rt * xs) - weight * xs**2
    if not np.isfinite(log_new).any():
        raise ZeroMassCondition("filtered density has no mass")
    return reference_from_log_values(lo, step, log_new)


def reference_optimize_filter(q, visited):
    """The scan as a loop of variance(filter); records each filter it makes."""

    def objective(t):
        f = reference_filter(q, t)
        v = variance(f)
        visited[float(t)] = (f, v)
        return v

    ts = np.geomspace(1e-4, 1.0, 64)
    vs = np.array([objective(t) for t in ts])
    k = int(np.argmin(vs))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, ts.shape[0] - 1)]
    best_t, best_v = distill.golden_section(objective, float(lo), float(hi))
    for t_cand, v_cand in ((float(ts[k]), float(vs[k])), (1.0, float(vs[-1]))):
        if v_cand < best_v:
            best_t, best_v = t_cand, v_cand
    return best_t, best_v


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


FOUND_MIXTURE = StateSpec(
    kind="mixture",
    populations=(0.20033769881242364, 0.06908975105896357, 0.06696699287676419, 0.6636055572518486),
    thermal_nbar=0.12761897996665642,
)

# name -> (state, grid, prelayer conditioning offset or None)
SCAN_INPUTS = {
    **{f"fock{n}": (StateSpec(kind="fock", n=n), None, None) for n in range(11)},
    # thermal blurring leaves exact zeros (-inf) scattered through the tails
    **{
        f"thermal-fock{n}": (StateSpec(kind="fock", n=n, thermal_nbar=0.1), None, None)
        for n in (1, 4, 7)
    },
    "cat": (StateSpec(kind="cat", alpha=2.0), None, None),
    "gkp": (StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=math.sqrt(math.pi)), None, None),
    "cubic-prelayer": (StateSpec(kind="cubic", gamma=1.0), None, 5.0),
    "found-mixture": (FOUND_MIXTURE, None, None),
    **{
        f"fock2-{nodes}": (StateSpec(kind="fock", n=2), GridSpec(12.0, nodes), None)
        for nodes in (4999, 5501, 6007)
    },
}


def scan_input(name):
    spec, grid, prelayer_xbar = SCAN_INPUTS[name]
    p = realize(spec, grid)
    return p if prelayer_xbar is None else nonuniversal_layer(p, prelayer_xbar)


def shaped_density(log_p, extent=10.0):
    """A hand-built density: whatever log values, no checks."""
    log_p = np.asarray(log_p, dtype=float)
    step = 2.0 * extent / (log_p.shape[0] - 1)
    return GridDensity(-extent, step, log_p, 0.0)


class TestFilterScanBitExact:
    """The fused filter kernel and log_interp keep the reference bytes."""

    @pytest.mark.parametrize("name", list(SCAN_INPUTS))
    def test_scan_matches_reference(self, name):
        p = scan_input(name)
        for layers in range(9):
            q, _ = displace_to_origin(universal_distill(p, layers))
            visited = {}
            expected = reference_optimize_filter(q, visited)
            assert len(visited) > 64  # the scan plus golden-section points
            got = optimize_filter(q)
            assert (bits(got[0]), bits(got[1])) == (bits(expected[0]), bits(expected[1]))
            for t in (1e-7, 1.0):
                if t not in visited:
                    f = reference_filter(q, t)
                    visited[t] = (f, variance(f))
            for t, (ref, ref_var) in visited.items():
                assert density_bytes(filter_with_ground_state(q, t)) == density_bytes(ref)
                assert bits(distill._filtered_variance(q, t)) == bits(ref_var)

    @pytest.mark.parametrize(
        "q,t",
        [
            pytest.param(shift(fock_density(1), 100.0), 1e-4, id="collapsed-window"),
            pytest.param(
                make_grid_density(GridSpec(10.0).xs(), np.r_[np.zeros(4086), np.ones(10)]),
                1e-4,
                id="no-mass",
            ),
            pytest.param(
                shaped_density(np.r_[np.zeros(2000), np.full(96, math.inf), np.zeros(2000)]),
                1.0,
                id="positive-inf",
            ),
            pytest.param(
                shaped_density(np.r_[np.zeros(2000), np.full(96, math.nan), np.zeros(2000)]),
                0.5,
                id="nan-nodes",
            ),
            pytest.param(fock_density(1), 0.0, id="zero-transmissivity"),
        ],
    )
    def test_failures_match_reference(self, q, t):
        expected = outcome(reference_filter, q, t)
        assert outcome(filter_with_ground_state, q, t) == expected
        if isinstance(expected[0], type):
            assert outcome(distill._filtered_variance, q, t) == expected
        else:
            assert outcome(distill._filtered_variance, q, t) == outcome(
                variance, reference_filter(q, t)
            )

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
        d = scan_input(name)
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
        p = scan_input(name)
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
