"""Distillation pipeline: interference layers, recentering, filtering, limits."""

import math

import numpy as np
import pytest

from subplanck.density import GridSpec, global_maxima, make_grid_density, variance
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
from subplanck.errors import FlatMaximum, NonPositiveVariance, ZeroMassCondition
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
        peak = max(global_maxima(shifted, 1e-3), key=lambda m: m.value)
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
            DistillConfig(layers=13),
            DistillConfig(layers=-1),
            DistillConfig(nonuniversal_prelayers=2),
            DistillConfig(layers=5, conditioning_xbar=0.2),
            DistillConfig(max_rel_tol=0.0),
            DistillConfig(transmissivity_grid=4),
        ],
    )
    def test_config_validation(self, cfg):
        with pytest.raises(ValueError):
            quantify(fock_density(1), cfg)
