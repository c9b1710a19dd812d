"""Catalog densities and the special functions behind them."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ai_zeros, airy

from subplanck.density import (
    GridSpec,
    curvature_at,
    global_maxima,
    log_interp,
    make_grid_density,
    variance,
)
from subplanck.distill import asymptotic_variance
from subplanck.errors import (
    AngleUnsupported,
    GridTooNarrow,
    InvalidPopulations,
    InvalidStateSpec,
)
from subplanck.states import (
    StateSpec,
    airy_ai,
    cat_momentum_density,
    cubic_momentum_density,
    default_grid,
    fock_density,
    fock_mixture_density,
    gkp_position_density,
    realize,
)

SQRT_PI = math.sqrt(math.pi)


class TestAiry:
    def test_value_at_zero(self):
        assert airy_ai(0.0) == pytest.approx(0.3550280538878172, abs=1e-12)

    def test_decay_at_ten(self):
        value = airy_ai(10.0)
        assert 0.0 < value <= 1e-9

    def test_first_zero(self):
        assert abs(airy_ai(-2.338107410459767)) <= 1e-8

    def test_against_scipy_on_range(self):
        xs = np.linspace(-20.0, 10.0, 4001)
        ours = airy_ai(xs)
        reference = airy(xs)[0]
        assert np.max(np.abs(ours - reference)) <= 1e-10

    def test_differential_equation_residual(self):
        # Ai'' = x Ai survives normalization, so the density-curvature fit
        # can check it on the positive stretch of Ai; probing at grid nodes
        # keeps interpolation error out of the residual
        xs = np.linspace(-2.0, 5.0, 2048)
        d = make_grid_density(xs, airy_ai(xs))
        vals = d.values()
        for j in range(16, 2048 - 16, 51):
            residual = curvature_at(d, float(xs[j])) - xs[j] * vals[j]
            assert abs(residual) <= 1e-7


class TestFockDensities:
    def test_ground_state(self):
        d = fock_density(0)
        xs = d.xs()
        assert np.max(np.abs(d.values() - np.exp(-(xs**2)) / SQRT_PI)) <= 1e-10
        assert abs(variance(d) - 0.5) <= 1e-6

    def test_fock1_pointwise(self):
        d = fock_density(1)
        xs = d.xs()
        expected = 2.0 * xs**2 * np.exp(-(xs**2)) / SQRT_PI
        assert np.max(np.abs(d.values() - expected)) <= 1e-10

    @pytest.mark.parametrize("n", [0, 1, 5, 10, 20, 30])
    def test_variance_law(self, n):
        assert abs(variance(fock_density(n)) - (n + 0.5)) <= 1e-4

    def test_symmetry(self):
        vals = fock_density(7).values()
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-10

    def test_narrow_grid_rejected(self):
        with pytest.raises(GridTooNarrow):
            fock_density(10, GridSpec(4.0))


class TestFockMixtures:
    def test_single_component(self):
        d = fock_mixture_density(np.array([1.0]))
        ref = fock_density(0, GridSpec(d.x_max, len(d.log_p)))
        assert np.max(np.abs(d.values() - ref.values())) <= 1e-12

    def test_convex_combination(self):
        grid = GridSpec(10.0)
        d = fock_mixture_density(np.array([0.5, 0.5]), grid)
        expected = 0.5 * fock_density(0, grid).values() + 0.5 * fock_density(1, grid).values()
        assert np.max(np.abs(d.values() - expected)) <= 1e-12

    def test_symmetric_mixture_variance(self):
        d = fock_mixture_density(np.array([0.05, 0.90, 0.05]))
        assert abs(variance(d) - 1.5) <= 1e-6

    def test_invalid_populations(self):
        with pytest.raises(InvalidPopulations):
            fock_mixture_density(np.array([0.7, 0.2]))
        with pytest.raises(InvalidPopulations):
            fock_mixture_density(np.array([1.2, -0.2]))


class TestCatDensity:
    def test_small_alpha_limit(self):
        d = cat_momentum_density(1e-4)
        xs = d.xs()
        assert np.max(np.abs(d.values() - np.exp(-(xs**2)) / SQRT_PI)) <= 1e-6

    def test_alpha2_maximum_and_first_zero(self):
        # fine grid: the parabolic dip refinement carries an O(h^2) envelope
        # bias, and the target tolerance is 1e-6
        d = cat_momentum_density(2.0, GridSpec(8.0, 16384))
        locs = [m for m in global_maxima(d, 1e-3) if m.is_global]
        assert len(locs) == 1
        assert abs(locs[0].a) <= 1e-6
        vals = d.values()
        xs = d.xs()
        inside = (xs > 0.5) & (xs < 1.0)
        idx = np.flatnonzero(inside)[np.argmin(vals[inside])]
        y0, y1, y2 = vals[idx - 1], vals[idx], vals[idx + 1]
        frac = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
        zero = xs[idx] + frac * d.x_step
        assert abs(zero - math.pi / 4.0) <= 1e-6

    def test_large_alpha_squeezes_asymptotically(self):
        assert asymptotic_variance(cat_momentum_density(5.0)) < 0.25

    @pytest.mark.parametrize("alpha", [3.0, 3.5, 4.0])
    def test_fringe_zero_count(self, alpha):
        d = cat_momentum_density(alpha)
        xs = d.xs()
        # dips of density / envelope below 0.01 inside [-alpha, alpha]
        ratio = d.values() / np.exp(-(xs**2))
        ratio /= ratio.max()
        inner = np.abs(xs) <= alpha
        low = (ratio < 0.01) & inner
        starts = np.flatnonzero(low[1:] & ~low[:-1])
        count = len(starts) + (1 if low[0] else 0)
        assert abs(count - math.floor(2.0 * alpha**2 / math.pi)) <= 1


class TestGkpDensity:
    def test_full_spacing_central_variance(self):
        d = gkp_position_density(0.3, 3, SQRT_PI)
        assert abs(asymptotic_variance(d) - 0.045) <= 1e-4

    def test_huge_spacing_isolates_central_peak(self):
        d = gkp_position_density(0.3, 1, 50.0)
        assert abs(variance(d) - 0.045) <= 1e-6

    def test_reduced_spacing_broadens(self):
        d = gkp_position_density(0.3, 3, SQRT_PI / 4.0)
        locs = [m for m in global_maxima(d, 1e-3) if m.is_global]
        assert len(locs) == 1 and abs(locs[0].a) <= 1e-6
        assert variance(d) > 0.5

    def test_envelope_follows_peak_position(self):
        # peak masses instead of peak heights: same-width Gaussians, so the
        # mass ratio is the weight ratio without interpolation error
        spacing = SQRT_PI
        delta = 0.3
        d = gkp_position_density(delta, 3, spacing)
        xs = d.xs()
        vals = d.values()

        def mass(center):
            sel = np.abs(xs - center) <= spacing
            return np.trapezoid(vals[sel], xs[sel])

        assert mass(2.0 * spacing) / mass(0.0) == pytest.approx(
            math.exp(-(delta**2) * (2.0 * spacing) ** 2), rel=1e-6
        )

    def test_symmetry(self):
        vals = gkp_position_density(0.3, 3, SQRT_PI).values()
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-10


class TestCubicDensity:
    def test_matches_closed_form(self):
        d = cubic_momentum_density(1.0)
        ps = d.xs()
        z = (1.0 - 4.0 * ps) / 4.0
        raw = np.exp((1.0 - ps) / 12.0) * airy(z)[0]
        expected = raw**2
        expected /= np.trapezoid(expected, ps)
        assert np.max(np.abs(d.values() - expected)) <= 1e-9

    def test_maximum_location(self):
        # root of the closed-form log-derivative: -1/6 = 2 Ai'(z)/Ai(z) * dz/dp
        from scipy.optimize import brentq

        def dlog(p):
            z = (1.0 - 4.0 * p) / 4.0
            ai, aip, _, _ = airy(z)
            return -1.0 / 6.0 - 2.0 * (aip / ai)

        expected = brentq(dlog, 0.5, 2.0, xtol=1e-12)
        d = cubic_momentum_density(1.0)
        locs = [m for m in global_maxima(d, 1e-3) if m.is_global]
        assert len(locs) == 1
        assert abs(locs[0].a - expected) <= 2e-4

    def test_negative_gamma_mirrors(self):
        plus = cubic_momentum_density(1.0)
        minus = cubic_momentum_density(-1.0)
        assert np.max(np.abs(plus.values() - minus.values()[::-1])) <= 1e-12

    def test_no_universal_squeezing(self):
        assert asymptotic_variance(cubic_momentum_density(1.0)) >= 0.5

    def test_zero_gamma_rejected(self):
        with pytest.raises(InvalidStateSpec):
            cubic_momentum_density(0.0)


class TestRealize:
    def test_thermalized_fock1_closed_form(self):
        nbar = 0.2
        d = realize(StateSpec(kind="fock", n=1, thermal_nbar=nbar))
        xs = d.xs()
        expected = (
            2.0
            * np.exp(-(xs**2) / (1.0 + 2.0 * nbar))
            * (xs**2 + 2.0 * nbar**2 + nbar)
            / (SQRT_PI * (1.0 + 2.0 * nbar) ** 2.5)
        )
        assert np.max(np.abs(d.values() - expected)) <= 1e-6

    def test_dispatch_identity(self):
        spec = StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=SQRT_PI / 4.0)
        via_spec = realize(spec)
        direct = gkp_position_density(0.3, 3, SQRT_PI / 4.0, default_grid(spec))
        assert np.max(np.abs(via_spec.values() - direct.values())) <= 1e-12

    def test_ground_dispatch(self):
        d = realize(StateSpec(kind="fock", n=0))
        assert abs(variance(d) - 0.5) <= 1e-6

    def test_fock_rotation_invariant(self):
        base = realize(StateSpec(kind="fock", n=2))
        rotated = realize(StateSpec(kind="fock", n=2, quadrature_angle=0.7))
        assert np.max(np.abs(base.values() - rotated.values())) <= 1e-12

    def test_generic_angle_unsupported_for_cat(self):
        with pytest.raises(AngleUnsupported):
            realize(StateSpec(kind="cat", alpha=2.0, quadrature_angle=0.3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidStateSpec):
            realize(StateSpec(kind="weird"))

    def test_invalid_spec_cannot_be_built(self):
        with pytest.raises(InvalidStateSpec, match="nonnegative"):
            dataclasses.replace(StateSpec(kind="fock", n=1), n=-1)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidStateSpec, match=r"\['thermal_nbar'\]"):
            StateSpec.from_dict({"kind": "fock", "n": 1, "thermal_nbar": 0.1})
        spec = StateSpec.from_dict({"kind": "fock", "n": 1, "nbar": 0.1})
        assert spec.thermal_nbar == 0.1
