"""Thermal robustness witnesses and their vanishing occupations."""

import dataclasses
import math

import numpy as np
import pytest

import subplanck.depth
from subplanck.density import GridSpec, log_interp, make_grid_density
from subplanck.distill import GROUND_VARIANCE, asymptotic_variance, quantify
from subplanck.depth import (
    _brent,
    fano_depth,
    subplanck_depth,
    thermal_fock_number_distribution,
    thermal_fock_wigner_origin,
    wigner_negativity_depth,
)
from subplanck.errors import CutoffTooSmall, NoRootInBracket, NoSqueezingAtZero
from subplanck.oracle import sample_density
from subplanck.states import StateSpec, default_grid, realize

# a symmetric Fock mixture whose centre maximum ties with its side peaks near
# its asymptotic depth; bench/reference.py puts that depth at REF_DEPTH
TIED_MIXTURE = (
    0.17436676865208306,
    0.031711055833983134,
    0.00959145310539289,
    0.10852600113057333,
    0.6758047212779676,
)
REF_DEPTH = 0.1739997750616878


class TestWignerOrigin:
    @pytest.mark.parametrize("nbar", [0.1, 0.5, 2.0])
    def test_ground_state(self, nbar):
        expected = (2.0 / math.pi) / (1.0 + 2.0 * nbar)
        assert thermal_fock_wigner_origin(0, nbar) == pytest.approx(expected, abs=1e-8)

    def test_fock1_cold(self):
        assert thermal_fock_wigner_origin(1, 0.0) == pytest.approx(
            -2.0 / math.pi, abs=1e-10
        )

    def test_fock1_vanishes_at_half(self):
        assert abs(thermal_fock_wigner_origin(1, 0.5)) <= 1e-8

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("nbar", [0.2, 0.8, 2.0])
    def test_consistent_with_number_statistics(self, n, nbar):
        # same channel, independent route: W(0) is the parity average
        pops = thermal_fock_number_distribution(n, nbar).populations
        parity = float(np.dot(pops, (-1.0) ** np.arange(pops.shape[0])))
        assert thermal_fock_wigner_origin(n, nbar) == pytest.approx(
            (2.0 / math.pi) * parity, abs=1e-8
        )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            thermal_fock_wigner_origin(-1, 0.1)
        with pytest.raises(ValueError):
            thermal_fock_wigner_origin(1, -0.1)


class TestWignerDepth:
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_odd_sign_change(self, n):
        result = wigner_negativity_depth(n)
        assert result.nbar_star == pytest.approx(0.5, abs=1e-6)
        assert result.witness == "wigner-negativity"
        assert result.bracket[0] <= result.nbar_star <= result.bracket[1]

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_touching_zero(self, n):
        result = wigner_negativity_depth(n)
        assert result.nbar_star == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_form(self, n):
        result = wigner_negativity_depth(n)
        assert (result.nbar_star, result.bracket, result.iterations) == (0.5, (0.5, 0.5), 0)
        assert thermal_fock_wigner_origin(n, result.nbar_star) == 0.0

    def test_ground_rejected(self):
        with pytest.raises(ValueError):
            wigner_negativity_depth(0)


class TestNumberDistribution:
    def test_thermalized_ground_is_geometric(self):
        nbar = 1.0
        pops = thermal_fock_number_distribution(0, nbar).populations
        ms = np.arange(12)
        expected = nbar**ms / (1.0 + nbar) ** (ms + 1)
        assert np.max(np.abs(pops[:12] - expected)) <= 1e-6

    @pytest.mark.parametrize("nbar", [1e-3, 0.05, 0.3, 1.0, 2.0])
    def test_fock1_closed_form(self, nbar):
        # the k = 0 and k = 1 terms: (nbar^(m+1) + m nbar^(m-1)) / (1+nbar)^(m+2)
        pops = thermal_fock_number_distribution(1, nbar).populations
        ms = np.arange(pops.shape[0])
        expected = (nbar ** (ms + 1) + ms * nbar ** (ms - 1.0)) / (1.0 + nbar) ** (ms + 2)
        assert np.max(np.abs(pops - expected)) <= 1e-12

    def test_cold_channel_is_point_mass(self):
        dist = thermal_fock_number_distribution(4, 0.0)
        assert dist.populations[4] == 1.0
        assert dist.variance == 0.0

    def test_mean_adds_occupation(self):
        dist = thermal_fock_number_distribution(3, 0.7)
        assert dist.mean == pytest.approx(3.7, abs=1e-6)

    def test_variance_closed_form(self):
        n, nbar = 3, 0.7
        dist = thermal_fock_number_distribution(n, nbar)
        assert dist.variance == pytest.approx(nbar * (nbar + 2 * n + 1), abs=1e-6)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_moments_closed_form(self, n):
        for nbar in np.linspace(0.05, 2.0, 9):
            dist = thermal_fock_number_distribution(n, nbar)
            assert abs(dist.mean - (n + nbar)) <= 1e-10
            assert abs(dist.variance - ((2 * n + 1) * nbar + nbar**2)) <= 1e-10

    def test_normalized_and_nonnegative(self):
        pops = thermal_fock_number_distribution(5, 0.9).populations
        assert np.all(pops >= 0.0)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            thermal_fock_number_distribution(5, 1.0, cutoff=10)

    def test_matches_blurred_density(self):
        # the number populations and the blurred quadrature density describe
        # the same channel output; the blur pads its grid, so compare by
        # interpolating onto the mixture's nodes
        n, nbar = 1, 0.2
        grid = GridSpec(17.0, 4096)
        pops = thermal_fock_number_distribution(n, nbar, cutoff=13).populations
        via_mixture = realize(StateSpec(kind="mixture", populations=pops), grid)
        direct = realize(StateSpec(kind="fock", n=n, thermal_nbar=nbar), grid)
        onto_nodes = np.exp(log_interp(direct, via_mixture.xs()))
        assert np.max(np.abs(via_mixture.values() - onto_nodes)) <= 1e-5


class TestFanoDepth:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0.414214), (2, 0.449490), (4, 0.472136), (10, 0.488088)],
    )
    def test_root_location(self, n, expected):
        # analytic root of nbar (nbar + 2n + 1) = n + nbar: sqrt(n^2+n) - n
        result = fano_depth(n)
        assert result.nbar_star == pytest.approx(expected, abs=2e-4)
        assert result.witness == "fano"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_form_is_the_crossing(self, n):
        result = fano_depth(n)
        assert result.bracket == (result.nbar_star, result.nbar_star)
        assert result.iterations == 0
        assert result.nbar_star == pytest.approx(math.sqrt(n * n + n) - n, rel=1e-15)
        # independent route: the number populations at the depth are Poissonian
        fano = thermal_fock_number_distribution(n, result.nbar_star).fano
        assert abs(fano - 1.0) <= 1e-10

    def test_depth_grows_with_n(self):
        roots = [fano_depth(n).nbar_star for n in (1, 2, 4)]
        assert roots[0] < roots[1] < roots[2]

    @pytest.mark.parametrize("n", [1, 4])
    def test_witness_monotone_in_occupation(self, n):
        fanos = [
            thermal_fock_number_distribution(n, nb).fano
            for nb in np.linspace(1e-4, 0.6, 20)
        ]
        assert all(a < b for a, b in zip(fanos, fanos[1:]))

    def test_cold_limit_is_sub_poissonian(self):
        assert thermal_fock_number_distribution(2, 1e-4).fano < 1e-3

    def test_ground_rejected(self):
        with pytest.raises(ValueError):
            fano_depth(0)


SQRT_PI = math.sqrt(math.pi)
_RNG = np.random.default_rng(31)
# catalog states, squeezable or not, and Dirichlet mixtures of 2-10 levels
BOUND_SPECS = (
    [StateSpec(kind="fock", n=n) for n in range(0, 11)]
    + [
        StateSpec(kind="cat", alpha=alpha, quadrature_angle=angle)
        for alpha in (1.0, 2.0, 3.0)
        for angle in (0.0, math.pi / 2)
    ]
    + [
        StateSpec(kind="gkp", delta=delta, side_peaks=3, spacing=SQRT_PI, quadrature_angle=angle)
        for delta in (0.2, 0.3, 0.4)
        for angle in (0.0, math.pi / 2)
    ]
    + [
        StateSpec(kind="mixture", populations=tuple(_RNG.dirichlet(np.ones(levels))))
        for levels in _RNG.integers(2, 11, size=20)
    ]
)


def brent(f, lo=0.0, hi=2.0, xtol=1e-6):
    return _brent(f, lo, hi, f(lo), f(hi), xtol)


class TestBrent:
    @pytest.mark.parametrize(
        "f,root",
        [(lambda x: 3.0 * (x - 0.3), 0.3), (lambda x: x**3 - 2.0, 2.0 ** (1.0 / 3.0))],
        ids=["linear", "cubic"],
    )
    def test_smooth_root(self, f, root):
        star, (lo, hi), evaluations = brent(f)
        assert lo <= root <= hi and star in (lo, hi)
        assert hi - lo <= 1e-6
        assert evaluations <= 12

    def test_step_is_bracketed_to_xtol(self):
        # secant steps stall on a jump; the bisection fallback still closes in
        star, (lo, hi), _ = brent(lambda x: -1.0 if x < 0.3 else 1.0)
        assert lo < 0.3 <= hi
        assert hi - lo <= 1e-6

    def test_exact_zero_collapses_the_bracket(self):
        # the first secant step from (0, -1) and (2, 1) lands on the root
        assert brent(lambda x: x - 1.0) == (1.0, (1.0, 1.0), 1)

    @pytest.mark.parametrize(
        "f", [lambda x: x * x + 0.25, lambda x: -x - 1.0], ids=["positive", "negative"]
    )
    def test_no_sign_change(self, f):
        with pytest.raises(NoRootInBracket):
            brent(f)


class TestSubplanckDepth:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_fock_asymptotic_evaluations(self, n):
        result = subplanck_depth(realize(StateSpec(kind="fock", n=n)), asymptotic=True)
        lo, hi = result.bracket
        assert lo <= result.nbar_star <= hi and hi - lo <= 1e-6
        # the first end g = 1/2 - 1/kappa(0) lands on the root for Fock 1
        # (kappa(0) = 4) and lies 0.03-0.12 above it for Fock 2-10
        assert result.iterations == (3 if n == 1 else 6 if n == 2 else 7)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fock_asymptotic_depth_converges(self, n):
        spec = StateSpec(kind="fock", n=n)
        fine = GridSpec(default_grid(spec).extent, 16384)
        coarse_star = subplanck_depth(realize(spec), asymptotic=True).nbar_star
        fine_star = subplanck_depth(realize(spec, fine), asymptotic=True).nbar_star
        assert abs(coarse_star - fine_star) <= 2e-6

    @pytest.mark.parametrize("spec", BOUND_SPECS, ids=lambda s: s.kind)
    def test_asymptotic_limit_is_classical_at_half(self, spec):
        # a blur of variance nbar bounds kappa by 1/nbar (Brascamp-Lieb);
        # the smallest margin, 0.02, is the GKP comb's at delta 0.2
        dens = realize(dataclasses.replace(spec, thermal_nbar=0.5))
        assert asymptotic_variance(dens) - GROUND_VARIANCE > 0.0

    @pytest.mark.parametrize("spec", BOUND_SPECS[11:], ids=lambda s: s.kind)
    def test_asymptotic_bracket_holds_on_realized_states(self, spec):
        # the solver blurs through one transform per range; the bracket must
        # still straddle the sign change of the limit quantify sees
        def excess(nbar):
            dens = realize(dataclasses.replace(spec, thermal_nbar=nbar))
            return asymptotic_variance(dens) - GROUND_VARIANCE

        try:
            lo, hi = subplanck_depth(realize(spec), asymptotic=True).bracket
        except NoSqueezingAtZero:
            assert excess(0.0) >= 0.0
            return
        assert excess(lo) < 0.0 <= excess(hi)

    def fake_witness(self, monkeypatch, root, slope=1.0):
        """Make the asymptotic witness slope * (nbar - root), with each
        occupation's density the occupation itself, so the solve starts from
        the density 0.0; record the occupations evaluated and the variance
        ranges transformed."""
        occupations, transforms = [], []

        def gaussian_blur(d, var_max):
            transforms.append(var_max)
            return lambda var: var

        def witness(nbar):
            occupations.append(nbar)
            return GROUND_VARIANCE + slope * (nbar - root)

        monkeypatch.setattr(subplanck.depth, "gaussian_blur", gaussian_blur)
        monkeypatch.setattr(subplanck.depth, "asymptotic_variance", witness)
        return occupations, transforms

    def test_squeezed_at_half_falls_back_to_two(self, monkeypatch):
        # g = -w(0) = 0.7 >= 1/2 is skipped, so 1/2 is not evaluated twice
        occupations, transforms = self.fake_witness(monkeypatch, 0.7)
        result = subplanck_depth(0.0, asymptotic=True)
        lo, hi = result.bracket
        assert occupations[:3] == [0.0, 0.5, 2.0]
        assert all(0.5 <= nbar <= 2.0 for nbar in occupations[1:])
        assert transforms == [0.5, 2.0]
        assert lo <= 0.7 <= hi and hi - lo <= 1e-6
        assert result.iterations == len(occupations)

    def test_squeezed_at_gaussian_estimate_falls_through_to_half(self, monkeypatch):
        # w(0) = -0.2 puts g at 0.2, still squeezed; the root lies in [0.2, 1/2]
        occupations, transforms = self.fake_witness(monkeypatch, 0.4, slope=0.5)
        result = subplanck_depth(0.0, asymptotic=True)
        lo, hi = result.bracket
        assert occupations[:3] == [0.0, 0.2, 0.5]
        assert all(0.2 <= nbar <= 0.5 for nbar in occupations[1:])
        assert transforms == [0.5]
        assert lo <= 0.4 <= hi and hi - lo <= 1e-6
        assert result.iterations == len(occupations)

    def test_exact_zero_at_gaussian_estimate_is_the_root(self, monkeypatch):
        occupations, _ = self.fake_witness(monkeypatch, 0.3)
        result = subplanck_depth(0.0, asymptotic=True)
        assert (result.nbar_star, result.bracket, result.iterations) == (0.3, (0.3, 0.3), 2)
        assert occupations == [0.0, 0.3]

    def test_squeezed_at_two_has_no_root(self, monkeypatch):
        occupations, _ = self.fake_witness(monkeypatch, 2.5)
        with pytest.raises(NoRootInBracket, match="nbar = 2.0"):
            subplanck_depth(0.0, asymptotic=True)
        assert occupations == [0.0, 0.5, 2.0]

    def test_squeezed_at_two_after_the_gaussian_estimate_has_no_root(self, monkeypatch):
        # w(0) = -0.25 puts g at 0.25; every end is squeezed
        occupations, _ = self.fake_witness(monkeypatch, 2.5, slope=0.1)
        with pytest.raises(NoRootInBracket, match="nbar = 2.0"):
            subplanck_depth(0.0, asymptotic=True)
        assert occupations == [0.0, 0.25, 0.5, 2.0]

    def test_exact_zero_at_half_is_the_root(self, monkeypatch):
        occupations, _ = self.fake_witness(monkeypatch, 0.5)
        result = subplanck_depth(0.0, asymptotic=True)
        assert (result.nbar_star, result.bracket, result.iterations) == (0.5, (0.5, 0.5), 2)
        assert occupations == [0.0, 0.5]

    @pytest.mark.parametrize("asymptotic", [True, False])
    def test_iterations_count_witness_evaluations(self, monkeypatch, asymptotic):
        # the density is transformed once; each witness evaluation past
        # nbar = 0 blurs it
        transforms, occupations = [], []
        gaussian_blur = subplanck.depth.gaussian_blur

        def recording_gaussian_blur(d, var_max):
            transforms.append(var_max)
            blur = gaussian_blur(d, var_max)

            def recording_blur(var):
                occupations.append(var)
                return blur(var)

            return recording_blur

        monkeypatch.setattr(subplanck.depth, "gaussian_blur", recording_gaussian_blur)
        fock2 = realize(StateSpec(kind="fock", n=2))
        result = subplanck_depth(fock2, asymptotic=asymptotic)
        assert transforms == ([0.5] if asymptotic else [2.0])
        assert result.iterations == 1 + len(occupations)
        if asymptotic:
            # the first end is where a Gaussian peak would cross: 1/2 - 1/kappa(0)
            w0 = asymptotic_variance(fock2) - GROUND_VARIANCE
            assert occupations[0] == -w0
        else:
            assert occupations[0] == 2.0
        assert result.nbar_star in occupations

    def test_fock1_asymptotic_witness(self):
        # blurred twin-peak density loses its variance advantage at 1/4
        result = subplanck_depth(realize(StateSpec(kind="fock", n=1)), asymptotic=True)
        assert result.nbar_star == pytest.approx(0.25, abs=1e-3)
        assert result.witness == "subplanck-asymptotic"

    def test_fock1_pipeline_witness(self):
        # finite copies keep min_variance above the limit, so the crossing
        # sits later than the asymptotic root; verify the sign change at the
        # returned bracket rather than trusting the midpoint
        result = subplanck_depth(realize(StateSpec(kind="fock", n=1)))
        assert result.witness == "subplanck-N4"
        lo, hi = result.bracket
        assert hi - lo <= 1e-6
        assert result.nbar_star > 0.25

        def min_var(nbar):
            dens = realize(StateSpec(kind="fock", n=1, thermal_nbar=nbar))
            return quantify(dens).min_variance

        assert min_var(lo) < 0.5 < min_var(hi)

    def test_tied_mixture_brackets_the_reference_depth(self):
        # the centre maximum, refined a hair below x = 0, must keep winning the
        # tie-break up to the depth; the side peak would end the search late
        spec = StateSpec(kind="mixture", populations=TIED_MIXTURE)
        result = subplanck_depth(realize(spec), asymptotic=True)
        lo, hi = result.bracket
        assert lo - 1e-4 <= REF_DEPTH <= hi + 1e-4

    def test_classical_input_rejected(self):
        with pytest.raises(NoSqueezingAtZero):
            subplanck_depth(realize(StateSpec(kind="fock", n=0)), asymptotic=True)


# 10^6 draws in 601 bins over the state's default extent.  Over seeds 1-30
# of Fock 1, 2 and 4 the histogram's asymptotic depth deviated from the
# state's by a standard deviation of 5.2e-4 (largest 1.4e-3), with the
# three depths ordered by n at every seed; the bound is 5 of those
# deviations.  Binning is a box blur of variance h^2/12 (8e-5 to 1.3e-4
# here), which the noise hides.
HISTOGRAM_DRAWS = 1_000_000
HISTOGRAM_BINS = 601
HISTOGRAM_DEPTH_BOUND = 2.5e-3


def histogram_density(spec, seed):
    """The density a histogram of ``sample_density`` draws of ``spec`` estimates."""
    extent = default_grid(spec).extent
    draws = sample_density(realize(spec), HISTOGRAM_DRAWS, seed)
    counts, edges = np.histogram(draws, bins=HISTOGRAM_BINS, range=(-extent, extent))
    centres = 0.5 * (edges[1:] + edges[:-1])
    return make_grid_density(centres, counts / (HISTOGRAM_DRAWS * (edges[1] - edges[0])))


class TestMeasuredDepth:
    def test_histogram_depth_is_near_the_state_depth_and_ordered_by_n(self):
        stars = []
        for n in (1, 2, 4):
            spec = StateSpec(kind="fock", n=n)
            exact = subplanck_depth(realize(spec), asymptotic=True).nbar_star
            star = subplanck_depth(histogram_density(spec, seed=0), asymptotic=True).nbar_star
            assert abs(star - exact) <= HISTOGRAM_DEPTH_BOUND, (n, star, exact)
            stars.append(star)
        assert stars[0] < stars[1] < stars[2]

    def test_any_density_is_taken_as_given(self):
        # the solver blurs what it is handed, so a state realized at nbar 0.1
        # has 0.1 less depth left than the same state realized cold
        cold = subplanck_depth(realize(StateSpec(kind="fock", n=1)), asymptotic=True)
        warm = realize(StateSpec(kind="fock", n=1, thermal_nbar=0.1))
        result = subplanck_depth(warm, asymptotic=True)
        assert result.nbar_star == pytest.approx(cold.nbar_star - 0.1, abs=2e-6)
