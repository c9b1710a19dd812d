"""Thermal robustness witnesses and their vanishing occupations."""

import math

import numpy as np
import pytest

from subplanck.density import GridSpec, log_interp
from subplanck.distill import quantify
from subplanck.depth import (
    fano_depth,
    subplanck_depth,
    thermal_fock_number_distribution,
    thermal_fock_wigner_origin,
    wigner_negativity_depth,
)
from subplanck.errors import CutoffTooSmall, NoSqueezingAtZero
from subplanck.states import StateSpec, realize

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


class TestSubplanckDepth:
    def test_fock1_asymptotic_witness(self):
        # blurred twin-peak density loses its variance advantage at 1/4
        result = subplanck_depth(StateSpec(kind="fock", n=1), asymptotic=True)
        assert result.nbar_star == pytest.approx(0.25, abs=1e-3)
        assert result.witness == "subplanck-asymptotic"

    def test_fock1_pipeline_witness(self):
        # finite copies keep min_variance above the limit, so the crossing
        # sits later than the asymptotic root; verify the sign change at the
        # returned bracket rather than trusting the midpoint
        result = subplanck_depth(StateSpec(kind="fock", n=1))
        assert result.witness == "subplanck-N4"
        lo, hi = result.bracket
        assert hi - lo <= 1e-3
        assert result.nbar_star > 0.25

        def min_var(nbar):
            dens = realize(StateSpec(kind="fock", n=1, thermal_nbar=nbar))
            return quantify(dens).min_variance

        assert min_var(lo) < 0.5 < min_var(hi)

    def test_tied_mixture_brackets_the_reference_depth(self):
        # the centre maximum, refined a hair below x = 0, must keep winning the
        # tie-break up to the depth; the side peak would end the search late
        spec = StateSpec(kind="mixture", populations=TIED_MIXTURE)
        result = subplanck_depth(spec, asymptotic=True)
        lo, hi = result.bracket
        assert lo - 1e-4 <= REF_DEPTH <= hi + 1e-4

    def test_classical_input_rejected(self):
        with pytest.raises(NoSqueezingAtZero):
            subplanck_depth(StateSpec(kind="fock", n=0), asymptotic=True)

    def test_prethermalized_input_rejected(self):
        with pytest.raises(NoSqueezingAtZero):
            subplanck_depth(
                StateSpec(kind="fock", n=1, thermal_nbar=0.1), asymptotic=True
            )
