"""The reference code reproduces the closed forms it stands in for.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

import reference as ref


def moments(d: ref.Density, nodes: int = 200001) -> tuple[float, float, float]:
    xs = np.linspace(-d.reach, d.reach, nodes)
    lp = d.logp(xs)
    p = np.exp(lp - lp[np.isfinite(lp)].max())
    m0 = np.trapezoid(p, xs)
    return (np.trapezoid(xs * p, xs) / m0, np.trapezoid(xs**2 * p, xs) / m0,
            np.trapezoid(xs**4 * p, xs) / m0)


@pytest.mark.parametrize("layers", range(0, 9))
def test_ground_state_is_a_fixed_point(layers):
    r = ref.distill(ref.fock(0), layers)
    assert abs(r.min_variance - 0.5) < 1e-12
    assert abs(r.asymptotic_variance - 0.5) < 1e-9


@pytest.mark.parametrize("nbar", [0.0, 0.05, 0.1, 0.2, 0.5])
def test_thermal_fock1_limit(nbar):
    got = ref.asymptotic_variance(ref.thermal_fock(1, nbar))
    assert abs(got - ref.thermal_fock1_asymptotic_variance(nbar)) < 1e-7


def test_thermal_fock1_density_closed_form():
    nbar = 0.2
    s = 1.0 + 2.0 * nbar
    d = ref.thermal_fock(1, nbar)
    xs = np.linspace(-6.0, 6.0, 1001)
    closed = 2.0 * np.exp(-(xs**2) / s) * (xs**2 + 2.0 * nbar**2 + nbar) / (math.sqrt(math.pi) * s**2.5)
    got = np.exp(d.logp(xs))
    scale = got[500] / closed[500]
    assert np.max(np.abs(got / scale - closed)) < 1e-12


@pytest.mark.parametrize("n,nbar", [(0, 0.3), (3, 0.0), (3, 0.15), (7, 0.2)])
def test_thermal_fock_second_moment(n, nbar):
    mean, second, _ = moments(ref.thermal_fock(n, nbar))
    assert abs(mean) < 1e-10
    assert abs(second - (n + 0.5 + nbar)) < 1e-9


@pytest.mark.parametrize("delta", [0.25, 0.3, 0.4])
def test_gkp_limit(delta):
    got = ref.asymptotic_variance(ref.gkp(delta, 3, math.sqrt(math.pi)))
    assert abs(got - ref.gkp_asymptotic_variance(delta)) < 1e-9


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
def test_cat_limit(alpha):
    # exp(-p^2) cos^2(alpha p): -(log p)'' at 0 is 2 + 2 alpha^2
    assert abs(ref.asymptotic_variance(ref.cat(alpha)) - 1.0 / (2.0 + 2.0 * alpha**2)) < 1e-9


def test_fock1_asymptotic_depth_is_a_quarter():
    pops = np.array([0.0, 1.0])
    assert abs(ref.asymptotic_thermal_depth(pops) - 0.25) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fano_depth_from_quadrature_moments(n):
    """For phase-invariant states <x^2> = <n> + 1/2 and
    <x^4> = 3/4 (2 <n^2> + 2 <n> + 1); the Fano factor of the thermalised
    Fock state reaches 1 at the closed-form occupation."""

    def fano_minus_one(nbar):
        _, x2, x4 = moments(ref.thermal_fock(n, nbar))
        mean = x2 - 0.5
        second = (4.0 * x4 / 3.0 - 1.0 - 2.0 * mean) / 2.0
        return (second - mean * mean) / mean - 1.0

    root = optimize.brentq(fano_minus_one, 0.01, 0.9, xtol=1e-12)
    assert abs(root - ref.fano_depth(n)) < 1e-7


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wigner_origin_vanishes_at_half(n):
    """W_n(r) = (-1)^n / pi exp(-r^2) L_n(2 r^2), averaged over an isotropic
    Gaussian of variance nbar per quadrature (integrated in u = r^2), equals
    (2 nbar - 1)^n / (pi (1 + 2 nbar)^(n+1)): its only zero is an n-fold one
    at nbar = 1/2, a sign change for odd n."""

    def origin(nbar):
        c = 1.0 + 1.0 / (2.0 * nbar)
        f = lambda u: math.exp(-c * u) * float(np.polynomial.laguerre.lagval(2.0 * u, [0] * n + [1]))
        val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-11)
        return (-1) ** n * val / (2.0 * math.pi * nbar)

    for nbar in (0.05, 0.2, 0.4, 0.6, 0.8, 1.5):
        closed = (2.0 * nbar - 1.0) ** n / (math.pi * (1.0 + 2.0 * nbar) ** (n + 1))
        assert abs(origin(nbar) - closed) < 1e-12
    assert abs(origin(ref.WIGNER_DEPTH)) < 1e-12
    below, above = origin(ref.WIGNER_DEPTH - 0.05), origin(ref.WIGNER_DEPTH + 0.05)
    assert (below * above < 0.0) == (n % 2 == 1)


def test_windowed_protocol_keeps_the_ground_state():
    """For Gaussian inputs the sum and difference ports are independent, so
    any window leaves the output Gaussian with variance 1/2."""
    from scipy.special import erf

    cdf = ref.windowed_protocol_cdf(ref.fock(0), 3, eps=0.5)
    xs = np.linspace(-3.0, 3.0, 61)
    assert np.max(np.abs(cdf(xs) - 0.5 * (1.0 + erf(xs)))) < 1e-5


def test_narrow_window_approaches_exact_conditioning():
    d = ref.fock(1)
    exact = ref.conditioned_cdf(d, 2)
    narrow = ref.windowed_protocol_cdf(d, 2, eps=1e-3)
    xs = np.linspace(-6.0, 6.0, 241)
    assert np.max(np.abs(narrow(xs) - exact(xs))) < 1e-5


def test_ks_bound_holds_for_exact_samples():
    rng = np.random.default_rng(3)
    cdf = ref.conditioned_cdf(ref.fock(0), 0)
    for n in (100, 1000, 20000):
        samples = rng.normal(0.0, math.sqrt(0.5), n)
        assert ref.ks_statistic(samples, cdf) < ref.ks_bound(n)
