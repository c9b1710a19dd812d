"""Population statistics, sideband Rabi model, and trace reconstruction."""

import math

import numpy as np
import pytest

from subplanck.errors import FitDiverged, InsufficientData, InvalidPopulations
from subplanck.phonon import (
    RabiModel,
    fit_populations,
    phonon_stats,
    rabi_frequencies,
    rabi_signal,
    read_rabi_csv,
)

OMEGA = 2.0 * math.pi * 0.05


def point_mass(n, size):
    pops = np.zeros(size)
    pops[n] = 1.0
    return pops


class TestPhononStats:
    def test_point_mass(self):
        dist = phonon_stats(point_mass(10, 11))
        assert dist.mean == 10.0
        assert dist.variance == 0.0
        assert dist.fano == 0.0
        assert dist.snr is None

    def test_ground_state_undefined_ratios(self):
        dist = phonon_stats(point_mass(0, 5))
        assert dist.fano is None
        assert dist.snr is None

    def test_truncated_geometric_fano(self):
        nbar = 1.0
        ms = np.arange(61)
        pops = nbar**ms / (1.0 + nbar) ** (ms + 1)
        dist = phonon_stats(pops / pops.sum())
        assert dist.fano == pytest.approx(1.0 + nbar, abs=1e-4)
        assert dist.mean == pytest.approx(nbar, abs=1e-4)

    def test_snr_definition(self):
        dist = phonon_stats(np.array([0.0, 0.5, 0.0, 0.5]))
        assert dist.snr == pytest.approx(dist.mean / math.sqrt(dist.variance))

    def test_populations_are_frozen(self):
        dist = phonon_stats(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            dist.populations[0] = 1.0

    @pytest.mark.parametrize(
        "pops",
        [np.array([0.7, 0.2]), np.array([1.2, -0.2]), np.array([]), np.array([np.nan])],
    )
    def test_invalid_inputs(self, pops):
        with pytest.raises(InvalidPopulations):
            phonon_stats(pops)


class TestRabiFrequencies:
    def test_sqrt_ladder(self):
        model = RabiModel(omega01=OMEGA, n_max=5)
        omega = rabi_frequencies(model)
        assert np.allclose(omega, OMEGA * np.sqrt(np.arange(6) + 1.0), rtol=1e-12)

    def test_lamb_dicke_ladder(self):
        eta = 0.3
        model = RabiModel(omega01=OMEGA, n_max=2, scaling="lamb_dicke", lamb_dicke=eta)
        omega = rabi_frequencies(model)
        assert omega[0] == pytest.approx(OMEGA, rel=1e-12)
        assert omega[1] == pytest.approx(OMEGA * (2.0 - eta**2) / math.sqrt(2.0), rel=1e-12)

    def test_near_degenerate_high_ladder(self):
        # neighbouring high-n frequencies differ by only a few percent,
        # which is what makes the reconstruction conditioning interesting
        omega = rabi_frequencies(RabiModel(omega01=OMEGA, n_max=11))
        assert omega[10] / omega[11] == pytest.approx(math.sqrt(11.0 / 12.0), rel=1e-12)

    def test_validation(self):
        # an invalid model cannot be built, so no routine ever sees one
        with pytest.raises(ValueError):
            RabiModel(omega01=0.0)
        with pytest.raises(ValueError):
            RabiModel(omega01=OMEGA, scaling="linear")
        with pytest.raises(ValueError):
            RabiModel(omega01=OMEGA, scaling="lamb_dicke")


class TestRabiSignal:
    def test_starts_dark(self):
        model = RabiModel(omega01=OMEGA, n_max=3)
        assert rabi_signal(point_mass(2, 4), model, 0.0) == 0.0

    def test_pi_pulse_inverts(self):
        model = RabiModel(omega01=OMEGA, n_max=2)
        t_pi = math.pi / (OMEGA * math.sqrt(3.0))
        assert rabi_signal(point_mass(2, 3), model, t_pi) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_is_population_weighted(self):
        model = RabiModel(omega01=OMEGA, gamma_decay=0.01, n_max=2)
        pops = np.array([0.2, 0.5, 0.3])
        ts = np.linspace(0.0, 40.0, 17)
        omega = rabi_frequencies(model)
        expected = sum(
            pops[n]
            * np.sin(0.5 * omega[n] * ts) ** 2
            * np.exp(-0.01 * ts * (n + 1.0) ** 0.7)
            for n in range(3)
        )
        assert np.max(np.abs(rabi_signal(pops, model, ts) - expected)) <= 1e-12

    def test_scalar_in_scalar_out(self):
        model = RabiModel(omega01=OMEGA, n_max=1)
        out = rabi_signal(np.array([0.5, 0.5]), model, 3.0)
        assert isinstance(out, float)

    def test_population_length_checked(self):
        model = RabiModel(omega01=OMEGA, n_max=3)
        with pytest.raises(InvalidPopulations):
            rabi_signal(np.array([1.0]), model, 1.0)


class TestFitPopulations:
    def test_point_mass_recovered(self):
        model = RabiModel(omega01=OMEGA, gamma_decay=0.01, n_max=10)
        ts = np.linspace(0.0, 60.0, 240)
        pe = rabi_signal(point_mass(10, 11), model, ts)
        fit = fit_populations(ts, pe, model, seed=0, restarts=3)
        assert fit.distribution.populations[10] >= 0.999

    def test_noisy_mixture(self):
        truth = np.zeros(12)
        truth[9], truth[10], truth[11] = 0.05, 0.90, 0.05
        model = RabiModel(omega01=OMEGA, gamma_decay=0.01, n_max=11)
        ts = np.linspace(0.0, 60.0, 240)
        rng = np.random.default_rng(17)
        pe = rabi_signal(truth, model, ts) + rng.normal(0.0, 0.01, ts.shape[0])
        fit = fit_populations(ts, pe, model, seed=0, restarts=3)
        assert fit.distribution.populations[10] == pytest.approx(0.90, abs=0.03)
        assert fit.distribution.fano is not None and fit.distribution.fano < 1.0

    def test_round_trip_total_variation(self):
        rng = np.random.default_rng(5)
        truth = rng.dirichlet(np.ones(5))
        model = RabiModel(omega01=OMEGA, gamma_decay=0.02, n_max=4)
        ts = np.linspace(0.0, 50.0, 90)
        pe = rabi_signal(truth, model, ts)
        fit = fit_populations(ts, pe, model, seed=0, restarts=4)
        tv = 0.5 * np.sum(np.abs(fit.distribution.populations - truth))
        assert tv <= 1e-3
        assert fit.residual_norm <= 1e-6

    def test_diagnostics_reported(self):
        model = RabiModel(omega01=OMEGA, n_max=1)
        ts = np.linspace(0.0, 30.0, 24)
        pe = rabi_signal(np.array([0.3, 0.7]), model, ts)
        fit = fit_populations(ts, pe, model, seed=0, restarts=2)
        assert fit.condition_number >= 1.0
        assert fit.restarts == 2

    def test_undersampled_trace_rejected(self):
        model = RabiModel(omega01=OMEGA, n_max=4)
        ts = np.linspace(0.0, 30.0, 14)
        with pytest.raises(InsufficientData):
            fit_populations(ts, np.zeros(14), model)

    def test_shape_mismatch_rejected(self):
        model = RabiModel(omega01=OMEGA, n_max=1)
        with pytest.raises(InsufficientData):
            fit_populations(np.linspace(0, 10, 8), np.zeros(9), model)

    def test_unexplainable_trace_diverges(self):
        model = RabiModel(omega01=OMEGA, n_max=2)
        ts = np.linspace(0.0, 40.0, 40)
        rng = np.random.default_rng(3)
        with pytest.raises(FitDiverged):
            fit_populations(ts, rng.uniform(0.0, 1.0, 40), model, restarts=2)


class TestReadRabiCsv:
    def test_with_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_seconds,p_excited\n0.0,0.0\n1.5,0.25\n\n3.0,0.9\n")
        ts, pe = read_rabi_csv(str(path))
        assert np.array_equal(ts, [0.0, 1.5, 3.0])
        assert np.array_equal(pe, [0.0, 0.25, 0.9])

    def test_headerless(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0.0,0.1\n2.0,0.4\n")
        ts, pe = read_rabi_csv(str(path))
        assert ts.shape == (2,) and pe[1] == 0.4

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0.0,0.1\nnot-a-number,0.4\n")
        with pytest.raises(ValueError):
            read_rabi_csv(str(path))
