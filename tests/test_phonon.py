"""Population statistics, sideband Rabi model, and trace reconstruction."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from subplanck.cli import main
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


def design_matrix(model, ts):
    size = model.n_max + 1
    return np.column_stack([rabi_signal(point_mass(n, size), model, ts) for n in range(size)])


def softmax_fit(ts, pe, model, seed=0, restarts=8):
    """The earlier fit, kept as a reference: least squares on softmax weights,
    started flat and from ``restarts`` seeded random points, best cost wins."""
    design = design_matrix(model, ts)

    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    def residuals(z):
        return design @ softmax(z) - pe

    rng = np.random.default_rng(seed)
    starts = [np.zeros(design.shape[1])]
    starts += [rng.normal(0.0, 2.0, design.shape[1]) for _ in range(restarts)]
    best = min(
        (
            least_squares(
                residuals, z0, method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-12,
                max_nfev=4000,
            )
            for z0 in starts
        ),
        key=lambda sol: sol.cost,
    )
    pops = softmax(best.x)
    return pops / pops.sum()


def battery(n_max):
    """Traces of one ladder size: noise-free and noisy, with and without
    decay, on both frequency ladders; odd sizes end in a point mass, even
    sizes carry a full-support mixture."""
    rng = np.random.default_rng(n_max)
    truth = point_mass(n_max, n_max + 1)
    if n_max % 2 == 0:
        truth = rng.dirichlet(np.ones(n_max + 1))
    ts = np.linspace(0.0, 60.0, max(60, 12 * (n_max + 1)))
    for noise, decay, scaling in itertools.product(
        (0.0, 0.01), (0.0, 0.01), ("sqrt", "lamb_dicke")
    ):
        model = RabiModel(
            omega01=OMEGA, gamma_decay=decay, n_max=n_max, scaling=scaling,
            lamb_dicke=0.2 if scaling == "lamb_dicke" else 0.0,
        )
        pe = rabi_signal(truth, model, ts)
        if noise:
            pe = pe + rng.normal(0.0, noise, ts.shape[0])
        yield truth, model, ts, pe, noise


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
        for n_max in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                RabiModel(omega01=OMEGA, n_max=n_max)
        for name in ("omega01", "gamma_decay", "lamb_dicke", "decay_exponent"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    RabiModel(**{"omega01": OMEGA, name: bad})


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
        fit = fit_populations(ts, pe, model)
        assert fit.distribution.populations[10] >= 0.999

    def test_noisy_mixture(self):
        truth = np.zeros(12)
        truth[9], truth[10], truth[11] = 0.05, 0.90, 0.05
        model = RabiModel(omega01=OMEGA, gamma_decay=0.01, n_max=11)
        ts = np.linspace(0.0, 60.0, 240)
        rng = np.random.default_rng(17)
        pe = rabi_signal(truth, model, ts) + rng.normal(0.0, 0.01, ts.shape[0])
        fit = fit_populations(ts, pe, model)
        assert fit.distribution.populations[10] == pytest.approx(0.90, abs=0.03)
        assert fit.distribution.fano is not None and fit.distribution.fano < 1.0

    def test_round_trip_total_variation(self):
        rng = np.random.default_rng(5)
        truth = rng.dirichlet(np.ones(5))
        model = RabiModel(omega01=OMEGA, gamma_decay=0.02, n_max=4)
        ts = np.linspace(0.0, 50.0, 90)
        pe = rabi_signal(truth, model, ts)
        fit = fit_populations(ts, pe, model)
        tv = 0.5 * np.sum(np.abs(fit.distribution.populations - truth))
        assert tv <= 1e-3
        assert fit.residual_norm <= 1e-6

    def test_diagnostics_reported(self):
        model = RabiModel(omega01=OMEGA, n_max=1)
        ts = np.linspace(0.0, 30.0, 24)
        pe = rabi_signal(np.array([0.3, 0.7]), model, ts)
        fit = fit_populations(ts, pe, model)
        assert fit.condition_number >= 1.0

    @pytest.mark.parametrize("n_max", range(1, 12))
    def test_cost_never_above_the_softmax_fit(self, n_max):
        for _, model, ts, pe, _ in battery(n_max):
            design = design_matrix(model, ts)
            exact = fit_populations(ts, pe, model).distribution.populations
            reference = softmax_fit(ts, pe, model)
            cost = float(np.sum((design @ exact - pe) ** 2))
            assert cost <= float(np.sum((design @ reference - pe) ** 2)) + 1e-12

    @pytest.mark.parametrize("n_max", range(1, 12))
    def test_kkt_certificate(self, n_max):
        # simplex optimum: the gradient A^T (A p - y) equals -lambda on the
        # support and is at least -lambda on the zero set
        for _, model, ts, pe, _ in battery(n_max):
            design = design_matrix(model, ts)
            pops = fit_populations(ts, pe, model).distribution.populations
            grad = design.T @ (design @ pops - pe)
            support = pops > 0.0
            level = grad[support].mean()
            assert np.max(np.abs(grad[support] - level)) <= 1e-12
            assert np.all(grad[~support] >= level - 1e-12)

    @pytest.mark.parametrize("n_max", range(1, 12))
    def test_noise_free_recovery_is_exact(self, n_max):
        for truth, model, ts, pe, noise in battery(n_max):
            if noise:
                continue
            pops = fit_populations(ts, pe, model).distribution.populations
            assert 0.5 * np.sum(np.abs(pops - truth)) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_trace_rejected(self, bad):
        model = RabiModel(omega01=OMEGA, n_max=1)
        ts = np.linspace(0.0, 30.0, 24)
        pe = rabi_signal(np.array([0.3, 0.7]), model, ts)
        pe[5] = bad
        with pytest.raises(InsufficientData, match="non-finite"):
            fit_populations(ts, pe, model)

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
            fit_populations(ts, rng.uniform(0.0, 1.0, 40), model)


class TestFitPhononsSeed:
    def test_bytes_do_not_depend_on_seed(self, tmp_path, capsys):
        model = {"omega01": OMEGA, "gamma_decay": 0.01, "n_max": 3}
        ts = np.linspace(0.0, 60.0, 60)
        truth = np.array([0.1, 0.2, 0.6, 0.1])
        pe = rabi_signal(truth, RabiModel(**model), ts)
        pe = pe + np.random.default_rng(2).normal(0.0, 0.01, ts.shape[0])
        csv = tmp_path / "trace.csv"
        csv.write_text("".join(f"{t:.17g},{p:.17g}\n" for t, p in zip(ts, pe)))
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"rabi_csv": str(csv), "rabi_model": model}))
        outputs = set()
        for seed in ("0", "1", "12345"):
            assert main(["fit-phonons", "--config", str(cfg), "--seed", seed]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


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
