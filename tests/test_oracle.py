"""Sampling-based protocol simulation checked against the deterministic route."""

import math

import numpy as np
import pytest

from subplanck.density import GridSpec, log_interp, make_grid_density
from subplanck.distill import universal_distill
from subplanck.errors import NoAcceptedSamples, PreconditionError, TooFewSamples
from subplanck.oracle import (
    _CHUNK,
    MAX_PROTOCOL_LAYERS,
    ProtocolRun,
    _cdf_nodes,
    _InverseCdf,
    ks_distance,
    sample_density,
    simulate_protocol,
)
from subplanck.states import StateSpec, default_grid, realize


def cumulative_on(d, grid):
    vals = d.values()
    steps = 0.5 * (vals[1:] + vals[:-1]) * d.x_step
    cdf = np.concatenate(([0.0], np.cumsum(steps)))
    cdf /= cdf[-1]
    return np.interp(grid, d.xs(), cdf, left=0.0, right=1.0)


def odd_grid_fock3():
    spec = StateSpec(kind="fock", n=3)
    return realize(spec, GridSpec(default_grid(spec).extent, 4999))


INVERSE_CDF_DENSITIES = {
    **{
        f"fock{n}-nbar{nbar}": (lambda n=n, nbar=nbar: realize(
            StateSpec(kind="fock", n=n, thermal_nbar=nbar)
        ))
        for n in range(1, 11)
        for nbar in (0.0, 0.1, 2.0)
    },
    "cat": lambda: realize(StateSpec(kind="cat", alpha=2.0)),
    "gkp": lambda: realize(
        StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=math.sqrt(math.pi))
    ),
    "mixture": lambda: realize(
        StateSpec(kind="mixture", populations=(0.2, 0.5, 0.3), thermal_nbar=0.1)
    ),
    "odd-grid-4999": odd_grid_fock3,
}


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_interp(xs, cdf, u):
    assert_same_bytes(_InverseCdf(xs, cdf)._draw(u), np.interp(u, cdf, xs))


def pooled_reference(pools, layers, xbar, eps):
    """The protocol with no squeeze on whole-batch draws ``pools``: pool each
    layer; returns (samples bytes, accepted, attempted) or the error's type."""
    kept = []
    for pool in pools:
        for _ in range(layers):
            if pool.size < 2:
                pool = pool[:0]
                break
            if pool.size % 2:
                pool = pool[:-1]
            a = pool[0::2]
            b = pool[1::2]
            keep = np.abs((a - b) / math.sqrt(2.0) - xbar) <= eps
            pool = ((a + b) / math.sqrt(2.0))[keep]
        kept.append(pool)
    samples = np.concatenate(kept)
    if samples.size == 0:
        return NoAcceptedSamples
    return samples.tobytes(), samples.size, sum(pool.size >> layers for pool in pools)


def squeezed(p, layers, xbar, eps, seed, batch_size):
    try:
        run = simulate_protocol(p, layers, xbar, eps, 2, seed, batch_size)
    except NoAcceptedSamples:
        return NoAcceptedSamples
    return run.samples_out.tobytes(), run.accepted, run.attempted


class TestInverseCdfBitExact:
    """The guide-table draw returns ``np.interp(u, cdf, xs)`` to the bit."""

    @pytest.mark.parametrize("name", list(INVERSE_CDF_DENSITIES))
    def test_matches_interp(self, name):
        xs, cdf = _cdf_nodes(INVERSE_CDF_DENSITIES[name]())
        draw = _InverseCdf(xs, cdf)
        # a batch that is not a multiple of the chunk, then draws that hit
        # a node, zero, and the flagged cells that take the search
        count = (1 << 17) + 3
        got = draw(np.random.default_rng([17, len(name)]), count)
        u = np.random.default_rng([17, len(name)]).random(count)
        assert_same_bytes(got, np.interp(u, cdf, xs))
        on_nodes = np.concatenate(([0.0], cdf[cdf < 1.0]))
        assert_same_bytes(draw._draw(on_nodes), np.interp(on_nodes, cdf, xs))
        wide = np.flatnonzero(draw._wide)
        assert wide.size > 0
        offsets = np.random.default_rng(5).random(wide.size)
        in_wide = (wide + offsets) / draw._cells
        assert draw._wide[(in_wide * draw._cells).astype(np.intp)].all()
        assert_same_bytes(draw._draw(in_wide), np.interp(in_wide, cdf, xs))

    @pytest.mark.parametrize(
        "count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7, (1 << 17) + 3]
    )
    def test_chunk_edges(self, count):
        xs, cdf = _cdf_nodes(realize(StateSpec(kind="fock", n=2)))
        got = _InverseCdf(xs, cdf)(np.random.default_rng(count), count)
        u = np.random.default_rng(count).random(count)
        assert_same_bytes(got, np.interp(u, cdf, xs))

    def test_interior_zero_width_step(self):
        # the draw on the step's CDF value takes the last node of the step
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        cdf = np.array([0.0, 0.25, 0.5, 0.5, 1.0])
        u = np.array([0.0, 0.1, 0.25, 0.4, 0.5, 0.5000001, 0.75, 0.999])
        assert_matches_interp(xs, cdf, u)

    def test_nan_fallback(self):
        # on a nondecreasing CDF with finite positions the chosen step always
        # has positive width, so only infinite positions reach numpy's retry
        # from the step's right end, and its flat-step value after that
        xs = np.array([-np.inf, 0.0, np.inf, np.inf, 3.0, 4.0])
        cdf = np.array([0.0, 0.25, 0.5, 0.75, 0.75, 1.0])
        u = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9])
        with np.errstate(all="raise"):
            assert_matches_interp(xs, cdf, u)

    def test_draw_on_a_node_keeps_its_sign_and_value(self):
        # slope * 0 + (-0.0) is +0.0, and an overflowing slope times 0 is
        # NaN: both tell numpy's u == cdf[j] case from its formula
        xs = np.array([-1.0, -0.0, 1.0])
        cdf = np.array([0.0, 0.5, 1.0])
        assert_matches_interp(xs, cdf, np.array([0.25, 0.5, 0.75]))
        tiny = 5e-324
        xs = np.array([0.0, 1.0, 2.0])
        cdf = np.array([0.0, tiny, 1.0])
        assert_matches_interp(xs, cdf, np.array([0.0, tiny, 0.5]))


class TestCellMidpoints:
    """Each guide-table cell's finite midpoint lies within one grid step of
    every draw in the cell, which is the bound the protocol's squeeze uses."""

    @pytest.mark.parametrize("name", list(INVERSE_CDF_DENSITIES))
    def test_draws_lie_within_a_step_of_the_midpoint(self, name):
        p = INVERSE_CDF_DENSITIES[name]()
        xs, cdf = _cdf_nodes(p)
        draw = _InverseCdf(xs, cdf)
        assert np.isnan(draw._mid[draw._wide]).all()
        assert np.isfinite(draw._mid).mean() > 0.99
        k = np.arange(draw._cells)
        u = np.concatenate((
            [0.0],
            cdf[cdf < 1.0],
            k / draw._cells,
            np.nextafter((k + 1) / draw._cells, 0.0),
            np.random.default_rng([23, len(name)]).random(1 << 16),
        ))
        mid = draw._mid[(u * draw._cells).astype(np.intp)]
        finite = np.isfinite(mid)
        reach = p.x_step + 1e-9 * max(abs(p.x_min), abs(p.x_max))
        assert np.all(np.abs(draw._draw(u[finite]) - mid[finite]) <= reach)


class TestSampleDensity:
    def test_ground_moments(self):
        samples = sample_density(realize(StateSpec(kind="fock", n=0)), 1_000_000, seed=1)
        assert abs(samples.mean()) <= 0.005
        assert abs(samples.var() - 0.5) <= 0.005

    def test_fock1_moments(self):
        samples = sample_density(realize(StateSpec(kind="fock", n=1)), 1_000_000, seed=2)
        assert abs(samples.mean()) <= 0.005
        assert abs(samples.var() - 1.5) <= 0.01

    def test_deterministic_per_seed(self):
        a = sample_density(realize(StateSpec(kind="fock", n=1)), 5000, seed=7)
        b = sample_density(realize(StateSpec(kind="fock", n=1)), 5000, seed=7)
        c = sample_density(realize(StateSpec(kind="fock", n=1)), 5000, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_count_validated(self):
        with pytest.raises(PreconditionError):
            sample_density(realize(StateSpec(kind="fock", n=0)), 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None], ids=repr)
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        p = realize(StateSpec(kind="fock", n=0))
        with pytest.raises(PreconditionError, match="seed must be a nonnegative integer"):
            sample_density(p, 10, seed=seed)
        with pytest.raises(PreconditionError, match="seed must be a nonnegative integer"):
            simulate_protocol(p, 1, batches=1, seed=seed)

    def test_numpy_integer_seed_is_an_integer(self):
        p = realize(StateSpec(kind="fock", n=0))
        assert_same_bytes(sample_density(p, 10, seed=np.int64(5)), sample_density(p, 10, seed=5))

    def test_samples_match_density(self):
        samples = sample_density(realize(StateSpec(kind="fock", n=1)), 200_000, seed=3)
        assert ks_distance(samples, realize(StateSpec(kind="fock", n=1))) <= 0.01


class TestSimulateProtocol:
    def test_single_layer_matches_deterministic(self):
        # one ground-state layer conditioned at zero: the sum port is again
        # the ground state, up to the finite window bias measured by KS
        p = realize(StateSpec(kind="fock", n=0))
        run = simulate_protocol(p, 1, eps=0.02, batches=80, seed=4)
        assert run.accepted >= 100_000
        assert ks_distance(run.samples_out, universal_distill(p, 1)) <= 0.01

    def test_run_is_reproducible(self):
        p = realize(StateSpec(kind="fock", n=1))
        a = simulate_protocol(p, 2, eps=0.05, batches=4, seed=9)
        b = simulate_protocol(p, 2, eps=0.05, batches=4, seed=9)
        assert np.array_equal(a.samples_out, b.samples_out)
        assert a.attempted == b.attempted

    def test_window_bias_shrinks_with_eps(self):
        # the expectation of the accepted-sample distribution is the
        # window-averaged two-copy product; its distance to the exact-point
        # output is the pure bias, far below KS sampling noise at any
        # affordable sample count, so compare expectations directly
        p = realize(StateSpec(kind="fock", n=1))
        exact = universal_distill(p, 1)

        def windowed_expectation(eps):
            xs = exact.xs()
            ds = np.linspace(-eps, eps, 81)
            panels = np.exp(
                log_interp(p, (xs[None, :] + ds[:, None]) / math.sqrt(2.0))
                + log_interp(p, (xs[None, :] - ds[:, None]) / math.sqrt(2.0))
            )
            avg = np.trapezoid(panels, ds, axis=0)
            return make_grid_density(xs, avg)

        def ks_between(d1, d2):
            grid = np.linspace(d1.x_min, d1.x_max, 20001)
            return float(np.max(np.abs(cumulative_on(d1, grid) - cumulative_on(d2, grid))))

        biases = [ks_between(windowed_expectation(eps), exact) for eps in (0.1, 0.05, 0.02)]
        assert biases[0] > biases[1] > biases[2]
        assert biases[2] <= 1e-4

    def test_acceptance_grows_with_window(self):
        p = realize(StateSpec(kind="fock", n=1))
        majority = 0
        for seed in range(5):
            rates = [
                simulate_protocol(p, 1, eps=eps, batches=2, seed=seed).acceptance_rate
                for eps in (0.1, 0.05, 0.02)
            ]
            majority += rates[0] > rates[1] > rates[2]
        assert majority >= 3

    def test_batches_are_a_prefix(self):
        # each batch draws from its own (seed, batch index) stream
        p = realize(StateSpec(kind="fock", n=1))
        four = simulate_protocol(p, 2, eps=0.05, batches=4, seed=9)
        eight = simulate_protocol(p, 2, eps=0.05, batches=8, seed=9)
        assert_same_bytes(four.samples_out, eight.samples_out[: four.accepted])
        assert eight.accepted > four.accepted

    def test_acceptance_bookkeeping(self):
        p = realize(StateSpec(kind="fock", n=0))
        run = simulate_protocol(p, 2, eps=0.05, batches=2, seed=0)
        assert run.attempted == 2 * ((1 << 17) // 4)
        assert 0 < run.accepted <= run.attempted
        assert run.acceptance_rate == run.accepted / run.attempted

    @pytest.mark.parametrize("name", list(INVERSE_CDF_DENSITIES))
    def test_squeeze_keeps_every_sample(self, name):
        # the first layer, decided on cell midpoints where it can be, gives
        # the bytes, counts and errors of drawing both batches whole
        p = INVERSE_CDF_DENSITIES[name]()
        draw = _InverseCdf(*_cdf_nodes(p))
        for layers in range(1, MAX_PROTOCOL_LAYERS + 1):
            for size in (1 << layers, _CHUNK - 1, _CHUNK + 1, 5001, 1 << 17):
                pools = [draw(np.random.default_rng([size, i]), size) for i in range(2)]
                for xbar in (0.0, 0.7, -1.3):
                    assert squeezed(p, layers, xbar, 0.05, size, size) == pooled_reference(
                        pools, layers, xbar, 0.05
                    ), (layers, size, xbar)
        pools = [draw(np.random.default_rng([0, i]), 5001) for i in range(2)]
        assert pooled_reference(pools, 1, 30.0, 0.05) is NoAcceptedSamples
        assert squeezed(p, 1, 30.0, 0.05, 0, 5001) is NoAcceptedSamples

    def test_unreachable_condition(self):
        p = realize(StateSpec(kind="fock", n=0))
        with pytest.raises(NoAcceptedSamples):
            simulate_protocol(p, 1, xbar=30.0, batches=2, seed=0)

    def test_layer_bound(self):
        with pytest.raises(PreconditionError):
            simulate_protocol(realize(StateSpec(kind="fock", n=0)), MAX_PROTOCOL_LAYERS + 1)
        with pytest.raises(PreconditionError):
            simulate_protocol(realize(StateSpec(kind="fock", n=0)), 0)

    def test_window_must_be_positive(self):
        with pytest.raises(PreconditionError):
            simulate_protocol(realize(StateSpec(kind="fock", n=0)), 1, eps=0.0)

    def test_samples_are_frozen(self):
        run = simulate_protocol(realize(StateSpec(kind="fock", n=0)), 1, batches=1, seed=0)
        with pytest.raises(ValueError):
            run.samples_out[0] = 0.0

    def test_report_fields(self):
        p = realize(StateSpec(kind="fock", n=0))
        run = simulate_protocol(p, 1, eps=0.05, batches=1, seed=3)
        d = run.to_dict()
        assert list(d) == [
            "accepted",
            "attempted",
            "acceptance_rate",
            "ks_vs_deterministic",
            "window_eps",
            "seed",
        ]
        assert d["window_eps"] == 0.05
        assert d["seed"] == 3


class TestKsDistance:
    def test_self_consistency(self):
        p = realize(StateSpec(kind="fock", n=0))
        assert ks_distance(sample_density(p, 100_000, seed=5), p) <= 0.01

    def test_separates_distinct_densities(self):
        samples = sample_density(realize(StateSpec(kind="fock", n=0)), 100_000, seed=6)
        assert ks_distance(samples, realize(StateSpec(kind="fock", n=1))) >= 0.2

    def test_minimum_sample_count(self):
        with pytest.raises(TooFewSamples):
            ks_distance(np.zeros(99), realize(StateSpec(kind="fock", n=0)))


class TestProtocolRun:
    def test_bookkeeping_guard(self):
        with pytest.raises(PreconditionError):
            ProtocolRun(
                samples_out=np.zeros(5),
                accepted=10,
                attempted=5,
                window_eps=0.02,
                seed=0,
            )
