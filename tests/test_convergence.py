"""Convergence properties of the filter scan, drawn by hypothesis.

Skipped as a module where hypothesis is not installed (it is a test extra).
"""

import math

import numpy as np
import pytest

from subplanck.density import GridSpec, make_grid_density
from subplanck.distill import GROUND_VARIANCE, DistillConfig, quantify
from subplanck.states import StateSpec, default_grid, realize

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CONVERGENCE = settings(max_examples=25, deadline=None, derandomize=True)


def catalog_specs():
    return st.one_of(
        st.builds(
            StateSpec,
            kind=st.just("fock"),
            n=st.integers(0, 10),
            thermal_nbar=st.sampled_from([0.0, 0.05, 0.1]),
        ),
        st.builds(StateSpec, kind=st.just("cat"), alpha=st.floats(1.0, 3.0)),
        st.builds(
            StateSpec,
            kind=st.just("gkp"),
            delta=st.floats(0.25, 0.4),
            side_peaks=st.integers(1, 3),
            spacing=st.just(math.sqrt(math.pi)),
        ),
    )


# analytic densities, so a shift moves the grid against the peak
SHIFTABLE = {
    "fock1": lambda x: x * x * np.exp(-x * x),
    "fock2": lambda x: (2.0 * x * x - 1.0) ** 2 * np.exp(-x * x),
    "fock3": lambda x: (2.0 * x**3 - 3.0 * x) ** 2 * np.exp(-x * x),
    "cat2": lambda x: np.exp(-x * x) * np.cos(2.0 * x) ** 2,
}


class TestConvergence:
    @CONVERGENCE
    @given(offset=st.floats(-2.0, 2.0), layers=st.integers(0, 8))
    def test_ground_state_is_a_fixed_point(self, offset, layers):
        # off centre the grid can put the optimum just above the resolution
        # floor, where the trapezoid's moments err by about
        # 2 (2 pi)^2 exp(-2 pi^2) = 2.1e-7 (relative)
        xs = default_grid(StateSpec(kind="fock", n=0)).xs()
        p = make_grid_density(xs, np.exp(-((xs - offset) ** 2)))
        report = quantify(p, DistillConfig(layers=layers))
        assert abs(report.min_variance - GROUND_VARIANCE) <= 2.5e-7
        assert not report.is_squeezed

    @CONVERGENCE
    @given(
        name=st.sampled_from(sorted(SHIFTABLE)),
        offset=st.floats(-2.0, 2.0),
        layers=st.integers(0, 8),
    )
    def test_shift_leaves_min_variance_unchanged(self, name, offset, layers):
        # the grid samples the shifted density at other points of its peak
        xs = GridSpec(12.0).xs()
        f = SHIFTABLE[name]
        cfg = DistillConfig(layers=layers)
        base = quantify(make_grid_density(xs, f(xs)), cfg).min_variance
        moved = quantify(make_grid_density(xs, f(xs - offset)), cfg).min_variance
        assert abs(moved - base) <= 1e-6

    @CONVERGENCE
    @given(
        components=st.lists(
            st.tuples(st.floats(0.05, 1.0), st.floats(-3.0, 3.0), st.floats(0.5, 2.0)),
            min_size=1,
            max_size=4,
        ),
        layers=st.integers(0, 8),
    )
    def test_mixtures_of_unsqueezed_gaussians_never_squeeze(self, components, layers):
        # each component's log density has curvature >= -2, and so have the
        # powered and the filtered density; Cramer-Rao then bounds the
        # variance below by 1/2
        xs = GridSpec(15.0).xs()
        ps = sum(
            w * np.exp(-((xs - mu) ** 2) / (2.0 * var)) / math.sqrt(var)
            for w, mu, var in components
        )
        report = quantify(make_grid_density(xs, ps), DistillConfig(layers=layers))
        assert not report.is_squeezed

    @CONVERGENCE
    @given(spec=catalog_specs(), layers=st.integers(0, 8))
    def test_doubling_the_nodes_barely_moves_min_variance(self, spec, layers):
        grid = default_grid(spec)
        cfg = DistillConfig(layers=layers)
        coarse = quantify(realize(spec, grid), cfg).min_variance
        fine = quantify(realize(spec, GridSpec(grid.extent, 2 * grid.nodes)), cfg).min_variance
        assert abs(fine - coarse) <= 2e-6
