"""End-to-end acceptance suite: every number the package promises, at tolerance.

Each check computes its quantities, prints a single PASS/FAIL summary line
(visible under ``pytest -s``), then asserts.  The Monte Carlo equivalence run
draws ~2.5e9 input samples and dominates the runtime; the whole suite takes
about five minutes.
"""

import math
import time

import numpy as np
import pytest

from subplanck.density import (
    GridSpec,
    convolve_gaussian,
    curvature_at,
    from_log_values,
    log_interp,
    variance,
)
from subplanck.depth import subplanck_depth, wigner_negativity_depth
from subplanck.distill import (
    DistillConfig,
    asymptotic_variance,
    displace_to_origin,
    quantify,
    universal_distill,
)
from subplanck.oracle import ks_distance, simulate_protocol
from subplanck.phonon import RabiModel, fit_populations, rabi_signal
from subplanck.states import StateSpec, default_grid, realize

SQRT_PI = math.sqrt(math.pi)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


def test_a01_ground_state_is_a_fixed_point():
    worst_mv = 0.0
    worst_av = 0.0
    slowest = 0.0
    for layers in range(9):
        t0 = time.perf_counter()
        rep = quantify(realize(StateSpec(kind="fock", n=0)), DistillConfig(layers=layers))
        slowest = max(slowest, time.perf_counter() - t0)
        worst_mv = max(worst_mv, abs(rep.min_variance - 0.5))
        worst_av = max(worst_av, abs(rep.asymptotic_variance - 0.5))
    ok = worst_mv <= 1e-4 and worst_av <= 1e-6 and slowest < 1.0
    report(
        "A01",
        ok,
        f"ground state, 0..8 layers: |min_var-0.5| <= {worst_mv:.1e}, "
        f"|asym-0.5| <= {worst_av:.1e}, slowest call {slowest * 1e3:.0f} ms",
    )
    assert worst_mv <= 1e-4
    assert worst_av <= 1e-6
    assert slowest < 1.0


def test_a02_fock1_asymptotics_and_thermal_concavity():
    p1 = realize(StateSpec(kind="fock", n=1))
    asym = asymptotic_variance(p1)
    worst = 0.0
    for nbar in (0.0, 0.1, 0.2):
        got = asymptotic_variance(convolve_gaussian(p1, nbar))
        want = (1.0 + 2.0 * nbar) / (4.0 * abs(1.0 - nbar))
        worst = max(worst, abs(got - want))
    ok = abs(asym - 0.25) <= 1e-4 and worst <= 1e-3
    report(
        "A02",
        ok,
        f"Fock-1 asym var {asym:.6f} (want 0.25), thermalized concavity "
        f"err <= {worst:.1e} at nbar in {{0, 0.1, 0.2}}",
    )
    assert abs(asym - 0.25) <= 1e-4
    assert worst <= 1e-3


def test_a03_fock1_asymptotic_depth():
    r = subplanck_depth(realize(StateSpec(kind="fock", n=1)), asymptotic=True)
    ok = abs(r.nbar_star - 0.250) <= 1e-3
    report("A03", ok, f"Fock-1 squeezing depth (asymptotic witness): nbar* = {r.nbar_star:.6f}")
    assert r.witness == "subplanck-asymptotic"
    assert abs(r.nbar_star - 0.250) <= 1e-3


# Converged asymptotic depths of Fock 4..10 from bench/reference.py
# (quadrature-exact thermal densities, brentq to 1e-10).  Each one is
# asymptotic_thermal_depth([0.0] * n + [1.0]); for n = 7, run in bench/:
#   python -c "import reference as r; print(repr(r.asymptotic_thermal_depth([0.0] * 7 + [1.0])))"
A04_REFERENCE_DEPTHS = {
    4: 0.2712358836000712,
    5: 0.2714393384052529,
    6: 0.2712791720727156,
    7: 0.27096297895371124,
    8: 0.270580947494825,
    9: 0.2701756414965282,
    10: 0.2697681219032561,
}


def test_a04_depth_converges_for_high_fock():
    t0 = time.perf_counter()
    stars = {
        n: subplanck_depth(realize(StateSpec(kind="fock", n=n)), asymptotic=True).nbar_star
        for n in A04_REFERENCE_DEPTHS
    }
    elapsed = time.perf_counter() - t0
    worst = max(abs(star - A04_REFERENCE_DEPTHS[n]) for n, star in stars.items())
    ok = worst <= 5e-6 and elapsed < 120.0
    report(
        "A04",
        ok,
        f"depth for n = 4..10 within {worst:.1e} of the reference (want <= 5e-6), "
        f"sweep {elapsed:.1f} s",
    )
    for n, star in stars.items():
        assert abs(star - A04_REFERENCE_DEPTHS[n]) <= 5e-6, (n, star)
    assert elapsed < 120.0


def test_a05_wigner_negativity_depth_is_half():
    worst = 0.0
    for n in range(1, 11):
        r = wigner_negativity_depth(n)
        worst = max(worst, abs(r.nbar_star - 0.5))
    ok = worst <= 1e-3
    report("A05", ok, f"Wigner-negativity depth, n = 1..10: |nbar* - 0.5| <= {worst:.1e}")
    assert worst <= 1e-3


def test_a06_monotone_in_layers_and_fock_number():
    ns = (2, 4, 6, 8, 10)
    layer_counts = (1, 2, 3, 4)
    mv = {}
    eff = {}
    for n in ns:
        p = realize(StateSpec(kind="fock", n=n))
        for layers in layer_counts:
            rep = quantify(p, DistillConfig(layers=layers))
            mv[n, layers] = rep.min_variance
            eff[n, layers] = rep.efficiency
    dec_layers = all(
        mv[n, a] > mv[n, b] for n in ns for a, b in zip(layer_counts, layer_counts[1:])
    )
    dec_n = all(mv[a, c] > mv[b, c] for c in layer_counts for a, b in zip(ns, ns[1:]))
    below_half = all(v < 0.5 for v in mv.values())
    eff_rises = all(
        eff[n, a] < eff[n, b] for n in ns for a, b in zip(layer_counts, layer_counts[1:])
    )
    ok = dec_layers and dec_n and below_half and eff_rises
    report(
        "A06",
        ok,
        f"min_var spans {mv[2, 1]:.4f} (n=2, 1 layer) .. {mv[10, 4]:.4f} (n=10, 4 layers); "
        f"falls with layers and with n, all < 0.5, efficiency rises with layers",
    )
    assert dec_layers
    assert dec_n
    assert below_half
    assert eff_rises


def test_a07_thermalized_fock1_closed_form():
    nbar = 0.2
    th = convolve_gaussian(realize(StateSpec(kind="fock", n=1)), nbar)
    x = th.xs()
    s = 1.0 + 2.0 * nbar
    closed = (
        2.0
        * np.exp(-(x**2) / s)
        * (x**2 + 2.0 * nbar**2 + nbar)
        / (math.sqrt(math.pi) * s**2.5)
    )
    err = float(np.max(np.abs(th.values() - closed)))
    ok = err <= 1e-6
    report("A07", ok, f"thermalized Fock-1 density vs closed form: max abs err {err:.1e}")
    assert err <= 1e-6


def test_a08_gkp_squeezing_recovery():
    delta = 0.3
    target = delta**2 / 2.0
    p = realize(StateSpec(kind="gkp", delta=delta, side_peaks=3, spacing=SQRT_PI))
    asym = asymptotic_variance(p)
    p4 = realize(StateSpec(kind="gkp", delta=delta, side_peaks=3, spacing=SQRT_PI / 4.0))
    raw4 = variance(p4)
    asym4 = asymptotic_variance(p4)
    rel4 = abs(asym4 - target) / target
    ok = abs(asym - target) <= 1e-3 and raw4 > 0.5 and rel4 <= 0.03
    report(
        "A08",
        ok,
        f"gkp sqrt(pi): asym {asym:.6f} (want {target}); quarter spacing: "
        f"raw var {raw4:.3f} > 0.5 yet asym within {rel4:.2%} of {target}",
    )
    assert abs(asym - target) <= 1e-3
    assert raw4 > 0.5
    assert rel4 <= 0.03


def test_a09_cubic_phase_needs_a_conditioning_layer():
    p = realize(StateSpec(kind="cubic", gamma=1.0))
    bare = quantify(p, DistillConfig(layers=4))
    shaped = quantify(
        p, DistillConfig(layers=4, nonuniversal_prelayers=1, prelayer_xbar=5.0)
    )
    ok = bare.asymptotic_variance >= 0.5 and abs(shaped.asymptotic_variance - 0.152) <= 0.005
    report(
        "A09",
        ok,
        f"cubic gamma=1: bare asym {bare.asymptotic_variance:.4f} >= 0.5; "
        f"one conditioned layer at xbar=5 gives asym {shaped.asymptotic_variance:.6f} "
        f"(want 0.152 +- 0.005)",
    )
    assert bare.asymptotic_variance >= 0.5
    assert abs(shaped.asymptotic_variance - 0.152) <= 0.005


def test_a10_classical_mixtures_never_squeeze():
    rng = np.random.default_rng(20260817)
    gs = GridSpec(12.0)
    xs = gs.xs()
    worst_mv = np.inf
    false_positives = 0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        mus = rng.uniform(-3.0, 3.0, size=k)
        sig2 = rng.uniform(0.5, 3.0, size=k)
        w = rng.dirichlet(np.ones(k))
        dens = np.zeros_like(xs)
        for wi, mu, s2 in zip(w, mus, sig2):
            dens += wi * np.exp(-0.5 * (xs - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)
        p = from_log_values(xs[0], gs.step, np.log(np.maximum(dens, 1e-300)))
        rep = quantify(p, DistillConfig(layers=6))
        worst_mv = min(worst_mv, rep.min_variance)
        if rep.min_variance < 0.5 - 1e-3:
            false_positives += 1
    ok = false_positives == 0 and worst_mv >= 0.5 - 1e-3
    report(
        "A10",
        ok,
        f"100 random Gaussian mixtures (component var >= 0.5), 6 layers: "
        f"worst min_var {worst_mv:.6f}, false positives {false_positives}",
    )
    assert false_positives == 0
    assert worst_mv >= 0.5 - 1e-3


def test_a11_relative_concavity_is_preserved():
    catalog = [
        ("ground", StateSpec(kind="fock", n=0)),
        ("fock 1", StateSpec(kind="fock", n=1)),
        ("fock 4", StateSpec(kind="fock", n=4)),
        ("mixture", StateSpec(kind="mixture", populations=(0.2, 0.5, 0.3))),
        ("fock 1 thermal", StateSpec(kind="fock", n=1, thermal_nbar=0.2)),
        ("cat 2", StateSpec(kind="cat", alpha=2.0)),
        ("gkp sqrt(pi)", StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=SQRT_PI)),
        ("cubic 1", StateSpec(kind="cubic", gamma=1.0)),
    ]
    worst = 0.0
    worst_label = ""
    for label, spec in catalog:
        # curvature ratios converge slowly near narrow peaks; 32768 nodes keep
        # the stencil error itself below the 0.1% budget
        fine = GridSpec(default_grid(spec).extent, 32768)
        p = realize(spec, fine)
        a = displace_to_origin(p)[1].a
        rel_p = curvature_at(p, a) / float(np.exp(log_interp(p, np.array([a]))[0]))
        for n_layers in range(1, 7):
            scale = math.sqrt(2.0**n_layers)
            q = universal_distill(p, n_layers)
            qa = float(np.exp(log_interp(q, np.array([scale * a]))[0]))
            err = abs(curvature_at(q, scale * a) / qa - rel_p) / abs(rel_p)
            if err > worst:
                worst, worst_label = err, f"{label}, {n_layers} layers"
    ok = worst <= 1e-3
    report(
        "A11",
        ok,
        f"relative concavity at the scaled maximum, 8 states x 6 layer counts: "
        f"worst rel err {worst:.1e} ({worst_label})",
    )
    assert worst <= 1e-3


@pytest.mark.slow
def test_a12_monte_carlo_matches_deterministic_pipeline():
    # acceptance at two layers sits near 2.8e-4 (Fock 1) and 1.5e-4 (Fock 4),
    # so these batch counts keep the surviving population above 5e4
    t0 = time.perf_counter()
    stats = {}
    for n, batches in ((1, 800), (4, 1600)):
        p = realize(StateSpec(kind="fock", n=n))
        run = simulate_protocol(p, 2, eps=0.02, batches=batches, seed=7, batch_size=1 << 20)
        ks = ks_distance(run.samples_out, universal_distill(p, 2))
        stats[n] = (run.accepted, ks)
    fock1 = realize(StateSpec(kind="fock", n=1))
    rates = [
        simulate_protocol(fock1, layers, eps=0.02, seed=7).acceptance_rate
        for layers in (1, 2, 3)
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        all(acc >= 50_000 and ks <= 0.02 for acc, ks in stats.values())
        and rates[0] > rates[1] > rates[2]
    )
    report(
        "A12",
        ok,
        f"two-layer protocol, eps=0.02, seed 7: Fock 1 {stats[1][0]} accepted KS {stats[1][1]:.4f}, "
        f"Fock 4 {stats[4][0]} accepted KS {stats[4][1]:.4f}; acceptance rate "
        f"{rates[0]:.2e} > {rates[1]:.2e} > {rates[2]:.2e} over 1..3 layers ({elapsed:.0f} s)",
    )
    for n, (acc, ks) in stats.items():
        assert acc >= 50_000, (n, acc)
        assert ks <= 0.02, (n, ks)
    assert rates[0] > rates[1] > rates[2]


def test_a13_phonon_populations_round_trip():
    worst_tv = 0.0
    worst_dom = 0.0
    for n in (1, 5, 10):
        model = RabiModel(omega01=2 * math.pi * 0.05, n_max=n)
        pops = np.zeros(n + 1)
        pops[n] = 1.0
        times = np.linspace(0.0, 60.0, max(240, 12 * (n + 1)))
        trace = rabi_signal(pops, model, times)
        fit = fit_populations(times, trace, model)
        worst_tv = max(worst_tv, 0.5 * float(np.sum(np.abs(fit.distribution.populations - pops))))
        noisy = trace + np.random.default_rng(7 + n).normal(0.0, 0.01, trace.size)
        fitn = fit_populations(times, np.clip(noisy, 0.0, 1.0), model)
        worst_dom = max(worst_dom, abs(fitn.distribution.populations[n] - 1.0))
    ok = worst_tv <= 1e-3 and worst_dom <= 0.03
    report(
        "A13",
        ok,
        f"Rabi traces for n in {{1, 5, 10}}: noise-free TV <= {worst_tv:.1e}, "
        f"noisy (sigma 0.01) dominant-population err <= {worst_dom:.4f}",
    )
    assert worst_tv <= 1e-3
    assert worst_dom <= 0.03
