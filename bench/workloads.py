"""Inputs and expected results for the benchmark's three workloads.

Run as a child process by ``run.py`` before anything is timed:

    python3 bench/workloads.py --workload NAME --seed N --work DIR

It draws every input from ``--seed`` (same seed, same inputs), writes the
CLI configs and input files under DIR, computes each operation's expected
result with :mod:`reference`, and writes the operation list to
``DIR/ops.json``.  The only program code it calls is
``subplanck.oracle.sample_density`` and ``subplanck.states.realize``, to
draw the samples behind the histogram inputs, as an experiment samples the
state it prepared.

A round is a fixed list of operations; ``run.py`` repeats whole rounds.  The
seed only shuffles fixed multisets of discrete choices (Fock numbers, layer
counts, grid sizes, bin counts) and draws the continuous parameters, so every
seed asks for about the same work per round.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

import reference as ref
from checks import (
    DEPTH_SLACK,
    MIN_VARIANCE_RTOL,
    RABI_POPULATION_ATOL,
    histogram_rtol,
)

WORKLOADS = ("quantify-mix", "thermal-depth", "oracle-protocol")

HISTOGRAM_SAMPLES = 1_000_000
RABI_OMEGA01 = 2.0 * math.pi * 0.05
RABI_NOISE = 0.01
SQRT_PI = math.sqrt(math.pi)


class Inputs:
    """Collects one workload's operations and writes their files."""

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.ops: list[dict] = []
        self.stats = {"sample_density_ns": 0.0, "sample_density_samples": 0}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def config(self, op_id: str, cfg: dict) -> str:
        p = self.path(f"{op_id}.json")
        with open(p, "w") as fh:
            json.dump(cfg, fh)
        return p

    def add(self, op_id: str, command: str, cfg: dict, check: dict,
            flags: tuple[str, ...] = (), known_fault: str | None = None) -> None:
        argv = [command, "--config", self.config(op_id, cfg), *flags]
        op = {"id": op_id, "kind": check["type"], "argv": argv, "check": check}
        if known_fault:
            op["known_fault"] = known_fault
        self.ops.append(op)

    def seed_int(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))


# --- state descriptions: (CLI state section, reference density) ---------------

def fock_state(n: int, nbar: float = 0.0):
    section = {"kind": "fock", "n": n}
    if nbar:
        section["nbar"] = nbar
    return section, ref.thermal_fock(n, nbar)


def mixture_state(pops, nbar: float = 0.0):
    section = {"kind": "mixture", "populations": [float(p) for p in pops]}
    if nbar:
        section["nbar"] = nbar
    return section, ref.thermal_fock_mixture(pops, nbar)


def random_mixture(rng, top: int) -> np.ndarray:
    """Populations on 0..top led by level ``top``, the rest Dirichlet-spread."""
    pops = np.zeros(top + 1)
    lead = rng.uniform(0.6, 0.9)
    pops[:top] = (1.0 - lead) * rng.dirichlet(np.ones(top))
    pops[top] = lead
    return pops / pops.sum()


def distill_check(dens, layers: int) -> dict:
    r = ref.distill(dens, layers)
    return {
        "type": "distill",
        "layers": layers,
        "min_variance": r.min_variance,
        "min_variance_rtol": MIN_VARIANCE_RTOL,
        "asymptotic_variance": r.asymptotic_variance,
        "maximum_a": r.maximum_a,
    }


# --- quantify-mix ----------------------------------------------------------------

def build_quantify_mix(b: Inputs) -> None:
    rng = b.rng
    # Fock 1..10 once each.  Layers 7-8 only where the default grid still
    # resolves the powered peak (n <= 4); everywhere else, and on the odd
    # grids, at most 6 layers.  Outside that domain the pow_scale fault shows.
    ns = rng.permutation(np.arange(1, 11))
    odd_grids = [4999, 5501, 6007]
    for i, n in enumerate(ns):
        n = int(n)
        grid = odd_grids[i] if i < len(odd_grids) else None
        top_layer = 8 if (n <= 4 and grid is None) else 6
        layers = int(rng.integers(1, top_layer + 1))
        section, dens = fock_state(n)
        flags = ("--grid-nodes", str(grid)) if grid else ()
        b.add(f"fock{n}", "quantify", {"state": section, "pipeline": {"layers": layers}},
              distill_check(dens, layers), flags)
    for i, top in enumerate(rng.permutation([2, 3, 5])):
        top = int(top)
        pops = random_mixture(rng, top)
        layers = int(rng.integers(1, 7))
        section, dens = mixture_state(pops)
        b.add(f"mixture{i}", "quantify", {"state": section, "pipeline": {"layers": layers}},
              distill_check(dens, layers))
    for i in range(3):
        alpha = float(rng.uniform(1.5, 2.5))
        layers = int(rng.integers(1, 9))
        b.add(f"cat{i}", "quantify",
              {"state": {"kind": "cat", "alpha": alpha}, "pipeline": {"layers": layers}},
              distill_check(ref.cat(alpha), layers))
    for i, side in enumerate((2, 3)):
        delta = float(rng.uniform(0.25, 0.4))
        layers = int(rng.integers(1, 7))
        state = {"kind": "gkp", "delta": delta, "side_peaks": side, "spacing": SQRT_PI}
        b.add(f"gkp{i}", "quantify", {"state": state, "pipeline": {"layers": layers}},
              distill_check(ref.gkp(delta, side, SQRT_PI), layers))
    # the cubic's grid error drifts with gamma beyond 4 layers
    for i in range(2):
        gamma = float(rng.uniform(1.0, 1.09))
        layers = int(rng.integers(2, 5))
        pipeline = {"layers": layers, "nonuniversal_prelayers": 1, "prelayer_xbar": 5.0}
        b.add(f"cubic{i}", "quantify",
              {"state": {"kind": "cubic", "gamma": gamma}, "pipeline": pipeline},
              distill_check(ref.cubic_conditioned(gamma, 5.0), layers))
    # thermal minority: Fock states at nbar <= 0.2, all below their depth
    for i, n in enumerate(rng.permutation(np.arange(1, 7))[:4]):
        nbar = float(rng.uniform(0.02, 0.2))
        layers = int(rng.integers(1, 7))
        section, dens = fock_state(int(n), nbar)
        b.add(f"thermal{i}", "quantify", {"state": section, "pipeline": {"layers": layers}},
              distill_check(dens, layers))
    build_histograms(b)
    build_rabi(b)
    # the known fault: under-resolved deep pipelines (fixed inputs, every seed)
    for n in (1, 4):
        section, dens = fock_state(n)
        for layers in (10, 12):
            b.add(f"fock{n}-L{layers}", "quantify",
                  {"state": section, "pipeline": {"layers": layers}},
                  distill_check(dens, layers),
                  known_fault="pow_scale under-resolves the peak beyond 8 layers")
    b.setup_argv = ["quantify", "--config",
                    b.config("setup", {"state": {"kind": "fock", "n": 1},
                                       "pipeline": {"layers": 4}})]


def build_histograms(b: Inputs) -> None:
    """Density CSVs estimated from 10^6 draws of a catalog state."""
    from subplanck.oracle import sample_density
    from subplanck.states import StateSpec, default_grid, realize

    rng = b.rng
    kinds = rng.permutation(["fock1", "fock2", "fock3", "cat"])[:3]
    bins_all = rng.permutation([501, 601, 701])
    for i, (kind, bins) in enumerate(zip(kinds, bins_all)):
        if kind == "cat":
            alpha = float(rng.uniform(1.5, 2.5))
            spec = StateSpec(kind="cat", alpha=alpha)
            dens = ref.cat(alpha)
        else:
            n = int(kind[-1])
            spec = StateSpec(kind="fock", n=n)
            dens = ref.fock(n)
        layers = int(rng.integers(1, 3))
        extent = default_grid(spec).extent
        t0 = time.perf_counter()
        draws = sample_density(realize(spec), HISTOGRAM_SAMPLES, b.seed_int())
        b.stats["sample_density_ns"] += (time.perf_counter() - t0) * 1e9
        b.stats["sample_density_samples"] += HISTOGRAM_SAMPLES
        counts, edges = np.histogram(draws, bins=int(bins), range=(-extent, extent))
        width = edges[1] - edges[0]
        centres = 0.5 * (edges[1:] + edges[:-1])
        csv = b.path(f"histogram{i}.csv")
        with open(csv, "w") as fh:
            fh.write("x,density\n")
            for x, c in zip(centres, counts):
                fh.write(f"{x:.17g},{c / (HISTOGRAM_SAMPLES * width):.17g}\n")
        r = ref.distill(dens, layers)
        b.add(f"histogram{i}", "quantify",
              {"density_csv": csv, "pipeline": {"layers": layers}},
              {"type": "distill", "layers": layers, "min_variance": r.min_variance,
               "min_variance_rtol": histogram_rtol(HISTOGRAM_SAMPLES, layers),
               "asymptotic_variance": None, "maximum_a": None})


def rabi_trace(populations: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Blue-sideband excitation sum_n p_n sin^2(omega01 sqrt(n+1) t / 2), no decay."""
    ns = np.arange(populations.size)
    omega = RABI_OMEGA01 * np.sqrt(ns + 1.0)
    return np.sin(0.5 * omega[None, :] * times[:, None]) ** 2 @ populations


def build_rabi(b: Inputs) -> None:
    """Noisy traces of a number state; each is fitted, then quantified.

    The fit's cost grows with n_max, so the four traces always use the same
    n_max values; the seed picks their order, levels and noise.
    """
    rng = b.rng
    for i, n_max in enumerate(rng.permutation([2, 4, 7, 10])):
        n_max = int(n_max)
        level = int(rng.integers(1, n_max + 1))
        pops = np.zeros(n_max + 1)
        pops[level] = 1.0
        times = np.linspace(0.0, 60.0, max(240, 12 * (n_max + 1)))
        noisy = rabi_trace(pops, times) + rng.normal(0.0, RABI_NOISE, times.size)
        csv = b.path(f"rabi{i}.csv")
        with open(csv, "w") as fh:
            fh.write("t_seconds,p_excited\n")
            for t, p in zip(times, np.clip(noisy, 0.0, 1.0)):
                fh.write(f"{t:.17g},{p:.17g}\n")
        layers = int(rng.integers(1, 5))
        cfg = {
            "rabi_csv": csv,
            "rabi_model": {"omega01": RABI_OMEGA01, "n_max": n_max},
            "pipeline": {"layers": layers},
            "seed": b.seed_int(),
        }
        fit_id = f"rabi{i}-fit"
        b.add(fit_id, "fit-phonons", cfg,
              {"type": "rabi_fit", "n_max": n_max, "level": level,
               "atol": RABI_POPULATION_ATOL})
        b.add(f"rabi{i}-quantify", "quantify", cfg,
              {"type": "rabi_quantify", "layers": layers, "fit": fit_id,
               "min_variance_rtol": MIN_VARIANCE_RTOL})


# --- thermal-depth -------------------------------------------------------------

def build_thermal_depth(b: Inputs) -> None:
    rng = b.rng
    depth_cache: dict[tuple, float] = {}

    def depth_ref(pops) -> float:
        key = tuple(np.round(pops, 15))
        if key not in depth_cache:
            depth_cache[key] = ref.asymptotic_thermal_depth(pops)
        return depth_cache[key]

    def levels(n: int) -> np.ndarray:
        pops = np.zeros(n + 1)
        pops[n] = 1.0
        return pops

    # The asymptotic witness on every Fock state of the range, so each round
    # does the same work whatever the seed, plus four seeded mixtures.  Fano
    # and Wigner solves are cheap (about 60 ms and 2 ms); with two and one of
    # them per round the median operation falls inside the cluster of
    # asymptotic solves, not at its edge.
    for n in range(1, 11):
        b.add(f"depth-fock{n}", "depth", {"state": {"kind": "fock", "n": n}},
              {"type": "depth", "witness": "subplanck-asymptotic",
               "nbar_star": depth_ref(levels(n)), "slack": DEPTH_SLACK,
               "max_width": 1e-3},
              ("--asymptotic",))
    for i, top in enumerate((2, 3, 4, 6)):
        pops = random_mixture(rng, top)
        section, _ = mixture_state(pops)
        b.add(f"depth-mixture{i}", "depth", {"state": section},
              {"type": "depth", "witness": "subplanck-asymptotic",
               "nbar_star": depth_ref(pops), "slack": DEPTH_SLACK, "max_width": 1e-3},
              ("--asymptotic",))
    for n in rng.permutation(np.arange(1, 6))[:2]:
        n = int(n)
        b.add(f"fano-fock{n}", "depth", {"state": {"kind": "fock", "n": n}},
              {"type": "depth", "witness": "fano", "nbar_star": ref.fano_depth(n),
               "slack": 1e-9, "max_width": 1e-4},
              ("--witness", "fano"))
    n = int(rng.integers(1, 6))
    b.add(f"wigner-fock{n}", "depth", {"state": {"kind": "fock", "n": n}},
          {"type": "depth", "witness": "wigner-negativity",
           "nbar_star": ref.WIGNER_DEPTH, "slack": 1e-9, "max_width": 1e-6},
          ("--witness", "wigner"))
    # nbar sweep of one Fock state: the thermal quantify path, row by row
    n = int(rng.integers(1, 7))
    layers = int(rng.integers(2, 5))
    nbars = sorted(float(v) for v in np.round(rng.uniform(0.02, 0.2, 3), 6)) + [0.0]
    nbars.sort()
    rows = []
    for v in nbars:
        r = ref.distill(ref.thermal_fock(n, v), layers)
        rows.append({"value": v, "min_variance": r.min_variance,
                     "asymptotic_variance": r.asymptotic_variance})
    b.add("sweep-nbar", "sweep",
          {"state": {"kind": "fock", "n": n}, "pipeline": {"layers": layers},
           "sweep": {"parameter": "nbar", "values": nbars}},
          {"type": "sweep", "rows": rows, "with_depth": False,
           "min_variance_rtol": MIN_VARIANCE_RTOL})
    # Fock-number sweep with the asymptotic depth of every row
    ns = sorted(int(v) for v in rng.permutation(np.arange(1, 11))[:3])
    layers = int(rng.integers(2, 5))
    rows = []
    for n in ns:
        r = ref.distill(ref.fock(n), layers)
        rows.append({"value": float(n), "min_variance": r.min_variance,
                     "asymptotic_variance": r.asymptotic_variance,
                     "nbar_star": depth_ref(levels(n))})
    b.add("sweep-fock", "sweep",
          {"state": {"kind": "fock", "n": ns[0]}, "pipeline": {"layers": layers},
           "sweep": {"parameter": "fock_n", "values": ns, "with_depth": True}},
          {"type": "sweep", "rows": rows, "with_depth": True,
           "min_variance_rtol": MIN_VARIANCE_RTOL, "depth_atol": 5e-4 + DEPTH_SLACK})
    b.setup_argv = ["depth", "--asymptotic", "--config",
                    b.config("setup", {"state": {"kind": "fock", "n": 1}})]


# --- oracle-protocol -----------------------------------------------------------

# (layers, window eps, batches of 2^17): wide enough windows that hundreds of
# samples survive even for Fock 4 at three layers
ORACLE_PLAN = ((1, 0.02, 32), (2, 0.05, 48), (3, 0.1, 64))
ORACLE_BATCH = 1 << 17


def oracle_run(b: Inputs, name: str, n: int, layers: int, eps: float,
               batches: int, seed: int) -> tuple[dict, dict]:
    """Config and check of one ``oracle`` run on Fock n; saves its reference CDFs."""
    dens = ref.fock(n)
    windowed = ref.windowed_protocol_cdf(dens, layers, eps)
    exact = ref.conditioned_cdf(dens, layers)
    np.save(b.path(f"{name}-windowed.npy"), np.stack([windowed.xs, windowed.cdf]))
    np.save(b.path(f"{name}-exact.npy"), np.stack([exact.xs, exact.cdf]))
    check = {"type": "oracle", "state": f"fock{n}", "layers": layers, "eps": eps,
             "batches": batches, "batch_size": ORACLE_BATCH, "seed": seed,
             "samples_csv": b.path(f"{name}-samples.csv"),
             "windowed_cdf": b.path(f"{name}-windowed.npy"),
             "exact_cdf": b.path(f"{name}-exact.npy")}
    cfg = {"state": {"kind": "fock", "n": n}, "pipeline": {"layers": layers},
           "oracle": {"eps": eps, "batches": batches, "samples_csv": check["samples_csv"]}}
    return cfg, check


def build_oracle_protocol(b: Inputs) -> None:
    for n in (1, 4):
        for layers, eps, batches in ORACLE_PLAN:
            op_id = f"oracle-fock{n}-L{layers}"
            seed = b.seed_int()
            cfg, check = oracle_run(b, op_id, n, layers, eps, batches, seed)
            b.add(op_id, "oracle", cfg, check, ("--seed", str(seed)))
    # the same seed must give the same bytes: rerun the first operation
    first = b.ops[0]
    b.ops.append({**first, "id": first["id"] + "-again", "twin": first["id"]})
    b.setup_argv = ["oracle", "--config",
                    b.config("setup", {"state": {"kind": "fock", "n": 1},
                                       "pipeline": {"layers": 1},
                                       "oracle": {"eps": 0.02, "batches": 4}})]


def oracle_probe(b: Inputs) -> dict:
    """The fixed oracle run that follows each round on the non-oracle workloads."""
    cfg, check = oracle_run(b, "probe", 1, 1, 0.02, 8, 7)
    argv = ["oracle", "--config", b.config("probe", cfg), "--seed", "7"]
    return {"id": "oracle-probe", "kind": "oracle", "argv": argv, "check": check}


WORKLOAD_INPUTS = {
    "quantify-mix": build_quantify_mix,
    "thermal-depth": build_thermal_depth,
    "oracle-protocol": build_oracle_protocol,
}


def prepare(workload: str, seed: int, work: str) -> dict:
    b = Inputs(work, seed)
    WORKLOAD_INPUTS[workload](b)
    plan = {"workload": workload, "seed": seed, "ops": b.ops,
            "setup_argv": b.setup_argv, "stats": b.stats}
    if workload != "oracle-protocol":
        plan["probe"] = oracle_probe(b)
    return plan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    plan = prepare(args.workload, args.seed, args.work)
    with open(os.path.join(args.work, "ops.json"), "w") as fh:
        json.dump(plan, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
