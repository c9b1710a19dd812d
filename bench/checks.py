"""Checks of every CLI output against the independent references.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  Expected values come from ``workloads.py`` (computed by
:mod:`reference` before the run); the only reference computed here is the
pipeline on populations that a ``fit-phonons`` operation reported, which the
paired ``quantify`` of the same trace must reproduce.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

GROUND_VARIANCE = 0.5
_SQUEEZE_MARGIN = 1e-6

# min_variance must match the full-line reference to this relative error.
# On the inputs the workloads draw, the 4096-node grid keeps it within
# 1.3e-4; the under-resolved 10- and 12-layer Fock 1 and Fock 4 runs are off
# by 3.7e-4 and more.
MIN_VARIANCE_RTOL = 2e-4
# The many-copy limit comes from a quartic fit of the grid density.
ASYMPTOTIC_RTOL = 1e-3
# The recentred maximum must be the reference's, to this absolute error.
MAXIMUM_ATOL = 1e-2
# Blue-sideband fits of a noisy trace recover the dominant population to this
# (the A13 acceptance bound).
RABI_POPULATION_ATOL = 0.03
# Asymptotic depth: the reference root lies in the reported bracket, widened by
# this much for the grid error of the program's witness.
DEPTH_SLACK = 1e-4
# squeezing_db and min_variance are printed with 12 significant digits each
_DB_ATOL = 1e-9
# The program's KS figure is taken against its 4096-node grid CDF, the
# reference's against the analytic one; the two CDFs differ by less than this.
_KS_GRID_ATOL = 2e-4
# Interpolation error of the windowed reference CDF.
_KS_REFERENCE_ATOL = 1e-3


class Context:
    """What checks of one run share: fitted populations, byte copies, caches."""

    def __init__(self) -> None:
        self.fits: dict[str, np.ndarray] = {}
        self.references: dict[tuple, ref.Distilled] = {}
        self.cdfs: dict[str, ref.Cdf] = {}
        self.oracle: dict[str, dict] = {}

    def cdf(self, path: str) -> ref.Cdf:
        if path not in self.cdfs:
            xs, cdf = np.load(path)
            self.cdfs[path] = ref.Cdf(xs, cdf)
        return self.cdfs[path]


def _rel(got: float, want: float) -> float:
    return abs(got / want - 1.0)


def _report_fields(rep: dict, layers: int, mv: float) -> str | None:
    db = 10.0 * math.log10(mv / GROUND_VARIANCE)
    if abs(rep["squeezing_db"] - db) > _DB_ATOL:
        return f"squeezing_db {rep['squeezing_db']!r} is not 10 log10(min_var/0.5) = {db!r}"
    if rep.get("T_opt") is not None and not 0.0 < rep["T_opt"] <= 1.0:
        return f"T_opt {rep['T_opt']!r} outside (0, 1]"
    if rep.get("layers", layers) != layers or rep.get("copies", 1 << layers) != 1 << layers:
        return f"layers/copies {rep.get('layers')}/{rep.get('copies')} for {layers} layers"
    if "is_squeezed" in rep and rep["is_squeezed"] != (mv < GROUND_VARIANCE - _SQUEEZE_MARGIN):
        return f"is_squeezed {rep['is_squeezed']} contradicts min_var {mv!r}"
    return None


def _distill_values(rep: dict, c: dict, want: ref.Distilled | None = None) -> str | None:
    mv = rep["min_variance"]
    want_mv = want.min_variance if want else c["min_variance"]
    if _rel(mv, want_mv) > c["min_variance_rtol"]:
        return (f"min_variance {mv!r} vs reference {want_mv!r} "
                f"(rel err {_rel(mv, want_mv):.2e} > {c['min_variance_rtol']:.1e})")
    bad = _report_fields(rep, c["layers"], mv)
    if bad:
        return bad
    threshold = GROUND_VARIANCE - _SQUEEZE_MARGIN
    if abs(want_mv - threshold) > c["min_variance_rtol"] * want_mv and (
        rep["is_squeezed"] != (want_mv < threshold)
    ):
        return f"is_squeezed {rep['is_squeezed']} but the reference min_variance is {want_mv!r}"
    want_asym = want.asymptotic_variance if want else c.get("asymptotic_variance")
    if want_asym is not None:
        got = rep["asymptotic_variance"]
        if _rel(got, want_asym) > ASYMPTOTIC_RTOL:
            return f"asymptotic_variance {got!r} vs reference {want_asym!r}"
    want_a = want.maximum_a if want else c.get("maximum_a")
    if want_a is not None and abs(rep["maximum_a"] - want_a) > MAXIMUM_ATOL:
        return f"recentred maximum {rep['maximum_a']!r} vs reference {want_a!r}"
    return None


def histogram_rtol(samples: int, layers: int) -> float:
    """Relative tolerance on min_variance of a histogram of ``samples`` draws.

    Sampling noise in min_variance has a relative standard deviation of about
    3.5 sqrt(2**layers / samples) at one and two layers; allow eight of those.
    """
    return 28.0 * math.sqrt((1 << layers) / samples)


def check_distill(op: dict, stdout: str, ctx: Context) -> str | None:
    return _distill_values(json.loads(stdout), op["check"])


def check_rabi_fit(op: dict, stdout: str, ctx: Context) -> str | None:
    c = op["check"]
    pops = np.asarray(json.loads(stdout)["populations"], dtype=float)
    if pops.size != c["n_max"] + 1:
        return f"{pops.size} populations for n_max {c['n_max']}"
    if np.any(pops < 0.0) or abs(pops.sum() - 1.0) > 1e-9:
        return f"populations are not a distribution (sum {pops.sum()!r})"
    err = abs(pops[c["level"]] - 1.0)
    if err > c["atol"]:
        return f"population of level {c['level']} off by {err:.4f} > {c['atol']}"
    ctx.fits[op["id"]] = pops / pops.sum()
    return None


def check_rabi_quantify(op: dict, stdout: str, ctx: Context) -> str | None:
    c = op["check"]
    pops = ctx.fits.get(c["fit"])
    if pops is None:
        return f"no checked fit {c['fit']} to compare with"
    key = (tuple(pops), c["layers"])
    if key not in ctx.references:
        ctx.references[key] = ref.distill(ref.fock_mixture(pops), c["layers"])
    return _distill_values(json.loads(stdout), c, ctx.references[key])


def check_depth(op: dict, stdout: str, ctx: Context) -> str | None:
    c = op["check"]
    rep = json.loads(stdout)
    lo, hi, star = rep["bracket_lo"], rep["bracket_hi"], rep["nbar_star"]
    if rep["witness"] != c["witness"]:
        return f"witness {rep['witness']!r}, expected {c['witness']!r}"
    if not lo <= star <= hi:
        return f"nbar_star {star!r} outside its bracket [{lo!r}, {hi!r}]"
    if hi - lo > c["max_width"] * (1.0 + 1e-9):
        return f"bracket width {hi - lo:.3e} above the solver tolerance {c['max_width']:.0e}"
    want = c["nbar_star"]
    if not lo - c["slack"] <= want <= hi + c["slack"]:
        return f"reference depth {want!r} outside bracket [{lo!r}, {hi!r}]"
    return None


def check_sweep(op: dict, stdout: str, ctx: Context) -> str | None:
    c = op["check"]
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != len(c["rows"]):
        return f"{len(rows)} sweep rows, expected {len(c['rows'])}"
    parameter = next(iter(rows[0]))
    for row, want in zip(rows, c["rows"]):
        if abs(float(row[parameter]) - want["value"]) > 1e-12:
            return f"row order: {row[parameter]} where {want['value']} belongs"
        if row["error"]:
            return f"row {row[parameter]} failed: {row['error']}"
        mv = float(row["min_variance"])
        if _rel(mv, want["min_variance"]) > c["min_variance_rtol"]:
            return f"row {row[parameter]}: min_variance {mv!r} vs reference {want['min_variance']!r}"
        bad = _report_fields({"squeezing_db": float(row["squeezing_db"])}, 0, mv)
        if bad:
            return f"row {row[parameter]}: {bad}"
        asym = float(row["asymptotic_variance"])
        if _rel(asym, want["asymptotic_variance"]) > ASYMPTOTIC_RTOL:
            return f"row {row[parameter]}: asymptotic_variance {asym!r} vs {want['asymptotic_variance']!r}"
        if c["with_depth"] and abs(float(row["nbar_star"]) - want["nbar_star"]) > c["depth_atol"]:
            return f"row {row[parameter]}: nbar_star {row['nbar_star']} vs reference {want['nbar_star']!r}"
    return None


def check_oracle(op: dict, stdout: str, ctx: Context) -> str | None:
    c = op["check"]
    rep = json.loads(stdout)
    want_attempted = c["batches"] * (c["batch_size"] >> c["layers"])
    if rep["attempted"] != want_attempted:
        return f"attempted {rep['attempted']} for {c['batches']} batches, expected {want_attempted}"
    if rep["window_eps"] != c["eps"] or rep["seed"] != c["seed"]:
        return f"window/seed echo {rep['window_eps']!r}/{rep['seed']!r}"
    with open(c["samples_csv"], "rb") as fh:
        raw = fh.read()
    samples = np.array(raw.split(), dtype=float)
    n = samples.size
    if n != rep["accepted"]:
        return f"{n} samples written, {rep['accepted']} reported accepted"
    if abs(rep["acceptance_rate"] - n / want_attempted) > 1e-12 * max(1.0, n / want_attempted):
        return f"acceptance_rate {rep['acceptance_rate']!r} is not {n}/{want_attempted}"
    ks = ref.ks_statistic(samples, ctx.cdf(c["windowed_cdf"]))
    bound = ref.ks_bound(n) + _KS_REFERENCE_ATOL
    if ks > bound:
        return f"KS {ks:.4f} against the windowed-protocol reference exceeds {bound:.4f} (n={n})"
    ks_exact = ref.ks_statistic(samples, ctx.cdf(c["exact_cdf"]))
    if abs(rep["ks_vs_deterministic"] - ks_exact) > _KS_GRID_ATOL:
        return (f"ks_vs_deterministic {rep['ks_vs_deterministic']!r} vs "
                f"{ks_exact!r} against the exact-conditioning reference")
    ctx.oracle[op["id"]] = {"bytes": stdout.encode() + raw, "state": c["state"],
                            "layers": c["layers"], "rate": n / want_attempted}
    return None


CHECKS = {
    "distill": check_distill,
    "rabi_fit": check_rabi_fit,
    "rabi_quantify": check_rabi_quantify,
    "depth": check_depth,
    "sweep": check_sweep,
    "oracle": check_oracle,
}


def check_round(ops: list[dict], ctx: Context) -> str | None:
    """Properties across one round's operations (oracle workload only)."""
    by_state: dict[str, dict[int, float]] = {}
    for op in ops:
        seen = ctx.oracle.get(op["id"])
        if seen is None or "twin" in op:
            continue
        by_state.setdefault(seen["state"], {})[seen["layers"]] = seen["rate"]
    for state, rates in by_state.items():
        ordered = [rates[k] for k in sorted(rates)]
        if any(a <= b for a, b in zip(ordered, ordered[1:])):
            return f"{state}: acceptance does not fall with layers: {ordered}"
    for op in ops:
        if "twin" in op and op["id"] in ctx.oracle and op["twin"] in ctx.oracle:
            if ctx.oracle[op["id"]]["bytes"] != ctx.oracle[op["twin"]]["bytes"]:
                return f"{op['id']}: same seed, different output bytes than {op['twin']}"
    return None
