#!/usr/bin/env python3
"""Benchmark of the subplanck CLI, run from the root of a source checkout.

    python3 bench/run.py --workload quantify-mix --seed 1 --seconds 25 --trace 0

One client calls ``subplanck.cli.main([...])`` in this process, each call
after the previous one returns (a closed loop), with BLAS limited to one
thread.  Operations come in rounds (a fixed list built from ``--seed`` by
``workloads.py``); whole rounds repeat until ``--seconds`` have passed.
Every output is checked by ``checks.py`` against references computed apart
from the program.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``; the per-layer metrics of a traced run with ``--trace 1``).
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# one compute thread for BLAS and FFT, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("quantify-mix", "thermal-depth", "oracle-protocol")
SETUP_REPEATS = 3
CHILD_TIMEOUT = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def prepare(workload: str, seed: int, work: str) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"),
         "--workload", workload, "--seed", str(seed), "--work", work],
        env=child_env(), check=True, timeout=CHILD_TIMEOUT,
    )
    with open(os.path.join(work, "ops.json")) as fh:
        return json.load(fh)


_SETUP_CODE = """
import time
t0 = time.perf_counter()
import contextlib, io, sys
import subplanck.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = subplanck.cli.main(sys.argv[1:])
print(time.perf_counter() - t0, rc)
"""


def measure_setup(argv: list[str]) -> float:
    """Median over fresh interpreters of ``import subplanck.cli`` plus a first call."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, *argv],
            env=child_env(), check=True, timeout=CHILD_TIMEOUT,
            capture_output=True, text=True,
        ).stdout.split()
        if out[1] != "0":
            raise RuntimeError(f"set-up call {argv} exited with {out[1]}")
        if i:  # the first interpreter also writes the bytecode cache
            times.append(float(out[0]))
    return statistics.median(times)


class Loop:
    """Runs operations through the CLI and checks each output."""

    def __init__(self, cli, checks, plan: dict) -> None:
        self.cli = cli
        self.checks = checks
        self.ops = plan["ops"]
        self.ctx = checks.Context()
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.reported: set[str] = set()
        self.warnings = 0
        self.recorder = None
        self.op_log: list[tuple[str, float, float]] = []
        self.probe: dict | None = None
        self.probe_rates: list[float] = []

    def call(self, argv: list[str], op_id: str) -> tuple[int | None, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        if self.recorder is not None:
            self.recorder.op = op_id
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except Exception:  # the op failed; keep running and report it
                rc = None
                err.write(traceback.format_exc())
            end = time.perf_counter()
        if self.recorder is not None:
            self.op_log.append((op_id, start, end))
        return rc, out.getvalue(), err.getvalue(), end - start

    def verdict(self, op: dict, rc, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            last = stderr.strip().splitlines()
            return f"exit status {rc}: {last[-1] if last else ''}"
        try:
            return self.checks.CHECKS[op["kind"]](op, stdout, self.ctx)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return f"output not readable: {type(exc).__name__}: {exc}"

    def run_op(self, op: dict) -> None:
        rc, stdout, stderr, elapsed = self.call(op["argv"], op["id"])
        self.times.append(elapsed)
        self.attempted += 1
        self.warnings += stderr.count("exceeds 1: achieved variance beats the limit")
        reason = self.verdict(op, rc, stdout, stderr)
        if reason is None:
            return
        self.failed += 1
        if "known_fault" not in op:
            self.unexpected.append(f"{op['id']}: {reason}")
        if op["id"] not in self.reported:
            self.reported.add(op["id"])
            tag = "known fault" if "known_fault" in op else "FAILED"
            print(f"[{tag}] {op['id']}: {reason}", file=sys.stderr)

    def run_probe(self) -> None:
        """The fixed oracle call that follows each round on non-oracle workloads.

        It is checked like any operation but counted in none of the loop's
        figures; only its sample rate is kept.
        """
        probe = self.probe
        rc, stdout, stderr, elapsed = self.call(probe["argv"], probe["id"])
        reason = self.verdict(probe, rc, stdout, stderr)
        if reason:
            self.unexpected.append(f"{probe['id']}: {reason}")
            print(f"[FAILED] {probe['id']}: {reason}", file=sys.stderr)
        c = probe["check"]
        self.probe_rates.append(c["batches"] * c["batch_size"] / elapsed)

    def run_round(self) -> None:
        for op in self.ops:
            self.run_op(op)
        if self.probe is not None:
            self.run_probe()
        bad = self.checks.check_round(self.ops, self.ctx)
        if bad:
            self.unexpected.append(f"round: {bad}")

    def run_for(self, seconds: float) -> int:
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            self.run_round()
            rounds += 1
        return rounds

    def warm_up(self) -> None:
        """One call of each kind of operation, untimed, so lazy set-up is done."""
        seen = set()
        for op in self.ops:
            if op["kind"] not in seen:
                seen.add(op["kind"])
                self.call(op["argv"], op["id"])


def end_to_end(loop: Loop, setup_s: float) -> dict:
    busy = sum(loop.times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.attempted / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(loop.times), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(loop.times, n=10, method="inclusive")[8], "ms"),
    }
    if loop.probe_rates:
        rate = statistics.median(loop.probe_rates)
    else:  # every operation is an oracle run
        rounds = loop.attempted // len(loop.ops)
        per_round = sum(op["check"]["batches"] * op["check"]["batch_size"] for op in loop.ops)
        rate = rounds * per_round / busy
    metrics["oracle_samples_per_s"] = (rate, "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(loop: Loop, rec, plan: dict, untraced_ops_per_s: float) -> dict:
    summary = rec.summary()
    n_ops = len(loop.op_log)
    busy = sum(end - start for _, start, end in loop.op_log)

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})

    def ms(name, kind="inclusive_s"):
        return 1e3 * row(name)[kind] / n_ops

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    c = rec.counts
    depth_solves = sum(row(n)["calls"] for n in (
        "depth.subplanck_depth", "depth.fano_depth", "depth.wigner_negativity_depth"))
    witness_evals = (rec.children_of("depth.subplanck_depth", "states.realize")
                     + rec.children_of("depth.fano_depth", "depth.thermal_fock_number_distribution")
                     + row("depth.thermal_fock_wigner_origin")["calls"])
    stats = plan["stats"]
    traced_ops_per_s = n_ops / busy
    m = {
        "cli.main_self_ms": (ms("cli.main", "self_s"), "ms"),
        "cli.load_config_ms": (ms("cli.load_config"), "ms"),
        "cli.canonical_json_ms": (ms("cli.canonical_json"), "ms"),
        "states.realize_self_ms": (ms("states.realize", "self_s"), "ms"),
        "states.realize_calls": (per(row("states.realize")["calls"], n_ops), "count"),
        "density.convolve_gaussian_ms": (ms("density.convolve_gaussian"), "ms"),
        "density.global_maxima_ms": (ms("density.global_maxima"), "ms"),
        "density.maxima_per_call": (per(c["maxima"], row("density.global_maxima")["calls"]), "count"),
        "density.curvature_at_ms": (ms("density.curvature_at"), "ms"),
        "density.variance_ms": (ms("density.variance"), "ms"),
        "density.pow_scale_ms": (ms("density.pow_scale"), "ms"),
        "density.peak_nodes_min": (0 if rec.peak_nodes_min == float("inf") else rec.peak_nodes_min, "count"),
        "density.read_density_csv_ms": (ms("density.read_density_csv"), "ms"),
        "distill.quantify_self_ms": (ms("distill.quantify", "self_s"), "ms"),
        "distill.optimize_filter_self_ms": (ms("distill.optimize_filter", "self_s"), "ms"),
        "distill.filter_evals_per_quantify": (per(row("distill.filter_with_ground_state")["calls"],
                                                  row("distill.quantify")["calls"]), "count"),
        "distill.filter_with_ground_state_ms": (ms("distill.filter_with_ground_state"), "ms"),
        "distill.asymptotic_variance_self_ms": (ms("distill.asymptotic_variance", "self_s"), "ms"),
        "distill.universal_distill_ms": (ms("distill.universal_distill"), "ms"),
        "distill.efficiency_warnings": (per(loop.warnings, n_ops), "count"),
        "depth.subplanck_depth_self_ms": (ms("depth.subplanck_depth", "self_s"), "ms"),
        "depth.witness_evals": (per(witness_evals, depth_solves), "count"),
        "depth.thermal_fock_number_distribution_ms": (ms("depth.thermal_fock_number_distribution"), "ms"),
        "depth.fano_depth_self_ms": (ms("depth.fano_depth", "self_s"), "ms"),
        "depth.wigner_negativity_depth_ms": (ms("depth.wigner_negativity_depth"), "ms"),
        "oracle.simulate_protocol_ms": (ms("oracle.simulate_protocol"), "ms"),
        "oracle.simulate_protocol_ns_per_sample": (
            per(1e9 * row("oracle.simulate_protocol")["inclusive_s"], c["samples_drawn"]), "ns"),
        "oracle.sample_density_ns_per_sample": (
            per(stats["sample_density_ns"], stats["sample_density_samples"]), "ns"),
        "oracle.ks_distance_ms": (ms("oracle.ks_distance"), "ms"),
        "oracle.samples_drawn": (per(c["samples_drawn"], n_ops), "count"),
        "oracle.accepted": (per(c["accepted"], n_ops), "count"),
        "oracle.acceptance_ratio": (per(c["accepted"], c["attempts"]), "ratio"),
        "phonon.fit_populations_ms": (ms("phonon.fit_populations"), "ms"),
        "phonon.read_rabi_csv_ms": (ms("phonon.read_rabi_csv"), "ms"),
        "trace.self_time_share": (per(sum(r["self_s"] for r in summary.values()), busy), "ratio"),
        "trace.overhead_pct": (100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the subplanck CLI.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "subplanck", "cli.py")):
        print(f"no subplanck source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import subplanck.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"subplanck imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checks

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = prepare(args.workload, args.seed, work)
        loop = Loop(cli, checks, plan)
        if args.trace:
            # untraced and traced halves of the same run; their throughput
            # ratio is the tracing overhead
            loop.warm_up()
            loop.run_for(args.seconds / 2)
            untraced = loop.attempted / sum(loop.times)
            from spans import Recorder

            rec = Recorder()
            loop.recorder = rec
            loop.warnings = 0
            rec.install()
            try:
                loop.run_for(args.seconds / 2)
            finally:
                rec.uninstall()
            metrics = per_layer(loop, rec, plan, untraced)
            path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
            rec.write(path, loop.op_log)
            print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        else:
            setup_s = measure_setup(plan["setup_argv"])
            loop.probe = plan.get("probe")
            loop.warm_up()
            loop.run_for(args.seconds)
            metrics = end_to_end(loop, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in loop.unexpected[:20]:
        print(f"unexpected: {line}", file=sys.stderr)
    result = {
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
