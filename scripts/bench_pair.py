#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit, in alternating pairs.

    python3 scripts/bench_pair.py --workload oracle-protocol --pairs 10 --first-seed 801

The parent (``--parent``, default ``HEAD``; once the change is committed,
pass ``HEAD~1``) is extracted with ``git archive`` into a temporary
directory, so no worktree is registered; the change is the working tree.
Pair i runs ``python3 bench/run.py --workload W --seed S+i`` once in each
checkout, each against its own ``bench/``, and the side that goes first
alternates from pair to pair.  The result goes to ``BENCH_<workload>.json`` in the
repository root (``BENCH_<workload>_trace.json`` with ``--trace``), rewritten
after every pair: every run, each side's median and quartiles per metric,
how many pairs the change won per metric, each end-to-end metric's verdict
(``gain``, ``worse``, ``unresolved`` or ``within_bound``, see ``verdict``),
each side's failed and attempted operations and the seeds of its runs that
reported ``correct: false``, whether the change's failed share, averaged over
pairs, is higher, and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT = 900


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, dest: str) -> None:
    archive = os.path.join(dest, "parent.tar")
    subprocess.run(["git", "archive", "--output", archive, rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "parent"), filter="data")
    os.remove(archive)


def bench_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], wins: int, better: str, bound: float) -> str:
    """One end-to-end metric's verdict over paired runs.

    ``gain``: the change wins at least 9 of every 10 pairs (ties count for
    neither) and its median beats the parent's by more than the parent's
    interquartile range.  ``unresolved``: the parent's own interquartile
    range exceeds ``bound`` times its median, unless every run of the change
    beats every run of the parent.  ``worse``: the change's median is worse
    than the parent's by more than ``bound`` times the parent's median.
    Otherwise ``within_bound``.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    margin = sign * (c["median"] - p["median"])
    if 10 * wins >= 9 * len(parent) and margin > iqr:
        return "gain"
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    if iqr > bound * abs(p["median"]) and not all_better:
        return "unresolved"
    if -margin > bound * abs(p["median"]):
        return "worse"
    return "within_bound"


def summarize(runs: list[dict], declared: dict[str, dict]) -> dict:
    """Per metric: each side's median and quartiles; for a metric whose
    ``declared`` entry (from BENCHMARK.json) names its better direction, the
    pairs the change won; for one that also has a bound, the verdict."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    pairs = list(zip(sides["parent"], sides["change"]))
    metrics = sorted(runs[0]["metrics"])
    summary = {}
    for name in metrics:
        values = {side: [r["metrics"][name] for r in rs] for side, rs in sides.items()}
        row = {side: spread(vs) for side, vs in values.items()}
        direction = declared.get(name, {}).get("better")
        if direction is not None:
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(
                sign * (c["metrics"][name] - p["metrics"][name]) > 0.0 for p, c in pairs
            )
            row["better"] = direction
            row["change_wins"] = wins
            bound = declared[name].get("bound")
            if bound is not None:
                row["verdict"] = verdict(
                    values["parent"], values["change"], wins, direction, bound
                )
        summary[name] = row
    # a seed incorrect on both sides points at a defect in the reference, one
    # incorrect on the change's side only at a regression
    failures = {
        side: {"failed": sum(r["failed"] for r in rs), "attempted": sum(r["attempted"] for r in rs),
               "all_correct": all(r["correct"] for r in rs),
               "incorrect_seeds": sorted(r["seed"] for r in rs if not r["correct"])}
        for side, rs in sides.items()
    }
    # the mean over pairs of each run's own share (both sides run every pair,
    # so the sums compare as the means): pooled counts would charge a faster
    # side for the extra rounds it runs of a seed that fails on both sides;
    # exact fractions, so equal shares stay equal
    share = {side: sum(Fraction(r["failed"], r["attempted"] or 1) for r in rs)
             for side, rs in sides.items()}
    failures["failed_share_higher"] = share["change"] > share["parent"]
    return {"metrics": summary, "operations": failures}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead of end-to-end")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    suffix = "_trace" if args.trace else ""
    out_path = os.path.join(ROOT, f"BENCH_{args.workload}{suffix}.json")
    record = {
        "workload": args.workload,
        "seconds": seconds,
        "trace": args.trace,
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain") else ""),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        extract(args.parent, tmp)
        checkouts = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                t0 = time.time()
                run = bench_once(checkouts[side], args.workload, seed, seconds, int(args.trace))
                run.update(side=side, seed=seed, pair=i, first=position == 0,
                           started=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t0)))
                record["runs"].append(run)
                print(f"pair {i} seed {seed} {side}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']}", file=sys.stderr)
            record["pairs"] = i + 1
            record["summary"] = summarize(record["runs"], declared)
            with open(out_path, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    for name, row in record["summary"]["metrics"].items():
        if "verdict" in row:
            print(f"{name}: {row['verdict']} (change won {row['change_wins']} of "
                  f"{record['pairs']})", file=sys.stderr)
    ops = record["summary"]["operations"]
    print(f"failed_share_higher: {str(ops['failed_share_higher']).lower()} (parent "
          f"{ops['parent']['failed']}/{ops['parent']['attempted']}, change "
          f"{ops['change']['failed']}/{ops['change']['attempted']}); incorrect seeds: parent "
          f"{ops['parent']['incorrect_seeds']}, change {ops['change']['incorrect_seeds']}",
          file=sys.stderr)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
