"""scripts/bench_pair.py's summary on synthetic runs (no benchmark is run)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

DECLARED = {
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    "op_p50_ms": {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    "filter_ms": {"name": "filter_ms", "better": "lower"},
}


def runs_from(parent, change, metric="ops_per_s", failed=(4, 4), attempted=(39, 39)):
    """Alternating runs, pair i holding parent[i] and change[i]; each parent
    run counts failed[0] of attempted[0] operations, each change run failed[1]
    of attempted[1]."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, value, f, a in (("parent", p, failed[0], attempted[0]),
                                  ("change", c, failed[1], attempted[1])):
            runs.append({
                "side": side, "pair": i, "seed": 101 + i, "correct": True,
                "attempted": a, "failed": f,
                "metrics": {metric: value},
            })
    return runs


def row(parent, change, metric="ops_per_s"):
    return bench_pair.summarize(runs_from(parent, change, metric), DECLARED)["metrics"][metric]


PARENT = [19.0, 18.5, 19.1, 18.9, 19.3, 18.7, 19.0, 18.4, 19.2, 18.8]


class TestVerdict:
    def test_gain_needs_nine_wins_and_a_margin_over_the_iqr(self):
        r = row(PARENT, [v * 1.2 for v in PARENT])
        assert (r["change_wins"], r["verdict"]) == (10, "gain")

    def test_nine_of_ten_is_enough(self):
        change = [v * 1.2 for v in PARENT]
        change[3] = PARENT[3]  # a tie counts for neither side
        r = row(PARENT, change)
        assert (r["change_wins"], r["verdict"]) == (9, "gain")

    def test_eight_wins_are_not_a_gain(self):
        change = [v * 1.2 for v in PARENT]
        change[0] = change[1] = 18.0
        r = row(PARENT, change)
        assert (r["change_wins"], r["verdict"]) == (8, "within_bound")

    def test_margin_inside_the_iqr_is_not_a_gain(self):
        # the change wins every pair by less than the parent's own spread
        r = row(PARENT, [v + 0.01 for v in PARENT])
        assert (r["change_wins"], r["verdict"]) == (10, "within_bound")

    def test_worse_beyond_the_bound(self):
        r = row(PARENT, [v * 0.7 for v in PARENT])
        assert (r["change_wins"], r["verdict"]) == (0, "worse")

    def test_worse_within_the_bound(self):
        r = row(PARENT, [v * 0.9 for v in PARENT])
        assert r["verdict"] == "within_bound"

    def test_lower_is_better(self):
        latency = [1000.0 / v for v in PARENT]
        assert row(latency, [v * 0.8 for v in latency], "op_p50_ms")["verdict"] == "gain"
        assert row(latency, [v * 1.3 for v in latency], "op_p50_ms")["verdict"] == "worse"

    def test_wide_parent_spread_is_unresolved(self):
        parent = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
        r = row(parent, [v * 0.95 for v in parent])
        assert r["verdict"] == "unresolved"

    def test_wide_spread_with_every_change_run_better_is_resolved(self):
        parent = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
        r = row(parent, [21.0] * 10)
        assert r["verdict"] == "within_bound"

    def test_metric_without_a_bound_has_no_verdict(self):
        r = row([5.0] * 10, [4.0] * 10, "filter_ms")
        assert r["change_wins"] == 10 and "verdict" not in r

    def test_failures_are_summed_per_side(self):
        summary = bench_pair.summarize(runs_from(PARENT, PARENT), DECLARED)
        assert summary["operations"]["change"] == {
            "failed": 40, "attempted": 390, "all_correct": True, "incorrect_seeds": [],
        }

    def test_incorrect_seeds_are_listed_per_side(self):
        # seed 103 is incorrect on both sides (a reference defect), seed 107
        # on the change's side only (a regression)
        runs = runs_from(PARENT, PARENT)
        for r in runs:
            r["correct"] = not (r["seed"] == 103 or (r["seed"] == 107 and r["side"] == "change"))
        ops = bench_pair.summarize(runs, DECLARED)["operations"]
        parent, change = ops["parent"], ops["change"]
        assert (parent["all_correct"], parent["incorrect_seeds"]) == (False, [103])
        assert (change["all_correct"], change["incorrect_seeds"]) == (False, [103, 107])


@pytest.mark.parametrize(
    "failed,attempted,higher",
    [
        ((4, 4), (39, 39), False),
        ((4, 4), (39, 78), False),  # more operations at the same count: a lower share
        ((4, 8), (39, 78), False),  # twice the work, the same share
        ((4, 5), (39, 39), True),
        ((4, 4), (39, 38), True),  # fewer operations at the same count: a higher share
        ((0, 1), (39, 39), True),
        ((4, 0), (39, 39), False),
    ],
)
def test_failed_share_higher(failed, attempted, higher):
    runs = runs_from(PARENT, PARENT, failed=failed, attempted=attempted)
    ops = bench_pair.summarize(runs, DECLARED)["operations"]
    assert ops["failed_share_higher"] is higher


def test_failed_share_is_averaged_over_pairs():
    # one seed fails 1 of the 19 operations of each round on both sides; the
    # change runs more rounds of it, so only its pooled share is higher
    runs = runs_from(PARENT, PARENT, failed=(0, 0), attempted=(57, 57))
    runs[0].update(failed=3, attempted=57)
    runs[1].update(failed=4, attempted=76)
    ops = bench_pair.summarize(runs, DECLARED)["operations"]
    p, c = ops["parent"], ops["change"]
    assert c["failed"] * p["attempted"] > p["failed"] * c["attempted"]
    assert ops["failed_share_higher"] is False


@pytest.mark.parametrize(
    "values,expected",
    [([3.0], (3.0, 3.0, 3.0)), ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0))],
)
def test_spread(values, expected):
    s = bench_pair.spread(values)
    assert (s["q1"], s["median"], s["q3"]) == expected
