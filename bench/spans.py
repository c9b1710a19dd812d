"""Spans around the program's layers, recorded from outside the program.

Each public function is wrapped at the module attribute its caller looks it
up by (``subplanck.distill.filter_with_ground_state`` for ``optimize_filter``,
``subplanck.cli.quantify`` for the CLI, ``subplanck.depth.quantify`` for the
depth solver, ...), so every call through that name opens a span.  A span is
``(name, start, end, parent index, operation id)``; spans stay in memory and
are written when the run ends.  A few wrappers also count what the call did
(maxima found, nodes under the powered peak, samples drawn).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module whose global the caller reads, attribute, span name)
TARGETS = (
    ("subplanck.cli", "main", "cli.main"),
    ("subplanck.cli", "load_config", "cli.load_config"),
    ("subplanck.cli", "canonical_json", "cli.canonical_json"),
    ("subplanck.cli", "realize", "states.realize"),
    ("subplanck.depth", "realize", "states.realize"),
    ("subplanck.states", "convolve_gaussian", "density.convolve_gaussian"),
    ("subplanck.cli", "read_density_csv", "density.read_density_csv"),
    ("subplanck.cli", "quantify", "distill.quantify"),
    ("subplanck.depth", "quantify", "distill.quantify"),
    ("subplanck.distill", "asymptotic_variance", "distill.asymptotic_variance"),
    ("subplanck.depth", "asymptotic_variance", "distill.asymptotic_variance"),
    ("subplanck.distill", "global_maxima", "density.global_maxima"),
    ("subplanck.distill", "curvature_at", "density.curvature_at"),
    ("subplanck.distill", "universal_distill", "distill.universal_distill"),
    ("subplanck.cli", "universal_distill", "distill.universal_distill"),
    ("subplanck.distill", "pow_scale", "density.pow_scale"),
    ("subplanck.distill", "optimize_filter", "distill.optimize_filter"),
    ("subplanck.distill", "filter_with_ground_state", "distill.filter_with_ground_state"),
    ("subplanck.distill", "variance", "density.variance"),
    ("subplanck.cli", "subplanck_depth", "depth.subplanck_depth"),
    ("subplanck.cli", "fano_depth", "depth.fano_depth"),
    ("subplanck.depth", "thermal_fock_number_distribution",
     "depth.thermal_fock_number_distribution"),
    ("subplanck.cli", "wigner_negativity_depth", "depth.wigner_negativity_depth"),
    ("subplanck.depth", "thermal_fock_wigner_origin", "depth.thermal_fock_wigner_origin"),
    ("subplanck.cli", "simulate_protocol", "oracle.simulate_protocol"),
    ("subplanck.cli", "ks_distance", "oracle.ks_distance"),
    ("subplanck.cli", "fit_populations", "phonon.fit_populations"),
    ("subplanck.cli", "read_rabi_csv", "phonon.read_rabi_csv"),
)

# Nodes count as resolving the powered peak when within e^-40 of it.
_PEAK_WINDOW = 40.0


def _count_result(rec: "Recorder", name: str, args: tuple, result) -> None:
    if name == "density.global_maxima":
        rec.counts["maxima"] += len(result)
    elif name == "density.pow_scale" and args[1] > 1:
        log_p = result.log_p
        nodes = int((log_p >= log_p.max() - _PEAK_WINDOW).sum())
        rec.peak_nodes_min = min(rec.peak_nodes_min, nodes)
    elif name == "oracle.simulate_protocol":
        rec.counts["samples_drawn"] += result.attempted << args[1]
        rec.counts["accepted"] += result.accepted
        rec.counts["attempts"] += result.attempted


class Recorder:
    """In-memory span log for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_nodes_min = float("inf")
        self._restore: list[tuple] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            _count_result(self, name, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and inclusive seconds.

        Self time is the span minus the time its child spans cover.  Inclusive
        time counts only the outermost span of a name, so recursion (the
        CLI's serializer calls itself) is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["inclusive_s"] += end - start
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        return sum(
            1 for name, _, _, parent, _ in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path: str, ops: list[tuple[str, float, float]]) -> None:
        with open(path, "w") as fh:
            json.dump({"ops": ops, "spans": self.spans}, fh)
