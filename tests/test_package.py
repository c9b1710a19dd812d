"""Package-level exports, and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import subplanck

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_is_unique_and_resolves():
    names = subplanck.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(subplanck, name), name


def test_catalog_densities_are_built_only_through_realize():
    for name in (
        "fock_density",
        "fock_mixture_density",
        "cat_momentum_density",
        "gkp_position_density",
        "cubic_momentum_density",
    ):
        assert name not in subplanck.__all__ and not hasattr(subplanck, name), name
    assert "realize" in subplanck.__all__


def test_bench_trace_targets_resolve():
    # bench/spans.py wraps these module attributes for --trace; each must
    # still name a callable, or traced benchmark runs fail
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _ in spans.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
