"""The benchmark's tracer still sees the layers it times.

``perfbench/tracing.py`` wraps functions by module attribute, so a
refactor that moves a call makes a span read zero without any error.
These tests only read the tracer: they install its wrappers around one
cold reduction in each mode, or one cold classification, and remove them
afterwards.
"""

import importlib
import importlib.util
from pathlib import Path

import weilgroup.classify
import weilgroup.smith
from weilgroup.horn import HornTable, enumerate_T
from weilgroup.reduce import redundant_members_full, reduce_system
from weilgroup.weil import parse_and_validate

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    for module_name, attr, span in _tracing().TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), (module_name, attr, span)


def test_cold_reductions_reach_the_traced_layers():
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        system = reduce_system(4, 2, table=HornTable())
        smith_calls = {name: agg["calls"] for name, agg in tracer.by_name().items()}
        redundant_members_full(5, table=HornTable())
        calls = {name: agg["calls"] for name, agg in tracer.by_name().items()}
    finally:
        tracing.uninstall(saved)
    for module, attr, original in saved:
        assert getattr(module, attr) is original, (module.__name__, attr)
    # smith mode: one description of the system at least, one verdict per candidate
    assert smith_calls["linprog.highs"] >= 1
    assert smith_calls["linprog.is_implied"] == len(system.kept) + len(system.removed_implied)
    assert "horn.enumerate_T" not in smith_calls
    # full mode: verdicts by LR coefficient from the T^5_p tables, no description
    assert calls["horn.enumerate_T"] >= 1
    assert tracer.counts["horn.triples"] == sum(len(enumerate_T(5, p)) for p in range(1, 5))
    assert calls["linprog.highs"] == smith_calls["linprog.highs"]
    assert calls["linprog.is_implied"] == smith_calls["linprog.is_implied"]


def test_cold_classify_reaches_the_traced_layers():
    weilgroup.classify._answers.cache_clear()
    weilgroup.classify._route_groups.cache_clear()
    weilgroup.smith._cokernels_cached.cache_clear()
    # (t^2 + t + 2)^2 (t^2 - t + 2) at q = 2: a P^2 Q class with two plan factors
    weil = parse_and_validate([1, 1, 5, 3, 10, 4, 8], 2)
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        result = weilgroup.classify.classify_all(weil)
    finally:
        tracing.uninstall(saved)
    assert result.plan.kind == "p2q" and len(result.plan.factors) == 2
    calls = {name: agg["calls"] for name, agg in tracer.by_name().items()}
    assert calls["weil.factor_weil"] == 1
    assert calls["polygon.transform_one_minus_t"] == 2  # once per plan factor
    assert calls["smith.enumerate_cokernels"] >= 1
    assert calls["smith.inequality_system"] >= 1
    assert tracer.counts["smith.candidates"] > 0
