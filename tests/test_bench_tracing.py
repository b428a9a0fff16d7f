"""The benchmark's tracer must keep seeing the prover.

`bench/tracing.py` rebinds traced functions by module attribute and
attributes method attempts from their entry spans, so a renamed traced
function, or one captured at import time, would silently blind
`bench/run.py --trace 1`.  These tests load the tracer from `bench/` and
change nothing there.
"""
import importlib
import importlib.util
from pathlib import Path

import uncprover.cops
import uncprover.strategy
from uncprover.completion import direct_sum_decompose
from uncprover.ctrs import conditional_linearize
from uncprover.trs import critical_pairs

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    for table in (tracing.SPANNED, tracing.COUNTED):
        for mod, names in table.items():
            module = importlib.import_module(f"uncprover.{mod}")
            for name in names:
                assert callable(getattr(module, name, None)), f"uncprover.{mod}.{name}"


def test_tracer_counts_one_attempt_per_method():
    tracing = _load_tracing()
    problem = uncprover.cops.parse_cops((BENCH / "corpus" / "COPS_254.trs").read_text())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for tag in tracing.METHOD_TAGS:
            # looked up after `install`, as the benchmark calls it
            uncprover.strategy.prove_unc(
                problem, uncprover.strategy.StrategyConfig(methods=(tag,), timeout=30))
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    attempts = {tag: metrics.get(f"method.{tracing._metric_tag(tag)}.attempts")
                for tag in tracing.METHOD_TAGS}
    assert attempts == {tag: 1 for tag in tracing.METHOD_TAGS}


def test_tracer_counts_the_critical_pairs_of_pcl():
    tracing = _load_tracing()
    problem = uncprover.cops.parse_cops((BENCH / "corpus" / "AC_g.trs").read_text())
    components = direct_sum_decompose(problem.trs)
    pairs = sum(len(critical_pairs(conditional_linearize(C))) for C in components)
    assert len(components) == 2 and pairs > 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        uncprover.strategy.prove_unc(
            problem, uncprover.strategy.StrategyConfig(methods=("pcl",), timeout=30))
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    # one builder serves both names, so the calls count under `trs`
    assert metrics["trs.critical_pairs.calls"] == len(components)
    assert metrics["trs.critical_pairs.pairs"] == pairs
