"""Every layer the benchmark's traced run wraps must still exist in the package.

``bench/spans.py`` names its span targets as strings, so a renamed or deleted
function would otherwise only show up as a failing ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import gstar.cli  # noqa: F401  (the instrumentation wraps bindings in every gstar module)
import gstar.genmat
import gstar.reference
from gstar import GVar, build_grading, make_cyclic

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_resolve():
    spans = _load_spans()
    targets = {}
    for name, (module, attr) in spans.SPANS.items():
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), name
        targets[name] = target
    # an alias would be wrapped twice, and one of its two spans would read 0
    assert len({id(t) for t in targets.values()}) == len(targets), "two spans share a function"
    for name, (module, cls, attr) in spans.METHOD_SPANS.items():
        # wrapped through the class dict, so the method must be defined on the class itself
        assert attr in vars(getattr(importlib.import_module(module), cls)), name
    # building the wrappers resolves every target, plus the counted matrix product
    instrumentation = spans.Instrumentation(spans.Tracer())
    assert len(instrumentation.bindings) > len(spans.SPANS) + len(spans.METHOD_SPANS)


def test_matmul_counter_sees_the_honest_product():
    """The counter patches ``gstar.genmat.SparseMatrix``: it must be the
    class the honest product multiplies, or the counter silently reads 0."""
    assert gstar.genmat.SparseMatrix is gstar.reference.SparseMatrix
    spans = _load_spans()
    instrumentation = spans.Instrumentation(spans.Tracer())
    grading = build_grading(make_cyclic(4), ["e", "a", "a2"])
    instrumentation.install()
    try:
        gstar.reference.honest_product([GVar(1, 0), GVar(2, 1), GVar(3, 3, True)], grading)
    finally:
        instrumentation.remove()
    assert instrumentation.tracer.counts["genmat.matmul.calls"] == 2
