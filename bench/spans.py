"""Per-layer spans for the traced run, installed from outside the package.

Each layer boundary is a function name bound in a gstar module's namespace
(every module that imports the function gets its binding wrapped, so calls
from any caller are seen) or a class attribute.  A span records name,
request, parent, start and end; a layer's self time is its span minus its
child spans.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# span name -> (defining module, attribute); wrapped wherever the object is bound
SPANS = {
    "gradings.grading_from_json": ("gstar.gradings", "grading_from_json"),
    "freealg.parse_poly": ("gstar.freealg", "parse_poly"),
    "freealg.multihomogeneous_components": ("gstar.freealg", "multihomogeneous_components"),
    "freealg.evaluate": ("gstar.freealg", "evaluate"),
    "freealg.evaluate_monomial": ("gstar.freealg", "evaluate_monomial"),
    "identities.basis_reduce": ("gstar.identities", "basis_reduce"),
    "identities.is_monomial_identity": ("gstar.identities", "is_monomial_identity"),
    "identities.subword_identity_certificate": ("gstar.identities", "subword_identity_certificate"),
    "identities.congruent_mod_neutral": ("gstar.identities", "congruent_mod_neutral"),
    "identities.derivation_mod_neutral": ("gstar.identities", "derivation_mod_neutral"),
    "identities.enumerate_monomial_identities": ("gstar.identities", "enumerate_monomial_identities"),
    "identities.minimal_identities_up_to": ("gstar.identities", "minimal_identities_up_to"),
    "identities.block_certificate": ("gstar.identities", "block_certificate"),
    "selftest.run_selftest": ("gstar.selftest", "run_selftest"),
    "selftest.exhaustive_word_scan": ("gstar.selftest", "exhaustive_word_scan"),
    "genmat.closed_form_product": ("gstar.genmat", "closed_form_product"),
}
# class attributes: span name -> (module, class, attribute)
METHOD_SPANS = {
    "gradings.compose_signed": ("gstar.gradings", "Grading", "compose_signed"),
}
# the request span: the whole in-process CLI call
REQUEST_SPAN = "cli"
COUNTERS = (
    "genmat.matmul.calls",
    "identities.uncertified_terms",
    "identities.derivation_mod_neutral.null",
    "identities.enumerate_monomial_identities.words",
)
SPAN_NAMES = (REQUEST_SPAN, *SPANS, *METHOD_SPANS)
MAX_RECORDED_SPANS = 200_000


class Tracer:
    """Span stack, per-name totals and a bounded in-memory span log."""

    def __init__(self):
        self.stack: list = []  # [name, span id, start ns, child ns]
        self.totals = {name: [0, 0, 0] for name in SPAN_NAMES}  # calls, total, self (ns)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.log: list = []
        self.dropped = 0
        self.request = None
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, self._next_id, perf_counter_ns(), 0])

    def exit(self) -> None:
        end = perf_counter_ns()
        name, span_id, start, child = self.stack.pop()
        duration = end - start
        row = self.totals[name]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][1]
        if len(self.log) < MAX_RECORDED_SPANS:
            self.log.append((span_id, parent, self.request, name, start, end))
        else:
            self.dropped += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def metrics(self) -> dict:
        out = {}
        for name, (calls, total, self_ns) in self.totals.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_ms"] = (total / 1e6, "ms")
            out[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.log:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")


def _span(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


class Instrumentation:
    """The wrappers of one tracer, installed and removed as a unit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        results = {
            "identities.basis_reduce": lambda red: tracer.count(
                "identities.uncertified_terms",
                sum(1 for t in red.identity_terms if t.certificate is None)),
            "identities.derivation_mod_neutral": lambda chain: tracer.count(
                "identities.derivation_mod_neutral.null", chain is None),
            "identities.enumerate_monomial_identities": lambda words: tracer.count(
                "identities.enumerate_monomial_identities.words", len(words)),
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gstar" or name.startswith("gstar.")]
        self.bindings = []  # (owner, attribute, original, replacement)
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = _span(tracer, name, original, results.get(name))
            for owner in modules:
                for key, value in vars(owner).items():
                    if value is original:
                        self.bindings.append((owner, key, original, wrapper))
        for name, (module, cls, attr) in METHOD_SPANS.items():
            owner = getattr(sys.modules[module], cls)
            original = vars(owner)[attr]
            self.bindings.append((owner, attr, original, _span(tracer, name, original)))
        matrix = sys.modules["gstar.genmat"].SparseMatrix
        matmul = vars(matrix)["__matmul__"]

        def counted_matmul(a, b):
            tracer.count("genmat.matmul.calls")
            return matmul(a, b)

        self.bindings.append((matrix, "__matmul__", matmul, counted_matmul))

    def install(self) -> None:
        for owner, key, _, replacement in self.bindings:
            setattr(owner, key, replacement)

    def remove(self) -> None:
        for owner, key, original, _ in self.bindings:
            setattr(owner, key, original)
