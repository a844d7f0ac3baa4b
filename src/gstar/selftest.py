"""Cross-checking suites: every module's invariants run against one grading.

These are the checks behind the ``selftest`` CLI subcommand, deterministic
given a seed; the pytest suite reuses them.  Each suite in ``SUITES`` is a
function ``(grading, rng, field) -> (problems, summary)``; ``run_selftest``
runs them in order on one seeded generator and builds every result: a suite
passes when it lists no problem.  A suite that raises a ``GstarError`` (an
``InternalCheckError`` of the code under test, say) is a red result naming
the error, so the report survives the faults it exists to show; any other
exception is a bug in the suite and propagates.  The references come from
:mod:`gstar.reference`, built from the unit degrees g_i^{-1} g_j alone.
``hat-maps`` compares every element's hat with its row steps, which implies
the laws the hats obey; ``product-oracle`` compares the closed form with
``honest_product``.  The exhaustive scan compares the composition graph with
a walk along the row steps, and the word kernel with ``honest_product``.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .freealg import (
    GPolynomial,
    GVar,
    evaluate,
    render_word,
    star_polynomial,
)
from .errors import GstarError, PreconditionError
from .genmat import closed_form_product, iter_rows
from .gradings import Grading, signed_degree
from .identities import (
    BASIS_FAMILIES,
    basis_reduce,
    derivation_mod_neutral,
    is_identity,
    is_monomial_identity,
    verify_basis,
)
from .reference import honest_product, row_steps, unit_product
from .rings import RATIONALS
from .sampling import (
    congruent_partner,
    random_monomial,
    random_multihomogeneous_poly,
    random_slotted_word,
)


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"suite": self.name, "pass": self.passed, "detail": self.detail}


class ScanReport(NamedTuple):
    """Outcome of an exhaustive walk over all signed support words."""

    words: int
    identities: int
    crosschecks: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def exhaustive_word_scan(
    grading: Grading,
    max_degree: int,
    field=RATIONALS,
    crosscheck_stride: int = 0,
) -> ScanReport:
    """The composition graph against a row walk, over every signed support
    word up to a degree.

    For each word the scan keeps, along the search tree, (a) its state in
    the grading's composition graph, stepped by each letter's degree, and
    (b) an independent row walk: the (start row, current row) pairs that
    survive, stepped along the reference's row steps of the letter's
    degree.  The tree starts at the empty
    word (graph state 0, every row alive at itself).  It asserts that the
    state maps exactly the surviving start rows to their current rows, and
    counts a word as an identity when no row survives.  Every
    ``crosscheck_stride``-th word is also evaluated through
    ``honest_product`` and the closed form, which exercises the full
    coefficient path of the given field, and the units of its first kernel
    row must fold to that row's matrix unit.
    """
    if max_degree < 1:
        raise PreconditionError("max_degree must be at least 1")
    graph, n = grading.composition_graph, grading.n
    steps = [row_steps(grading, g) for g in grading.group.elements()]
    # per position p, each support letter as (GVar(p, g, star),) with its degree
    alphabets = [[((GVar(p, g, star),), signed_degree(g, star, grading.group))
                  for g, star in grading.signed_alphabet()] for p in range(1, max_degree + 1)]
    failures: list[str] = []
    counter = {"words": 0, "identities": 0, "crosschecks": 0}

    def crosscheck(word: tuple) -> None:
        counter["crosschecks"] += 1
        direct = honest_product(word, grading, field)
        if closed_form_product(word, grading, field) != direct:
            failures.append(f"closed form mismatch on {word}")
            return
        if not direct.is_zero:
            # the first kernel row's units, starred ones transposed, fold to (start, end)
            start, end, variables = next(iter_rows(word, grading))
            folded = unit_product([(b, a) if star else (a, b)
                                   for (_, a, b), (_, _, star) in zip(variables, word)])
            if folded != (start, end):
                failures.append(f"witness fold mismatch on {word}")

    def visit(word, state, alive) -> None:
        counter["words"] += 1
        walked: list = [None] * n
        for s, r in alive:
            walked[s] = r
        if graph.states[state] != tuple(walked):
            failures.append(f"route disagreement on {word}")
            return
        if not alive:
            counter["identities"] += 1
        if crosscheck_stride and counter["words"] % crosscheck_stride == 0:
            crosscheck(word)

    def rec(word, state, alive) -> None:
        if len(word) == max_degree:
            return
        for letter, degree in alphabets[len(word)]:
            step = steps[degree]
            new_word = word + letter
            new_state = graph.step[state][degree]
            new_alive = tuple((s, step[r]) for s, r in alive if r in step)
            visit(new_word, new_state, new_alive)
            rec(new_word, new_state, new_alive)

    rec((), 0, tuple((s, s) for s in range(n)))
    return ScanReport(
        counter["words"], counter["identities"], counter["crosschecks"], failures
    )


def _group_axioms(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    g = grading.group
    n = g.order
    problems = []
    triples = (
        [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        if n <= 12
        else [tuple(rng.randrange(n) for _ in range(3)) for _ in range(2000)]
    )
    for a, b, c in triples:
        if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
            problems.append(f"associativity fails at ({a},{b},{c})")
            break
    for a in range(n):
        if g.mul(a, g.inv(a)) != g.identity or g.mul(g.identity, a) != a:
            problems.append(f"identity/inverse law fails at {a}")
            break
    return problems, f"{len(triples)} triples"


def _hat_maps(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    # by definition: hat(x) sends i to j exactly when e_ij has degree x
    problems = [f"hat({grading.group.name_of(x)}) differs from its row steps"
                for x in grading.group.elements()
                if grading.hat(x).as_dict() != row_steps(grading, x)]
    return problems, f"{len(grading.support)} support elements"


def _product_oracle(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    problems = []
    words = 120
    for k in range(words):
        length = rng.randint(1, 8)
        slotted = random_slotted_word(rng, grading, length, repeat_slots=(k % 7 == 0))
        if closed_form_product(slotted, grading, field) != honest_product(slotted, grading, field):
            problems.append(f"closed form mismatch on word {k}")
    return problems, f"{words} random words"


def _monomial_threeway(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    depth = 4 if len(grading.support) <= 4 else 3
    report = exhaustive_word_scan(grading, depth, field, crosscheck_stride=17)
    return report.failures, (f"{report.words} words, {report.identities} identities, "
                             f"{report.crosschecks} crosschecked")


def _congruence(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    problems = []
    pairs = 40
    done = 0
    attempts = 0
    while done < pairs and attempts < pairs * 20:
        attempts += 1
        mono = random_monomial(rng, grading, rng.randint(1, 4))
        if is_monomial_identity(mono, grading):
            continue
        partner = congruent_partner(rng, mono, grading)
        if partner is None:
            continue
        done += 1
        chain = derivation_mod_neutral(mono, partner, grading)
        if chain is None:
            problems.append("engineered congruent pair rejected: "
                            + render_word(mono, grading.group))
            continue
        ref = closed_form_product(partner, grading, field)
        for step in chain:
            if closed_form_product(step.result, grading, field) != ref:
                problems.append(f"derivation step changes evaluation: {step!r}")
                break
    return problems, f"{done} engineered pairs"


def _star_involution(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    problems = []
    polys = 20
    for _ in range(polys):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = random_monomial(rng, grading, rng.randint(1, 4))
            terms[m] = field.one if rng.random() < 0.5 else -field.one
        f = GPolynomial(terms)
        if star_polynomial(star_polynomial(f)) != f:
            problems.append("star applied twice is not the identity")
            break
        if evaluate(star_polynomial(f), grading, field) != evaluate(f, grading, field).transpose():
            problems.append("star does not match transposition under evaluation")
            break
    return problems, f"{polys} random polynomials"


def _basis_identities(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    report = verify_basis(grading, field)
    return [k for k in BASIS_FAMILIES if not report[k]["pass"]], "all four families hold"


def _basis_reduce(grading: Grading, rng: random.Random, field) -> tuple[list, str]:
    problems = []
    polys = 40
    produced = 0
    while produced < polys:
        f = random_multihomogeneous_poly(rng, grading, field)
        if f is None:
            continue
        produced += 1
        red = basis_reduce(f, grading)
        direct = is_identity(f, grading, field)
        if red.is_identity != direct:
            problems.append("reduction verdict disagrees with evaluation")
            break
    return problems, f"{produced} random polynomials"


SUITES = (
    ("group-axioms", _group_axioms),
    ("hat-maps", _hat_maps),
    ("product-oracle", _product_oracle),
    ("monomial-threeway", _monomial_threeway),
    ("congruence", _congruence),
    ("star-involution", _star_involution),
    ("basis-identities", _basis_identities),
    ("basis-reduce", _basis_reduce),
)


class SelftestReport(NamedTuple):
    grading: str
    seed: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "grading": self.grading,
            "seed": self.seed,
            "pass": self.passed,
            "suites": [r.to_json() for r in self.results],
        }


def run_selftest(grading: Grading, field=RATIONALS, seed: int = 1) -> SelftestReport:
    """Run every suite of ``SUITES`` in order on one seeded generator;
    deterministic given the seed.  A suite that raises a GstarError is red."""
    rng = random.Random(seed)
    results = []
    for name, suite in SUITES:
        try:
            problems, summary = suite(grading, rng, field)
        except GstarError as err:
            problems, summary = [f"{type(err).__name__}: {err}"], ""
        results.append(SuiteResult(name, not problems, "; ".join(problems[:3]) or summary))
    return SelftestReport(repr(grading), seed, results)
