import json
import random
import sys
from pathlib import Path

import pytest

from gstar import GVar, IdentityListing, build_grading, grading_from_json
from gstar import selftest
from gstar.errors import PreconditionError
from gstar.freealg import multidegree
from gstar.genmat import closed_form_product
from gstar.reference import honest_product
from gstar.rings import PrimeField, RATIONALS
from gstar.sampling import (
    congruent_partner,
    random_grading,
    random_multihomogeneous_poly,
)
from gstar.selftest import exhaustive_word_scan, run_selftest

ROOT = Path(__file__).resolve().parents[1]


def test_selftest_passes_on_family(gradings):
    for name, grading in gradings.items():
        report = run_selftest(grading, seed=1)
        assert report.passed, f"{name}: {[r.detail for r in report.results if not r.passed]}"


def test_selftest_deterministic(gr_z6):
    a = run_selftest(gr_z6, seed=9)
    b = run_selftest(gr_z6, seed=9)
    assert a.to_json() == b.to_json()


def test_selftest_modp(gr_z4):
    report = run_selftest(gr_z4, PrimeField(2), seed=2)
    assert report.passed


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(5)], ids=["q", "modp:5"])
def test_selftest_never_calls_evaluate_monomial(gr_klein, field, monkeypatch):
    """``evaluate_monomial`` is only a name for the closed form: with every
    gstar binding of it refusing, as the benchmark's spans wrap them, the
    selftest still passes."""
    import gstar.freealg

    original = gstar.freealg.evaluate_monomial

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate_monomial called")

    bound = 0
    for name, module in sorted(sys.modules.items()):
        if name == "gstar" or name.startswith("gstar."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
                    bound += 1
    assert bound >= 2, "the patch does not reach the package's bindings"
    assert run_selftest(gr_klein, field, seed=1).passed


def test_scan_counts_z2(gr_z2):
    scan = exhaustive_word_scan(gr_z2, 4, crosscheck_stride=5)
    # 4 letters: 4 + 16 + 64 + 256
    assert scan.words == 340
    assert scan.identities == 0
    assert scan.passed
    assert scan.crosschecks == 340 // 5


@pytest.mark.parametrize("max_degree", [0, -1])
def test_scan_rejects_degree_below_one(gr_z2, max_degree):
    with pytest.raises(PreconditionError):
        exhaustive_word_scan(gr_z2, max_degree)


def test_scan_finds_identities(gr_z6):
    scan = exhaustive_word_scan(gr_z6, 3, crosscheck_stride=13)
    assert scan.passed
    # 105 minimal words minus the off-support singleton, plus non-minimal ones
    assert scan.identities > 100


@pytest.mark.parametrize(
    "path, max_degree",
    [(path, 4) for path in sorted((ROOT / "configs").glob("*.json"))]
    + [(path, 3) for path in sorted((ROOT / "bench" / "configs").glob("*.json"))],
    ids=lambda x: getattr(x, "stem", x),
)
def test_scan_identities_match_transfer_matrix_count(path, max_degree):
    """The walk's identities are the listing's support words: its count less
    the off-support variables, which the scan's alphabet leaves out."""
    grading = grading_from_json(json.loads(path.read_text(encoding="utf-8")))
    scan = exhaustive_word_scan(grading, max_degree)
    assert scan.passed
    listing = IdentityListing(grading, max_degree)
    assert scan.identities == listing.count - len(grading.off_support())


def test_scan_fails_a_corrupted_composition_graph(z4):
    """One wrong successor in the graph (hat(a) from the identity state sent
    to the empty state) must be caught by the row walk."""
    grading = build_grading(z4, ["e", "a", "a2"])  # fresh: the graph is cached per grading
    graph = grading.composition_graph
    row = list(graph.step[0])
    row[z4.index_of("a")] = graph.empty
    graph.step[0] = tuple(row)
    scan = exhaustive_word_scan(grading, 3)
    assert not scan.passed
    assert scan.failures[0].startswith("route disagreement")


def _corrupt_one_hat(grading):
    """Swap two targets of the first non-neutral support hat with two or
    more, give its inverse's hat the inverse map and drop the cached
    composition graph: the tables the fast path reads stay consistent with
    each other, but not with the unit degrees.  Returns the element."""
    group = grading.group
    g = next(x for x in grading.support_sorted()
             if x != group.identity and sum(t is not None for t in grading.hats[x]) >= 2)
    targets = list(grading.hats[g])
    i, j = [k for k, t in enumerate(targets) if t is not None][:2]
    targets[i], targets[j] = targets[j], targets[i]
    inverse = [None] * grading.n
    for k, t in enumerate(targets):
        if t is not None:
            inverse[t] = k
    hats = list(grading.hats)
    hats[g], hats[group.inv(g)] = tuple(targets), tuple(inverse)
    grading.hats = tuple(hats)
    del grading.composition_graph
    return g


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_references_catch_a_consistent_hat_corruption(path):
    """The scan's row walk and the honest product are built from the unit
    degrees, so a hat table corrupted consistently with its inverses turns
    both suites red, while the honest product is that of a clean twin."""
    config = json.loads(path.read_text(encoding="utf-8"))
    grading, twin = grading_from_json(config), grading_from_json(config)
    grading.composition_graph  # built, so that the corruption must drop it
    g = _corrupt_one_hat(grading)
    assert closed_form_product([GVar(1, g)], grading) != closed_form_product([GVar(1, g)], twin)
    threeway = selftest._suite_monomial_threeway(grading, RATIONALS)
    assert not threeway.passed and threeway.detail.startswith("route disagreement")
    oracle = selftest._suite_product_oracle(grading, random.Random(1), RATIONALS)
    assert not oracle.passed and "closed form mismatch" in oracle.detail
    letters = grading.signed_alphabet()
    for x, s in letters:
        for y, t in letters:
            word = [GVar(1, x, s), GVar(2, y, t)]
            assert honest_product(word, grading) == honest_product(word, twin)


def test_generator_respects_bounds(gradings):
    rng = random.Random(77)
    grading = gradings["Z6:(e,a,a2)"]
    for _ in range(100):
        f = random_multihomogeneous_poly(rng, grading, RATIONALS)
        if f is None:
            continue
        terms = f.terms_sorted()
        assert len(terms) <= 6
        assert all(len(m) <= 5 for m, _ in terms)
        assert all(c == 1 or c == -1 for _m, c in terms)
        assert len({multidegree(m) for m, _ in terms}) == 1


def test_congruent_partner_preserves_evaluation(gradings):
    from gstar.freealg import evaluate_monomial
    from gstar.sampling import random_monomial

    rng = random.Random(99)
    grading = gradings["Klein:(e,a,b)"]
    produced = 0
    while produced < 30:
        m = random_monomial(rng, grading, rng.randint(1, 4))
        partner = congruent_partner(rng, m, grading)
        if partner is None:
            continue
        produced += 1
        assert evaluate_monomial(m, grading) == evaluate_monomial(partner, grading)


def test_random_grading_is_valid():
    rng = random.Random(3)
    for _ in range(50):
        grading = random_grading(rng)
        assert 1 <= grading.n <= 5
        assert len(set(grading.defining_tuple)) == grading.n
