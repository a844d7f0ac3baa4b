import json
import random
import sys
from pathlib import Path

import pytest

from gstar import GVar, IdentityListing, build_grading, grading_from_json
from gstar import selftest
from gstar.errors import PreconditionError, ResourceCapError
from gstar.freealg import multidegree
from gstar.genmat import closed_form_product
from gstar.reference import honest_product, row_steps
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


# the fast path raises on the derivation of these gradings once corrupted
DERIVATION_RAISES = {"z2", "z4_3tuple", "z6_3tuple"}


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "bench" / "configs").glob("*.json")),
    ids=lambda p: p.stem,
)
def test_references_catch_a_consistent_hat_corruption(path, corrupted):
    """The hat-map check, the scan's row walk and the honest product are
    built from the unit degrees, so a hat table corrupted consistently with
    its inverses turns their suites red over both rings, while the honest
    product is that of a clean twin.  Where the derivation raises an
    InternalCheckError, the report still comes back, its congruence suite
    red and naming the error."""
    config = json.loads(path.read_text(encoding="utf-8"))
    twin = grading_from_json(config)
    for field in (RATIONALS, PrimeField(5)):
        grading, g = corrupted(config)
        letter = [GVar(1, g)]
        assert closed_form_product(letter, grading, field) != closed_form_product(letter, twin, field)
        red = {r.name: r.detail for r in run_selftest(grading, field, seed=1).results
               if not r.passed}
        assert "hat-maps" in red
        assert f"hat({grading.group.name_of(g)}) differs from its row steps" in red["hat-maps"]
        assert red["monomial-threeway"].startswith("route disagreement")
        assert "closed form mismatch" in red["product-oracle"]
        if path.stem in DERIVATION_RAISES:
            assert red["congruence"].startswith("InternalCheckError: ")
    letters = grading.signed_alphabet()
    for x, s in letters:
        for y, t in letters:
            word = [GVar(1, x, s), GVar(2, y, t)]
            assert honest_product(word, grading) == honest_product(word, twin)


@pytest.mark.parametrize("path, sigma", [
    (ROOT / "bench" / "configs" / "z5_full.json", (0, 1, 2, 4, 3)),
    (ROOT / "configs" / "s3_rot.json", (0, 2, 1)),
], ids=["z5_full", "s3_rot"])
def test_hat_maps_catch_a_conjugated_hat_table(path, sigma, conjugated):
    """Conjugating every hat by a row permutation keeps each domain and
    image and every inverse and composition law, but not the unit degrees:
    hat-maps compares each hat with its row steps and turns red, as do the
    suites that evaluate words."""
    config = json.loads(path.read_text(encoding="utf-8"))
    for field in (RATIONALS, PrimeField(5)):
        grading = conjugated(config, sigma)
        for x in grading.group.elements():
            steps = row_steps(grading, x)
            assert set(grading.hat(x).domain()) == set(steps)
            assert set(grading.hat(x).image()) == set(steps.values())
        red = {r.name: r.detail for r in run_selftest(grading, field, seed=1).results
               if not r.passed}
        assert red["hat-maps"].endswith("differs from its row steps")
        assert "closed form mismatch" in red["product-oracle"]
        assert "monomial-threeway" in red


def test_only_a_gstar_error_turns_a_suite_red(gr_z2, monkeypatch):
    """A suite raising a GstarError is a red result naming the error, and the
    later suites still run; any other exception is a bug in the suite and
    leaves run_selftest."""
    def raising(error):
        def suite(grading, rng, field):
            raise error("boom")
        return suite

    clean = selftest.SUITES
    for error in (ResourceCapError, TypeError):
        suites = list(clean)
        suites[4] = (suites[4][0], raising(error))
        monkeypatch.setattr(selftest, "SUITES", tuple(suites))
        if error is TypeError:
            with pytest.raises(TypeError, match="^boom$"):
                run_selftest(gr_z2)
            continue
        report = run_selftest(gr_z2)
        assert [r.name for r in report.results] == [name for name, _ in clean]
        assert not report.passed
        assert [r.detail for r in report.results if not r.passed] == ["ResourceCapError: boom"]


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
