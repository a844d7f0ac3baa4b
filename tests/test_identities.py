import hashlib
import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstar import (
    BASIS_FAMILIES,
    GVar,
    IdentityListing,
    InternalCheckError,
    PreconditionError,
    ResourceCapError,
    basis_polynomials,
    basis_reduce,
    congruent_mod_neutral,
    derivation_mod_neutral,
    enumerate_monomial_identities,
    evaluate,
    build_grading,
    grading_from_json,
    evaluate_monomial,
    honest_product,
    is_identity,
    is_monomial_identity,
    make_cyclic,
    minimal_identities_up_to,
    multihomogeneous_components,
    parse_poly,
    subword_identity_certificate,
    iter_rows,
    verify_basis,
    word_monomial,
)
from gstar.freealg import (GPolynomial, multidegree, render_word, star_polynomial, star_word,
                           variable)
from gstar.gradings import signed_degree
from gstar.identities import ENUM_DEGREE_CAP, _profile_moves, block_certificate, neutral_factors
from gstar.genmat import evaluation_key
from gstar.rings import RATIONALS, PrimeField
from gstar.sampling import (
    congruent_partner,
    random_grading,
    random_monomial,
    random_multihomogeneous_poly,
    shuffled_monomial,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BENCH = CONFIGS.parent / "bench"


def letters(group, text):
    """Index-free word, slot p at position p, from a compact spelling like 'a a* a2'."""
    return tuple(GVar(p, group.index_of(tok.rstrip("*")), tok.endswith("*"))
                 for p, tok in enumerate(text.split(), 1))


# ---------------------------------------------------------------------------
# monomial identity test and witnesses


def test_dead_word_is_identity(gr_z6, z6, mono):
    m = mono("x1:a x2:a x3:a", z6)
    assert is_monomial_identity(m, gr_z6)
    assert evaluate_monomial(m, gr_z6).is_zero


def test_off_support_variable_is_identity(gr_z6, z6, mono):
    m = mono("x1:a3", z6)
    assert is_monomial_identity(m, gr_z6)
    assert next(iter_rows(m, gr_z6), None) is None


def test_witness_z2(gr_z2, z2, mono):
    m = mono("x1:a x2:a", z2)
    assert not is_monomial_identity(m, gr_z2)
    start, end, variables = next(iter_rows(m, gr_z2))
    assert start == 0
    assert tuple((a, b) for _, a, b in variables) == ((0, 1), (1, 0))
    assert (start, end) == (0, 0)


def test_witness_with_star(gr_z6, z6):
    start, end, variables = next(iter_rows(word_monomial(letters(z6, "a a*")), gr_z6))
    assert start == 0
    # the starred position is assigned the transposed unit
    assert tuple((a, b) for _, a, b in variables) == ((0, 1), (0, 1))
    assert (start, end) == (0, 0)


def test_verdict_independent_of_indices(gr_z6, z6, mono):
    dead = ("x1:a x2:a x3:a", "x1:a x1:a x1:a", "x7:a x2:a x7:a")
    for text in dead:
        assert is_monomial_identity(mono(text, z6), gr_z6)
    alive = ("x1:a x2:a", "x1:a x1:a")
    for text in alive:
        assert not is_monomial_identity(mono(text, z6), gr_z6)


def test_threeway_agreement_small_exhaustive(gr_z2, z2):
    alphabet = gr_z2.signed_alphabet()
    words = [((1, *l),) for l in alphabet]
    for _ in range(3):
        words += [w + ((len(w) + 1, *l),)
                  for w in words if len(w) == max(len(x) for x in words) for l in alphabet]
    for word in words:
        dead = gr_z2.compose_signed(word).is_empty
        m = word_monomial(word)
        assert evaluate_monomial(m, gr_z2).is_zero == dead
        assert is_monomial_identity(m, gr_z2) == dead


# ---------------------------------------------------------------------------
# polynomial identity test


def test_neutral_commutator_is_identity(gradings):
    for grading in gradings.values():
        (family, _, f), *_ = basis_polynomials(grading)
        assert family == "neutral-commutator"
        assert is_identity(f, grading)


def test_sandwich_is_identity(gr_z6):
    sandwiches = [f for family, _, f in basis_polynomials(gr_z6) if family == "sandwich"]
    assert len(sandwiches) == 4
    for f in sandwiches:
        assert is_identity(f, gr_z6)


def test_non_identity_reports_offending_entries(gr_z2, z2):
    f = parse_poly("x1:a x1:a* - x1:a* x1:a", z2)
    assert not is_identity(f, gr_z2)
    offending = evaluate(f, gr_z2).nonzero_items()
    positions = [pos for pos, _ in offending]
    assert (0, 0) in positions
    entry = dict(offending)[(0, 0)]
    assert entry.render() == "y[1,0,1]^2 - y[1,1,0]^2"


# ---------------------------------------------------------------------------
# congruence modulo the neutral ideal


def test_congruence_neutral_commute(gr_z2, z2, mono):
    assert congruent_mod_neutral(mono("x1:e x2:e", z2), mono("x2:e x1:e", z2), gr_z2)


def test_congruence_neutral_star(gr_z2, z2, mono):
    assert congruent_mod_neutral(mono("x1:e", z2), mono("x1:e*", z2), gr_z2)


def test_congruence_rejects_star_swap(gr_z2, z2, mono):
    assert not congruent_mod_neutral(
        mono("x1:a x1:a*", z2), mono("x1:a* x1:a", z2), gr_z2
    )


def test_congruence_distinguishes_indices(gr_z2, z2, mono):
    assert not congruent_mod_neutral(mono("x1:e", z2), mono("x2:e*", z2), gr_z2)


def test_congruence_precondition(gr_z6, z6, mono):
    with pytest.raises(PreconditionError):
        congruent_mod_neutral(mono("x1:a3", z6), mono("x1:a3", z6), gr_z6)


def test_congruent_monomials_share_letter_multiset(gr_z4, z4):
    # congruent words agree on the multiset of (index, element) pairs;
    # star flags may differ
    rng = random.Random(7)
    for _ in range(60):
        m = random_monomial(rng, gr_z4, rng.randint(1, 4))
        if is_monomial_identity(m, gr_z4):
            continue
        partner = congruent_partner(rng, m, gr_z4)
        if partner is None:
            continue
        assert congruent_mod_neutral(m, partner, gr_z4)
        assert multidegree(m) == multidegree(partner)
        assert sorted((v.index, v.element) for v in m) == sorted(
            (v.index, v.element) for v in partner
        )


def test_congruence_is_equivalence_on_samples(gr_z6, z6):
    rng = random.Random(13)
    monos = []
    while len(monos) < 8:
        m = random_monomial(rng, gr_z6, rng.randint(1, 3))
        if not is_monomial_identity(m, gr_z6):
            monos.append(m)
    for a in monos:
        assert congruent_mod_neutral(a, a, gr_z6)
        for b in monos:
            assert congruent_mod_neutral(a, b, gr_z6) == congruent_mod_neutral(b, a, gr_z6)


# ---------------------------------------------------------------------------
# derivations


def test_neutral_commutator_derivation_is_three_stars(gr_z2, z2, mono):
    # [x1:e, x2:e] lies in the ideal of the star relation: star [0,2), then
    # each letter
    m1, m2 = mono("x1:e x2:e", z2), mono("x2:e x1:e", z2)
    chain = derivation_mod_neutral(m1, m2, gr_z2)
    assert [(step.i, step.j) for step in chain] == [(0, 2), (0, 1), (1, 2)]
    _assert_replays(chain, m1, m2, z2)


def test_single_star_derivation(gr_z2, z2, mono):
    chain = derivation_mod_neutral(mono("x1:e", z2), mono("x1:e*", z2), gr_z2)
    assert [(step.i, step.j) for step in chain] == [(0, 1)]


def test_derivation_step_is_a_star(gr_z2, z2, mono):
    # a step names only its factor and its result; the report writes it as
    # a star, the one rewrite there is
    step, = derivation_mod_neutral(mono("x1:e", z2), mono("x1:e*", z2), gr_z2)
    assert step._fields == ("i", "j", "result")
    assert step.to_json(z2) == {"kind": "star", "i": 0, "j": 1, "result": "x1:e"}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(2), PrimeField(5)],
                         ids=["q", "modp:2", "modp:5"])
def test_neutral_commutator_follows_from_star_relation(gr_z2, z2, field):
    """[x, y] = (xy - (xy)*) + (y* - y)x* + y(x* - x) for neutral x and y, in
    every characteristic: each summand is a multiple of the star relation at
    a neutral argument, so the commutator needs no generator of its own."""
    e, one = z2.identity, field.one
    x, y = variable(1, e, one=one), variable(2, e, one=one)
    xs, ys = star_polynomial(x), star_polynomial(y)
    assert {v.element for m in (x * y).terms for v in m} == {e}
    rhs = (x * y - star_polynomial(x * y)) + (ys - y) * xs + y * (xs - x)
    assert basis_polynomials(gr_z2, field)[0] == ("neutral-commutator", "e", rhs)


def test_reversal_derivation(gr_z2, z2, mono):
    m1 = mono("x3:a x2:a x1:a", z2)
    m2 = mono("x1:a x2:a x3:a", z2)
    chain = derivation_mod_neutral(m1, m2, gr_z2)
    assert chain is not None and len(chain) <= 4
    ref = evaluate_monomial(m2, gr_z2)
    for step in chain:
        assert evaluate_monomial(step.result, gr_z2) == ref
    assert chain[-1].result == m1


def test_trivial_derivation_is_empty(gr_z2, z2, mono):
    assert derivation_mod_neutral(mono("x1:e", z2), mono("x1:e", z2), gr_z2) == []


def test_derivation_precondition(gr_z2, z2, gr_z6, z6, mono):
    # words that are not congruent have no chain
    assert derivation_mod_neutral(mono("x1:a x1:a*", z2), mono("x1:a* x1:a", z2), gr_z2) is None
    # an identity input (a3 is off the support) raises congruent_mod_neutral's error
    for first, second in (("x1:a3", "x1:a"), ("x1:a", "x1:a3")):
        m1, m2 = mono(first, z6), mono(second, z6)
        with pytest.raises(PreconditionError) as raised:
            congruent_mod_neutral(m1, m2, gr_z6)
        with pytest.raises(PreconditionError) as derived:
            derivation_mod_neutral(m1, m2, gr_z6)
        assert str(derived.value) == str(raised.value)


@pytest.mark.parametrize("first, second", [
    ("x1:e x2:e", "x1:e x2:a"),  # m1's variable is not on m2's trail
    ("x1:a x2:e", "x2:e x1:a"),  # no row repeats around the crossing
], ids=["missing-variable", "no-crossing"])
def test_derivation_on_rows_that_disagree_is_an_internal_error(
        monkeypatch, gr_z2, z2, mono, first, second):
    """Rows that claim congruence for words that are not congruent, as a
    faulty kernel would give, end the derivation with InternalCheckError."""
    monkeypatch.setattr("gstar.identities._congruent_rows",
                        lambda m1, m2, grading: (list(iter_rows(m1, grading)),
                                                 list(iter_rows(m2, grading))))
    with pytest.raises(InternalCheckError):
        derivation_mod_neutral(mono(first, z2), mono(second, z2), gr_z2)


def _reversal(degree, group, mono):
    """The all-neutral word x1:e ... xL:e and its reverse."""
    forward = " ".join(f"x{i}:e" for i in range(1, degree + 1))
    backward = " ".join(f"x{i}:e" for i in range(degree, 0, -1))
    return mono(forward, group), mono(backward, group)


def test_reversal_derivation_is_stars_and_repeatable(gr_z2, z2, mono):
    # the derivation is built, not searched for: the degree-5 reversal takes
    # six stars, and a second call gives the same chain
    m1, m2 = _reversal(5, z2, mono)
    chain = derivation_mod_neutral(m1, m2, gr_z2)
    assert len(chain) == 6
    assert derivation_mod_neutral(m1, m2, gr_z2) == chain


def test_reversal_derivation_places_one_letter_per_step(gr_z2, z2, mono):
    # on the degree-5 reversal, the first star reverses the whole word,
    # which leaves every letter starred, and step t >= 1 then places x(t):e
    # at position t - 1 by unstarring it
    m1, m2 = _reversal(5, z2, mono)
    chain = derivation_mod_neutral(m1, m2, gr_z2)
    assert [(step.i, step.j) for step in chain] == [(0, 5)] + [(t, t + 1) for t in range(5)]
    assert chain[0].result == tuple(GVar(v.index, v.element, True) for v in m1)
    assert [step.result[:t] for t, step in enumerate(chain)] == [m1[:t] for t in range(6)]
    _assert_replays(chain, m1, m2, z2)


def test_deep_reversal_derivation_replays(gr_z2, z2, mono):
    """The all-neutral reversals of degree 8 and 10 exceeded the state budget
    of a breadth-first search; the constructed chain reverses the word and
    then unstars one letter per step."""
    for degree in (8, 10, 20):
        m1, m2 = _reversal(degree, z2, mono)
        chain = derivation_mod_neutral(m1, m2, gr_z2)
        assert len(chain) == degree + 1
        _assert_replays(chain, m1, m2, z2)


# one pair per case of the derivation, at position 0 of the first word:
# (config, first, second, steps as (i, j))
DERIVATION_CASES = {
    # the variable is a loop: star up to its starred use, which brings it
    # into place plain; then star x2:e* at position 1, a loop at q = p
    "loop": ("z2.json", "x1:e x2:e", "x2:e x1:e*", [(0, 2), (1, 2)]),
    # a loop whose plain use lands starred: star up to it, then star it
    "loop-flag": ("z2.json", "x1:e x2:e", "x2:e x1:e", [(0, 2), (0, 1), (1, 2)]),
    # the second word crosses the variable back into the row: star up to it
    "enters": ("z2.json", "x1:a x2:a", "x2:a* x1:a*", [(0, 2)]),
    # it crosses the variable away and comes back at 4: star [2,4), which
    # makes it enter row 0 along the variable at 3, then star [0,4); then
    # x3:a enters at position 3 of x1:a x2:a x4:a* x3:a*: star [2,4)
    "returns": ("z2.json", "x1:a x2:a x3:a x4:a", "x3:a x4:a x1:a x2:a",
                [(2, 4), (0, 4), (2, 4)]),
    # it never comes back after the variable: row 1 is visited at 1 and at 3,
    # so star [1,3), which makes the word enter row 0 at 2, then star [0,2)
    "shared-row": ("z2.json", "x3:a x1:a* x2:a* x4:e", "x1:a x2:a x3:a x4:e",
                   [(1, 3), (0, 2)]),
}


@pytest.mark.parametrize("case", sorted(DERIVATION_CASES))
def test_derivation_case(case, mono):
    config, first, second, steps = DERIVATION_CASES[case]
    grading = grading_from_json(json.loads((CONFIGS / config).read_text()))
    m1, m2 = mono(first, grading.group), mono(second, grading.group)
    chain = derivation_mod_neutral(m1, m2, grading)
    assert [(step.i, step.j) for step in chain] == steps
    _assert_replays(chain, m1, m2, grading.group)


def _rewrites(letters, group):
    """Every single-step rewrite of a letter tuple by the star relation, as
    (i, j, rewritten letters): the star of each neutral factor [i,j), in the
    order of ``neutral_factors``."""
    for i, j in neutral_factors(letters, group):
        yield i, j, letters[:i] + star_word(letters[i:j]) + letters[j:]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=6))
def test_rewrites_in_generator_order(seed, length):
    """The rewrites of a word are, over i, then j, the star of each neutral
    factor [i,j)."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=4)
    group = grading.group
    word = random_monomial(rng, grading, length)
    assert list(_rewrites(word, group)) == list(_reference_rewrites(word, group))


def _reference_rewrites(letters, group):
    """The single-step rewrites of a letter tuple in generator order."""
    for i, j in itertools.combinations(range(len(letters) + 1), 2):
        if _block_degree(letters[i:j], group) != group.identity:
            continue
        starred = tuple(GVar(v.index, v.element, not v.star) for v in reversed(letters[i:j]))
        yield i, j, letters[:i] + starred + letters[j:]


# partners drawn at seed 2 for random words of degree 5; the draws follow
# the order of the rewrite list, as the selftest congruence suite's do
PINNED_PARTNERS = {
    "Z6:(e,a,a2)": [
        ("x1:a4 x1:e* x2:a x1:e x1:e", "x1:a4 x1:e x2:a x1:e* x1:e"),
        ("x1:a2* x1:a2 x2:a4 x1:a2 x1:a4", "x1:a2* x1:a4* x1:a2* x1:a2 x2:a4"),
        ("x4:a x1:a* x4:e* x2:a5 x3:a2", "x4:e x4:a x3:a2* x2:a5* x1:a"),
        ("x4:a* x1:a4* x3:a4 x4:a2 x3:e", "x4:a* x1:a4* x3:a4 x4:a2 x3:e"),
    ],
    "S3:(e,r,a)": [
        ("x3:e x3:a x4:a x2:c* x2:e*", "x3:a x4:a x3:e* x2:c* x2:e*"),
        ("x4:a x2:rr* x4:e x2:e* x2:r*", "x4:a x2:r x2:e x4:e x2:rr"),
        ("x2:e x1:r* x1:r x1:r* x4:a*", "x2:e x1:r* x1:r x1:r* x4:a*"),
        ("x4:c* x1:a x2:e x4:rr* x1:c*", "x4:rr x2:e x1:a* x4:c x1:c*"),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_PARTNERS))
def test_congruent_partner_draws_pinned(gradings, name):
    grading = gradings[name]
    rng = random.Random(2)
    drawn = []
    while len(drawn) < len(PINNED_PARTNERS[name]):
        m = random_monomial(rng, grading, 5)
        if not is_monomial_identity(m, grading):
            partner = congruent_partner(rng, m, grading)
            _assert_replays(derivation_mod_neutral(m, partner, grading), m, partner, grading.group)
            drawn.append((render_word(m, grading.group), render_word(partner, grading.group)))
    assert drawn == PINNED_PARTNERS[name]


def _reference_partner(rng, mono, grading):
    """The rewrite walk drawn from the list of whole rewrites."""
    cur, moved = mono, False
    for _ in range(4):
        steps = list(_rewrites(cur, grading.group))
        if not steps:
            break
        cur = rng.choice(steps)[2]
        moved = True
    return cur if moved else None


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=1, max_value=7))
def test_congruent_partner_draws_as_from_every_rewrite(grading_seed, seed, length):
    """Drawing a neutral factor and starring only it gives the walk, and
    leaves the generator in the state, of drawing from the list of every
    rewrite, identities and off-support letters included."""
    grading = random_grading(random.Random(grading_seed), max_n=4)
    rng = random.Random(seed)
    for _ in range(3):
        mono = random_monomial(rng, grading, length, allow_off_support=True)
        state = rng.getstate()
        partner = congruent_partner(rng, mono, grading)
        after = rng.getstate()
        rng.setstate(state)
        assert _reference_partner(rng, mono, grading) == partner
        assert rng.getstate() == after


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=5))
def test_derivation_steps_replay(seed, length):
    """Each step stars the neutral factor it names in the previous word, and
    the chain runs from the second word to the first in at most 2 len(m1)
    steps: on a rewrite-walk partner, which is congruent by construction,
    and on a congruent shuffle with fresh stars."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=4)
    group = grading.group
    m1 = random_monomial(rng, grading, length)
    if is_monomial_identity(m1, grading):
        return
    walk = congruent_partner(rng, m1, grading)
    if walk is not None:
        assert derivation_mod_neutral(m1, walk, grading) is not None
    for m2 in (walk, shuffled_monomial(rng, m1)):
        if m2 is None or is_monomial_identity(m2, grading):
            continue
        chain = derivation_mod_neutral(m1, m2, grading)
        if chain is not None:
            _assert_replays(chain, m1, m2, group)
            assert len(chain) <= 2 * len(m1)


def _assert_replays(chain, m1, m2, group):
    """Each step stars a neutral factor of the previous word, and the chain
    runs from m2 to m1."""
    word = m2
    for i, j, result in chain:
        assert 0 <= i < j <= len(word) and _block_degree(word[i:j], group) == group.identity
        starred = tuple(GVar(v.index, v.element, not v.star) for v in reversed(word[i:j]))
        word = word[:i] + starred + word[j:]
        assert result == word
    assert word == m1


def _reference_derivation(m1, m2, group):
    """A plain breadth-first search from m2 over GVar tuples, returning
    (i, j, letters) per step: a shortest chain of stars, which no derivation
    can undercut."""
    start, target = m2, m1
    if start == target:
        return []
    parents = {start: None}
    frontier = [start]
    for _ in range(2 * len(m1) + 8):
        nxt = []
        for cur in frontier:
            for i, j, res in _reference_rewrites(cur, group):
                if res in parents:
                    continue
                parents[res] = (cur, i, j)
                if res == target:
                    chain = []
                    while res != start:
                        prev, i, j = parents[res]
                        chain.insert(0, (i, j, res))
                        res = prev
                    return chain
                nxt.append(res)
        if not nxt:
            return None
        frontier = nxt
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=10),
       st.booleans())
def test_derivation_matches_reference_search(seed, length, walk):
    """On rewrite walks and on congruent shuffles with fresh stars, the
    chain replays, takes at most 2 len(m1) steps and is empty exactly when
    the words are equal; up to degree 6 it is never shorter than the chain
    of a plain breadth-first search."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    group = grading.group
    m1 = random_monomial(rng, grading, length)
    if is_monomial_identity(m1, grading):
        return
    if walk:
        m2 = congruent_partner(rng, m1, grading)
    else:
        for _ in range(20):
            letters = list(m1)
            rng.shuffle(letters)
            m2 = tuple([GVar(v.index, v.element, rng.random() < 0.5) for v in letters])
            if (not is_monomial_identity(m2, grading)
                    and congruent_mod_neutral(m1, m2, grading)):
                break
        else:
            m2 = None
    if m2 is None:
        return
    chain = derivation_mod_neutral(m1, m2, grading)
    _assert_replays(chain, m1, m2, group)
    assert len(chain) <= 2 * len(m1)
    assert (chain == []) == (m1 == m2)
    if length <= 6:
        assert len(chain) >= len(_reference_derivation(m1, m2, group))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=8))
def test_derivation_exists_exactly_for_congruent_words(seed, length):
    """A chain comes back exactly when the words are congruent, and every
    chain replays to the first word: on a rewrite-walk partner, which is
    congruent by construction, and on a shuffle with fresh stars, which
    shares the multidegree and often not the evaluation."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    m1 = random_monomial(rng, grading, length)
    if is_monomial_identity(m1, grading):
        return
    for m2 in (congruent_partner(rng, m1, grading), shuffled_monomial(rng, m1)):
        if m2 is None or is_monomial_identity(m2, grading):
            continue
        chain = derivation_mod_neutral(m1, m2, grading)
        assert (chain is not None) == congruent_mod_neutral(m1, m2, grading)
        if chain is not None:
            _assert_replays(chain, m1, m2, grading.group)


# ---------------------------------------------------------------------------
# basis reduction


def test_sandwich_reduces_to_one_cancelling_class(gr_z6, z6):
    f = parse_poly("x1:a x2:a5 x3:a - x3:a x2:a5 x1:a", z6)
    red = basis_reduce(f, gr_z6)
    assert red.is_identity
    assert len(red.classes) == 1
    assert not red.classes[0].total
    assert len(red.classes[0].members) == 2
    assert not red.identity_terms


def test_two_singleton_classes(gr_z2, z2):
    f = parse_poly("x1:a x2:a + x2:a x1:a", z2)
    red = basis_reduce(f, gr_z2)
    assert not red.is_identity
    assert len(red.classes) == 2
    assert all(c.total == 1 for c in red.classes)


def test_monomial_identity_term_is_isolated(gr_z6, z6, mono):
    m = mono("x1:a x2:a x3:a", z6)
    red = basis_reduce(GPolynomial({m: RATIONALS.one}), gr_z6)
    assert red.is_identity
    assert not red.classes
    assert len(red.identity_terms) == 1
    term = red.identity_terms[0]
    assert term.certificate == (0, 3)
    assert red.fully_certified


def test_padded_identity_is_flagged_not_certified(gr_z4, z4, mono):
    # neutral padding defeats the contiguous-subword certificate: the word
    # is an identity, stays in the reduction, and is flagged as uncertified
    m = mono("x1:a x2:e x3:e x4:e x5:a x6:a", z4)
    assert is_monomial_identity(m, gr_z4)
    red = basis_reduce(GPolynomial({m: RATIONALS.one}), gr_z4)
    assert red.is_identity
    assert red.identity_terms[0].certificate is None
    assert not red.fully_certified
    # the block condensation still certifies it against the short basis
    from gstar.identities import block_certificate

    bounds = block_certificate(m, gr_z4)
    assert bounds is not None and len(bounds) - 1 <= 2 * gr_z4.n - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_identity_verdict_is_blind_to_slot_names(seed):
    """Renaming the slots of a polynomial by an injective map keeps its
    identity verdict: a generic evaluation gives each slot its own entry
    variables and no more, so one naming of the slots decides them all."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=4)
    for field in (RATIONALS, PrimeField(5)):
        f = random_multihomogeneous_poly(rng, grading, field,
                                         force_identity=rng.random() < 0.5)
        if f is None:
            continue
        slots = sorted({v.index for m in f.terms for v in m})
        rename = dict(zip(slots, rng.sample(range(1, 20), len(slots))))
        renamed = GPolynomial({tuple(GVar(rename[v.index], v.element, v.star) for v in m): c
                               for m, c in f.terms.items()})
        assert len(renamed.terms) == len(f.terms)
        assert is_identity(renamed, grading, field) == is_identity(f, grading, field)


def test_reduce_needs_no_multihomogeneous_split():
    """A kernel variable (k, a, b) names its letter's (index, element), so
    equal evaluation keys imply equal multidegrees: reducing a sum of
    multi-homogeneous polynomials at once gives the verdict of the generic
    evaluation and of the components together, and exactly the union of
    the components' classes and identity terms."""
    rng = random.Random(2717)
    mixed = 0
    for _ in range(400):
        grading = random_grading(rng, max_n=4)
        f = GPolynomial({})
        for _ in range(rng.randint(1, 4)):
            part = random_multihomogeneous_poly(rng, grading, RATIONALS,
                                                force_identity=rng.random() < 0.5)
            if part is not None:
                f = f + part
        components = multihomogeneous_components(f)
        mixed += len(components) > 1
        red = basis_reduce(f, grading)
        parts = [basis_reduce(c, grading) for c in components]
        assert red.is_identity == is_identity(f, grading)
        assert red.is_identity == all(p.is_identity for p in parts)
        for field in ("classes", "identity_terms"):
            whole = getattr(red, field)
            union = [x for p in parts for x in getattr(p, field)]
            assert len(whole) == len(union) and set(whole) == set(union)
    assert mixed > 200


def test_reduce_zero_polynomial(gr_z2):
    red = basis_reduce(GPolynomial({}), gr_z2)
    assert red.is_identity and not red.classes and not red.identity_terms


def test_reduction_agrees_with_evaluation(gradings):
    rng = random.Random(31)
    for grading in gradings.values():
        produced = 0
        while produced < 25:
            f = random_multihomogeneous_poly(rng, grading, RATIONALS)
            if f is None:
                continue
            produced += 1
            red = basis_reduce(f, grading)
            assert red.is_identity == is_identity(f, grading)


def test_subword_certificate(gr_z6, z6, mono):
    m = mono("x1:a x2:a x3:a x4:a", z6)
    assert subword_identity_certificate(m, gr_z6) == (0, 3)
    alive = mono("x1:a x2:a", z6)
    assert subword_identity_certificate(alive, gr_z6) is None
    single = mono("x1:a3", z6)
    assert subword_identity_certificate(single, gr_z6) == (0, 1)


# ---------------------------------------------------------------------------
# basis verification


def test_verify_basis_z2(gr_z2):
    report = verify_basis(gr_z2)
    assert report["pass"]
    assert report["off-support"]["cases"] == []


def test_verify_basis_z6(gr_z6):
    report = verify_basis(gr_z6)
    assert report["pass"]
    off = {c["element"] for c in report["off-support"]["cases"]}
    assert off == {"a3"}
    # every family reports its cases in one shape
    assert report["neutral-star"] == {"pass": True, "cases": [{"element": "e", "pass": True}]}
    assert [c["element"] for c in report["sandwich"]["cases"]] == ["a", "a2", "a4", "a5"]


def test_verify_basis_s3(gradings):
    for name in ("S3:(e,r,rr)", "S3:(e,r,a)"):
        assert verify_basis(gradings[name])["pass"]


# The basis texts per grading: the neutral commutator, the star relation,
# each off-support variable, and the sandwich of each non-neutral support
# element around its inverse.
BASIS_TEXTS = {
    "Z6:(e,a,a2)": [
        ("neutral-commutator", "e", "x1:e x2:e - x2:e x1:e"),
        ("neutral-star", "e", "x1:e - x1:e*"),
        ("off-support", "a3", "x1:a3"),
        ("sandwich", "a", "x1:a x2:a5 x3:a - x3:a x2:a5 x1:a"),
        ("sandwich", "a2", "x1:a2 x2:a4 x3:a2 - x3:a2 x2:a4 x1:a2"),
        ("sandwich", "a4", "x1:a4 x2:a2 x3:a4 - x3:a4 x2:a2 x1:a4"),
        ("sandwich", "a5", "x1:a5 x2:a x3:a5 - x3:a5 x2:a x1:a5"),
    ],
    "Klein:(e,a,b)": [
        ("neutral-commutator", "e", "x1:e x2:e - x2:e x1:e"),
        ("neutral-star", "e", "x1:e - x1:e*"),
        ("sandwich", "a", "x1:a x2:a x3:a - x3:a x2:a x1:a"),
        ("sandwich", "b", "x1:b x2:b x3:b - x3:b x2:b x1:b"),
        ("sandwich", "c", "x1:c x2:c x3:c - x3:c x2:c x1:c"),
    ],
    "S3:(e,r,a)": [
        ("neutral-commutator", "e", "x1:e x2:e - x2:e x1:e"),
        ("neutral-star", "e", "x1:e - x1:e*"),
        ("off-support", "b", "x1:b"),
        ("sandwich", "r", "x1:r x2:rr x3:r - x3:r x2:rr x1:r"),
        ("sandwich", "rr", "x1:rr x2:r x3:rr - x3:rr x2:r x1:rr"),
        ("sandwich", "a", "x1:a x2:a x3:a - x3:a x2:a x1:a"),
        ("sandwich", "c", "x1:c x2:c x3:c - x3:c x2:c x1:c"),
    ],
}


@pytest.mark.parametrize("name", sorted(BASIS_TEXTS))
@pytest.mark.parametrize("field", [RATIONALS, PrimeField(5)], ids=["q", "modp:5"])
def test_basis_polynomials_list_the_four_families_in_order(gradings, name, field):
    grading = gradings[name]
    assert BASIS_FAMILIES == ("neutral-commutator", "neutral-star", "off-support", "sandwich")
    assert basis_polynomials(grading, field) == [
        (family, element, parse_poly(text, grading.group, field))
        for family, element, text in BASIS_TEXTS[name]
    ]


# ---------------------------------------------------------------------------
# enumeration


def test_crossed_product_has_no_monomial_identities(gr_z2):
    assert enumerate_monomial_identities(gr_z2, 3) == []


def test_z6_degree_one(gr_z6, z6):
    words = enumerate_monomial_identities(gr_z6, 1)
    assert words == [(GVar(1, z6.index_of("a3"), False),)]


def test_z6_minimal_includes_cubed_letter(gr_z6, z6):
    words = enumerate_monomial_identities(gr_z6, 3, minimal_only=True)
    assert letters(z6, "a a a") in words
    assert letters(z6, "a3") in words
    # minimality: no listed word contains a proper dead subword
    for w in words:
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                if (i, j) != (0, len(w)) and len(w) > 1:
                    sub = w[i:j]
                    if all(x.element in gr_z6.support for x in sub):
                        assert not gr_z6.compose_signed(sub).is_empty


def test_z4_no_identities_below_degree_three(gr_z4):
    assert enumerate_monomial_identities(gr_z4, 2) == []
    words3 = enumerate_monomial_identities(gr_z4, 3, minimal_only=True)
    assert words3, "the three-step ladder word must appear"


def test_enumeration_is_sorted_and_full_mode_supersets_minimal(gr_z6):
    full = enumerate_monomial_identities(gr_z6, 3)
    minimal = enumerate_monomial_identities(gr_z6, 3, minimal_only=True)
    assert set(minimal) <= set(full)
    keys = [(len(w), [(l.element, l.star) for l in w]) for w in full]
    assert keys == sorted(keys)
    for w in full:
        if all(l.element in gr_z6.support for l in w):
            assert gr_z6.compose_signed(w).is_empty


def test_enumeration_degree_cap():
    from gstar.sampling import standard_gradings

    grading = standard_gradings()["Z6:(e,a,a2)"]
    with pytest.raises(ResourceCapError):
        enumerate_monomial_identities(grading, 13)
    with pytest.raises(PreconditionError):
        enumerate_monomial_identities(grading, 0)


def test_minimal_probe_agrees_with_enumeration(gr_z6):
    probe = minimal_identities_up_to(gr_z6, 3)
    listed = enumerate_monomial_identities(gr_z6, 3, minimal_only=True)
    # the probe returns one representative per profile; every probe word is
    # minimal, and the probe finds the same set of lengths
    assert set(probe) <= set(listed)
    assert {len(w) for w in probe} == {len(w) for w in listed}


# ---------------------------------------------------------------------------
# index-free reduction of verdicts


def test_components_then_reduce_matches_direct(gr_klein, klein):
    f = parse_poly("x1:a x2:b - x2:b x1:a + x1:e x2:e - x2:e x1:e", klein)
    comps = multihomogeneous_components(f)
    assert len(comps) == 2
    verdicts = [basis_reduce(c, gr_klein).is_identity for c in comps]
    assert verdicts == [is_identity(c, gr_klein) for c in comps]
    assert evaluate(f, gr_klein).is_zero == all(verdicts)


def test_enumeration_node_budget_caps_both_listings(gr_z6):
    for minimal in (False, True):
        assert enumerate_monomial_identities(gr_z6, 4, minimal_only=minimal)
        with pytest.raises(ResourceCapError):
            enumerate_monomial_identities(gr_z6, 4, minimal_only=minimal, node_budget=20)


def test_profile_search_state_budget(gr_z6):
    assert minimal_identities_up_to(gr_z6, 6)
    with pytest.raises(ResourceCapError):
        minimal_identities_up_to(gr_z6, 6, state_budget=10)


@pytest.mark.parametrize("degree", [0, -1])
def test_searches_refuse_degree_below_one(gr_z6, degree):
    # z6_3tuple has the off-support identity x1:a3, which a search that
    # skipped the check would return for any degree
    for search in (minimal_identities_up_to, IdentityListing):
        with pytest.raises(PreconditionError, match="max_degree must be at least 1"):
            search(gr_z6, degree)


def _suffix_set_moves(profile, alphabet, graph):
    """The moves of the earlier profile, kept as an independent reference:
    (full state, frozenset of the states of every proper suffix), with
    suffixes None for the empty word.  A letter is kept when it leaves
    every proper suffix alive."""
    full, suffixes = profile
    if full == graph.empty:
        return []
    moves = []
    for letter, col in alphabet:
        if suffixes is None:
            new = frozenset()
        else:
            new = frozenset([graph.step[0][col]] + [graph.step[s][col] for s in suffixes])
            if graph.empty in new:
                continue
        moves.append((letter, (graph.step[full][col], new)))
    return moves


def _suffix_set_counts(grading, max_degree):
    """Minimal identities per length up to max_degree, counted forward over
    suffix-set profiles, plus the off-support letters at length 1."""
    graph = grading.composition_graph
    alphabet = [(pair, signed_degree(*pair, grading.group)) for pair in grading.signed_alphabet()]
    level, lengths = {(0, None): 1}, []
    for _ in range(max_degree):
        nxt, done = {}, 0
        for profile, words in level.items():
            for _, new in _suffix_set_moves(profile, alphabet, graph):
                if new[0] == graph.empty:
                    done += words
                else:
                    nxt[new] = nxt.get(new, 0) + words
        lengths.append(done)
        level = nxt
    lengths[0] += len(grading.off_support())
    return lengths


# the reference degree: 2(2n-1) within the listing's cap, less on the two
# largest gradings, whose suffix sets grow fastest
REFERENCE_DEGREES = {"z8_4tuple": 10, "z10_5tuple": 7}


@pytest.mark.parametrize(
    "path", sorted(CONFIGS.glob("*.json")) + sorted((BENCH / "configs").glob("*.json")),
    ids=lambda path: path.stem,
)
def test_minimal_counts_match_suffix_set_reference(path):
    grading = grading_from_json(json.loads(path.read_text(encoding="utf-8")))
    degree = REFERENCE_DEGREES.get(path.stem, min(2 * (2 * grading.n - 1), ENUM_DEGREE_CAP))
    listing = IdentityListing(grading, degree, minimal_only=True, node_budget=10**9)
    assert listing.lengths == _suffix_set_counts(grading, degree)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=6))
def test_minimal_counts_match_suffix_set_reference_on_random_gradings(seed, max_degree):
    grading = random_grading(random.Random(seed), max_n=4)
    listing = IdentityListing(grading, max_degree, minimal_only=True, node_budget=10**9)
    assert listing.lengths == _suffix_set_counts(grading, max_degree)


def _z64_grading():
    """Z64 with 32 entries: about 10^5 reachable compositions of hat maps."""
    rng = random.Random(7)
    return build_grading(make_cyclic(64), tuple(sorted(rng.sample(range(64), 32))))


def test_large_grading_low_degree_within_budget():
    # a low-degree search expands only the compositions it steps through
    # (here at most 2 + 64 + 64 * 64 states), so a small budget answers it
    for minimal in (False, True):
        grading = _z64_grading()
        words = enumerate_monomial_identities(grading, 2, minimal_only=minimal, node_budget=20_000)
        assert words == _reference_identities(grading, 2, minimal)
        assert len(grading.composition_graph.states) <= 2 + 64 + 64 * 64
    grading = _z64_grading()
    assert minimal_identities_up_to(grading, 2, state_budget=20_000) == words
    assert len(grading.composition_graph.states) <= 2 + 64 + 64 * 64


def test_large_grading_charges_graph_states():
    # every composition state a search interns is charged: a capped search
    # stops within one expansion of the budget (an expansion of a word of
    # length k reads at most k + 1 rows of 64 states; k < 8 here), whatever
    # the size of the whole graph
    budget, slack = 20_000, 8 * 64
    for minimal in (False, True):
        grading = _z64_grading()
        with pytest.raises(ResourceCapError):
            enumerate_monomial_identities(grading, 6, minimal_only=minimal, node_budget=budget)
        assert len(grading.composition_graph.states) <= budget + slack
    grading = _z64_grading()
    with pytest.raises(ResourceCapError):
        minimal_identities_up_to(grading, 2 * (2 * 32 - 1), state_budget=budget)
    assert len(grading.composition_graph.states) <= budget + slack


def _moves_kept(grading, max_degree, minimal):
    """Moves the listing holds: the alphabet's moves from every node (state,
    or the profile (word state, tail state) for minimal words) that it
    reaches in fewer than max_degree letters."""
    graph = grading.composition_graph
    alphabet = [(pair, signed_degree(*pair, grading.group)) for pair in grading.signed_alphabet()]
    if minimal:
        moves = lambda node: [new for _, new in _profile_moves(node, alphabet, graph)]
        level = {(0, None)}
    else:
        moves = lambda node: [graph.step[node][col] for _, col in alphabet]
        level = {0}
    seen = set(level)
    for _ in range(max_degree - 1):
        level = {new for node in level for new in moves(node)} - seen
        seen |= level
    return sum(len(moves(node)) for node in seen)


def test_listing_budget_counts_moves_and_graph_states():
    # the budget covers at least every move kept and every composition
    # state added to the graph: a budget one short of their sum refuses
    for minimal in (False, True):
        grading = _z64_grading()
        enumerate_monomial_identities(grading, 2, minimal_only=minimal)
        added = len(grading.composition_graph.states) - 2
        kept = _moves_kept(_z64_grading(), 2, minimal)
        with pytest.raises(ResourceCapError):
            enumerate_monomial_identities(
                _z64_grading(), 2, minimal_only=minimal, node_budget=kept + added - 1
            )


def _reference_identities(grading, max_degree, minimal):
    """Every identity word by brute force over the signed support alphabet,
    decided by composing hat maps, plus the off-support letters."""
    words = [(GVar(1, g, False),) for g in grading.off_support()]
    for length in range(1, max_degree + 1):
        for pairs in itertools.product(grading.signed_alphabet(), repeat=length):
            word = tuple(GVar(p, *pair) for p, pair in enumerate(pairs, 1))
            if not grading.compose_signed(word).is_empty:
                continue
            if minimal and any(
                grading.compose_signed(word[i:j]).is_empty
                for i in range(length)
                for j in range(i + 1, length + 1)
                if j - i < length
            ):
                continue
            words.append(word)
    return sorted(words, key=GPolynomial.order)


def _block_degree(block, group):
    degree = group.identity
    for se in block:
        degree = group.mul(degree, group.inv(se.element) if se.star else se.element)
    return degree


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=4))
def test_listings_match_brute_force(seed, max_degree):
    """Both listings equal a brute-force filter of all words, in order; the
    profile search finds minimal words of the same lengths, each with a
    short block certificate whose condensed word is an identity."""
    grading = random_grading(random.Random(seed), max_n=5)
    if grading.n == 5:
        max_degree = min(max_degree, 3)
    for minimal in (False, True):
        expected = _reference_identities(grading, max_degree, minimal)
        assert enumerate_monomial_identities(grading, max_degree, minimal_only=minimal) == expected
    minimal_words = set(expected)
    probe = minimal_identities_up_to(grading, max_degree)
    assert set(probe) <= minimal_words
    assert {len(w) for w in probe} == {len(w) for w in minimal_words}
    group = grading.group
    for word in probe:
        bounds = block_certificate(word_monomial(word), grading)
        assert bounds is not None and len(bounds) - 1 <= 2 * grading.n - 1
        condensed = [
            (p, _block_degree(word[lo:hi], group), False)
            for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1)
        ]
        assert grading.compose_signed(condensed).is_empty


def _bench_probe_lengths(monkeypatch) -> dict:
    """``PINNED_PROBE_LENGTHS`` of bench/gen.py, keyed by config file stem."""
    monkeypatch.syspath_prepend(str(BENCH))  # gen imports the bench oracle
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return {Path(gen.GRADINGS[name]).stem: lengths
            for name, lengths in gen.PINNED_PROBE_LENGTHS.items()}


# sha256 of the profile-search words up to 2(2n-1) and the block certificate
# of each word longer than 2n-1, as JSON rows [[letter names], bounds|null]
GOLDEN_PROBES = {
    "z4_3tuple": "5fc0a8a8404d9c90699dda94390c3c98da0375b34f8dbc5fd06265ff0c7d9323",
    "klein": "9627bac6932cd01b4d53e369c41cf4d7579270add9ece0af77ec2a402fcb6326",
    "z6_3tuple": "7f85b09235a241b7a9572b0a086f1f12be9e0a805a03ea2510c381582cbb9ed2",
    "s3_mixed": "36a3b8d05d4e4a87024b157a5c61d0116271754c61d8faf3babc36505a52b17b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROBES))
def test_degree_bound_probe_pinned(name, monkeypatch):
    # every word is checked by honest products before its hash is compared:
    # an identity whose factors without the first or the last letter are
    # not, found at exactly the lengths the benchmark pins
    with open(CONFIGS / f"{name}.json", encoding="utf-8") as fh:
        grading = grading_from_json(json.load(fh))
    bound = 2 * grading.n - 1
    words = minimal_identities_up_to(grading, 2 * bound)
    rows = []
    for word in words:
        assert honest_product(word_monomial(word), grading).is_zero
        for factor in (word[1:], word[:-1]):
            assert not factor or not honest_product(word_monomial(factor), grading).is_zero
        cert = block_certificate(word_monomial(word), grading) if len(word) > bound else None
        names = [grading.group.name_of(element) + ("*" if star else "")
                 for _, element, star in word]
        rows.append([names, list(cert) if cert else None])
    assert sorted({len(w) for w in words}) == _bench_probe_lengths(monkeypatch)[name]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_PROBES[name]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(["q", "modp:5"]))
def test_reduce_classes_are_the_evaluation_key_partition(seed, ring):
    """basis_reduce keys a term by the first row of its evaluation alone;
    its classes are the partition of the non-identity terms by the whole
    evaluation key, and its identity terms the terms whose key is empty."""
    field = RATIONALS if ring == "q" else PrimeField(5)
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    f = GPolynomial({})
    for _ in range(rng.randint(1, 3)):
        part = random_multihomogeneous_poly(rng, grading, field,
                                            force_identity=rng.random() < 0.5)
        if part is not None:
            f = f + part
    by_key: dict = {}
    for mono in f.terms:
        by_key.setdefault(evaluation_key(mono, grading), set()).add(mono)
    red = basis_reduce(f, grading)
    assert {t.monomial for t in red.identity_terms} == by_key.pop((), set())
    classes = [frozenset(m for m, _ in c.members) for c in red.classes]
    assert len(classes) == len(by_key)
    firsts = [c.members[0][0] for c in red.classes]
    assert firsts == sorted(firsts, key=GPolynomial.order)
    assert set(classes) == {frozenset(members) for members in by_key.values()}
