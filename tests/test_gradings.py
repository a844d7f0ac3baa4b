import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstar import (
    GradingError,
    GVar,
    PartialInjection,
    PreconditionError,
    basis_reduce,
    build_grading,
    congruent_mod_neutral,
    derivation_mod_neutral,
    evaluate,
    evaluate_monomial,
    evaluation_key,
    generic_matrix_signed,
    grading_from_json,
    honest_product,
    is_monomial_identity,
    iter_rows,
    make_cyclic,
    subword_identity_certificate,
)
from gstar.freealg import GPolynomial
from gstar.gradings import signed_degree
from gstar.identities import block_certificate
from gstar.reference import unit_degree
from gstar.sampling import random_grading

import random


def scan_support(group, entries):
    """Independent oracle: brute-force scan of all label quotients."""
    return {
        group.mul(group.inv(gi), gj) for gi in entries for gj in entries
    }


def test_full_tuple_support(gr_z2, z2):
    assert gr_z2.support == frozenset(z2.elements())


def test_z6_support_matches_scan(gr_z6, z6):
    entries = [z6.index_of(x) for x in ("e", "a", "a2")]
    assert gr_z6.support == frozenset(scan_support(z6, entries))
    assert z6.index_of("a3") not in gr_z6.support
    assert len(gr_z6.support) == 5


def test_repeated_tuple_rejected(z2):
    with pytest.raises(GradingError, match="distinct"):
        build_grading(z2, ["e", "e"])


def test_empty_tuple_rejected(z2):
    with pytest.raises(GradingError, match="nonempty"):
        build_grading(z2, [])


def test_degree_of_unit(gr_z2, gr_z6, z2, z6):
    assert unit_degree(gr_z2, 0, 1) == z2.index_of("a")
    for i in range(gr_z6.n):
        assert unit_degree(gr_z6, i, i) == z6.identity
    assert unit_degree(gr_z6, 2, 0) == z6.index_of("a4")
    with pytest.raises(PreconditionError):
        unit_degree(gr_z6, 0, 3)


def test_d_and_im_sets(gr_z2, gr_z6, z2, z6):
    a = z2.index_of("a")
    assert gr_z2.hat(a).domain() == (0, 1)
    a6 = z6.index_of("a")
    assert gr_z6.hat(a6).domain() == (0, 1)
    assert gr_z6.hat(a6).image() == (1, 2)
    assert gr_z6.hat(z6.index_of("a3")).domain() == ()


def test_hat_maps(gr_z2, gr_z6, z2, z6):
    assert gr_z2.hat(z2.index_of("a")).as_dict() == {0: 1, 1: 0}
    a = z6.index_of("a")
    assert gr_z6.hat(a).as_dict() == {0: 1, 1: 2}
    assert gr_z6.hat(z6.index_of("a5")) == gr_z6.hat(a).inverse()
    assert gr_z6.hat(z6.identity) == PartialInjection.identity(3)


def test_hat_signed(gr_z2, gr_z6, z2, z6):
    # a one-letter word composes to hat(g) for g, to hat(g^{-1}) for g*
    a = z2.index_of("a")
    assert gr_z2.compose_signed([(1, a, False)]).as_dict() == {0: 1, 1: 0}
    a6 = z6.index_of("a")
    assert gr_z6.compose_signed([(1, a6, True)]).as_dict() == {1: 0, 2: 1}
    assert gr_z6.compose_signed([(1, z6.identity, True)]) == PartialInjection.identity(3)


def test_compose_signed(gr_z6, z6):
    a = z6.index_of("a")
    assert gr_z6.compose_signed([(1, a, False), (2, a, False)]).as_dict() == {0: 2}
    assert gr_z6.compose_signed([(1, a, False), (2, a, False), (3, a, False)]).is_empty
    with pytest.raises(PreconditionError):
        gr_z6.compose_signed([])


@pytest.mark.parametrize("star", [False, True], ids=["plain", "starred"])
@pytest.mark.parametrize("element", [-1, 6], ids=["minus-one", "order"])
def test_letters_outside_the_group_rejected(gr_z6, z6, element, star):
    # the hat maps and the reference's row steps sit in sequences indexed by
    # element, where -1 would silently read the last one; each entry point,
    # the oracle's included, must refuse it instead
    live = (GVar(1, z6.identity),)
    with pytest.raises(GradingError):
        generic_matrix_signed(GVar(1, element, star), gr_z6)
    for word in ((GVar(1, element, star),), (GVar(1, z6.identity), GVar(2, element, star))):
        with pytest.raises(GradingError):
            gr_z6.compose_signed(word)
        with pytest.raises(GradingError):
            honest_product(word, gr_z6)
        with pytest.raises(GradingError):
            evaluate_monomial(word, gr_z6)
        with pytest.raises(GradingError):
            evaluate(GPolynomial({word: 1}), gr_z6)
        with pytest.raises(GradingError):
            subword_identity_certificate(word, gr_z6)
        with pytest.raises(GradingError):
            block_certificate(word, gr_z6)
        with pytest.raises(GradingError):
            is_monomial_identity(word, gr_z6)
        with pytest.raises(GradingError):
            basis_reduce(GPolynomial({word: 1}), gr_z6)
        # the walk of either word of a pair range-checks it
        for pair in ((word, live), (live, word)):
            with pytest.raises(GradingError):
                congruent_mod_neutral(*pair, gr_z6)
            with pytest.raises(GradingError):
                derivation_mod_neutral(*pair, gr_z6)


@pytest.mark.parametrize("star", [False, True], ids=["plain", "starred"])
@pytest.mark.parametrize("element", [-1, 6, 99], ids=["minus-one", "order", "99"])
def test_letters_after_a_dead_walk_rejected(gr_z6, z6, element, star):
    # a a a kills every row of Z6 (e, a, a2), so the fourth letter is never
    # walked; it must still be range-checked
    a = z6.index_of("a")
    mono = (GVar(1, a), GVar(2, a), GVar(3, a), GVar(4, element, star))
    with pytest.raises(GradingError):
        evaluate_monomial(mono, gr_z6)
    with pytest.raises(GradingError):
        evaluate(GPolynomial({mono: 1}), gr_z6)
    with pytest.raises(GradingError):
        evaluation_key(mono, gr_z6)
    with pytest.raises(GradingError):
        honest_product(mono, gr_z6)
    with pytest.raises(GradingError):
        is_monomial_identity(mono, gr_z6)
    with pytest.raises(GradingError):
        basis_reduce(GPolynomial({mono: 1}), gr_z6)
    live = (GVar(1, z6.identity),)
    for pair in ((mono, live), (live, mono)):
        with pytest.raises(GradingError):
            congruent_mod_neutral(*pair, gr_z6)
        with pytest.raises(GradingError):
            derivation_mod_neutral(*pair, gr_z6)
    alive = (GVar(1, a), GVar(2, a), GVar(3, a), GVar(4, a, star))
    assert evaluation_key(alive, gr_z6) == ()


def test_compose_plain_then_star_restricts_identity(gradings):
    for grading in gradings.values():
        for g in grading.support_sorted():
            word = [(1, g, False), (2, g, True)]
            composed = gr = grading.compose_signed(word)
            assert gr.domain() == grading.hat(g).domain()
            for i in gr.domain():
                assert composed(i) == i


def test_hat_laws_exhaustive(gradings):
    for grading in gradings.values():
        group = grading.group
        labels = grading.defining_tuple
        for g in grading.support_sorted():
            h = grading.hat(g)
            # the domain and image by definition from the defining tuple
            assert set(h.domain()) == {
                i for i, gi in enumerate(labels) if group.mul(gi, g) in labels
            }
            assert set(h.image()) == {
                j for j, gj in enumerate(labels) if group.mul(gj, group.inv(g)) in labels
            }
            assert len(h.domain()) == len(h.image())
            assert grading.hat(group.inv(g)) == h.inverse()
        for g in grading.off_support():
            assert grading.hat(g).is_empty
        # a shared value at a shared point forces equal elements
        for g in grading.support_sorted():
            for h in grading.support_sorted():
                if g == h:
                    continue
                hg, hh = grading.hat(g), grading.hat(h)
                for i in range(grading.n):
                    if hg(i) is not None:
                        assert hg(i) != hh(i)
        # composition embeds into the hat of the product
        for g in grading.support_sorted():
            for h in grading.support_sorted():
                comp = grading.hat(g).then(grading.hat(h))
                target = grading.hat(group.mul(g, h))
                for i in comp.domain():
                    assert target(i) == comp(i)


def test_partial_injection_basics():
    p = PartialInjection([2, None, 1])
    assert p.domain() == (0, 2)
    assert p.image() == (1, 2)
    assert p.inverse().as_dict() == {2: 0, 1: 2}
    assert p.then(p.inverse()).as_dict() == {0: 0, 2: 2}
    with pytest.raises(PreconditionError):
        PartialInjection([0, 0])
    with pytest.raises(PreconditionError):
        PartialInjection([3])


def test_grading_from_json(z6):
    gr = grading_from_json({"group": {"cyclic": 6}, "tuple": ["e", "a", "a2"]})
    assert gr.n == 3
    assert len(gr.support) == 5
    with pytest.raises(GradingError):
        grading_from_json({"group": {"cyclic": 6}})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_grading_invariants(seed):
    grading = random_grading(random.Random(seed))
    group = grading.group
    # support is closed under inversion and contains the identity
    assert group.identity in grading.support
    for g in grading.support:
        assert group.inv(g) in grading.support
    support_oracle = {
        group.mul(group.inv(gi), gj)
        for gi in grading.defining_tuple
        for gj in grading.defining_tuple
    }
    assert grading.support == frozenset(support_oracle)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_composition_splits_at_any_cut(seed, length):
    # the composition of a word equals the composition of any prefix
    # followed by the composition of the matching suffix
    rng = random.Random(seed)
    grading = random_grading(rng)
    word = [
        (p, rng.choice(grading.support_sorted()), rng.random() < 0.5)
        for p in range(1, length + 1)
    ]
    full = grading.compose_signed(word)
    for cut in range(1, length):
        left = grading.compose_signed(word[:cut])
        right = grading.compose_signed(word[cut:])
        assert left.then(right) == full


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_composition_graph_walk_matches_compose_signed(seed, length):
    # walking the interned graph along the letters' degree columns lands on
    # the state whose target tuple is the composed hat map; the reference
    # folds PartialInjection.then, since compose_signed walks the graph too
    rng = random.Random(seed)
    grading = random_grading(rng)
    group = grading.group
    graph = grading.composition_graph
    empty = (None,) * grading.n
    assert graph.states == [tuple(range(grading.n)), empty]
    assert graph.states[graph.empty] == empty
    word = [
        (p, rng.randrange(group.order), rng.random() < 0.5) for p in range(1, length + 1)
    ]
    degrees = [signed_degree(element, star, group) for _, element, star in word]
    state = 0
    for degree in degrees:
        state = graph.step[state][degree]
    reference = grading.hat(degrees[0])
    for degree in degrees[1:]:
        reference = reference.then(grading.hat(degree))
    assert graph.states[state] == reference.targets
    # the composition is empty exactly when the word kernel keeps no row
    dead = next(iter_rows(word, grading), None) is None
    assert grading.compose_signed(word).is_empty == dead
    assert len(set(graph.states)) == len(graph.states)
    assert graph.step[graph.empty] == (graph.empty,) * group.order


def test_composition_graph_expands_only_what_is_read():
    # Z64 with 32 entries reaches about 10^5 compositions; stepping from
    # the identity composes one row and interns at most one state per column
    rng = random.Random(7)
    grading = build_grading(make_cyclic(64), tuple(sorted(rng.sample(range(64), 32))))
    graph = grading.composition_graph
    row = graph.step[0]
    assert len(graph.step) == 1
    assert len(graph.states) == len(set(row) | {0, graph.empty}) <= 2 + 64
    assert [graph.states[s] for s in row] == [grading.hat(g).targets for g in range(64)]
