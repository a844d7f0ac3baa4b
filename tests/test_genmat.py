import functools
import gc
import operator
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstar import (
    CPolynomial,
    GVar,
    PreconditionError,
    SparseMatrix,
    basis_reduce,
    build_grading,
    closed_form_product,
    evaluate,
    evaluate_monomial,
    generic_matrix_signed,
    honest_product,
    is_monomial_identity,
    make_cyclic,
    render_entry_monomial,
)
from gstar import genmat, reference
from gstar.errors import ShapeError
from gstar.genmat import evaluation_key, iter_rows
from gstar.gradings import Grading
from gstar.reference import row_steps, unit_degree, unit_product
from gstar.rings import RATIONALS, Fp, PrimeField
from gstar.sampling import random_grading, random_multihomogeneous_poly, random_slotted_word


def var_poly(slot, row, col, one=None):
    return CPolynomial({((slot, row, col),): one or RATIONALS.one})


# ---------------------------------------------------------------------------
# ring and matrix plumbing


def test_cpolynomial_ring_laws():
    one = RATIONALS.one
    p = var_poly(1, 0, 1) + var_poly(2, 1, 0) * CPolynomial({(): one * 2})
    q = var_poly(1, 0, 1) - var_poly(3, 0, 0)
    assert p + q == q + p
    assert (p + q) - q == p
    assert p * q == q * p
    assert not (p - p)
    assert (p * q) * CPolynomial({(): -one}) == p * (-q)


def test_matrix_identity_and_transpose_laws():
    rng = random.Random(5)
    n = 3
    one = RATIONALS.one
    ident = SparseMatrix(n, {(i, i): CPolynomial({(): one}) for i in range(n)})

    def rand_matrix(slot):
        entries = {}
        for _ in range(4):
            r, c = rng.randrange(n), rng.randrange(n)
            entries[(r, c)] = var_poly(slot, r, c)
        return SparseMatrix(n, entries)

    for k in range(5):
        a, b = rand_matrix(2 * k + 1), rand_matrix(2 * k + 2)
        assert a @ ident == a
        assert ident @ a == a
        assert a.transpose().transpose() == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_matrix_shape_mismatch():
    with pytest.raises(ShapeError):
        SparseMatrix(2, {}) @ SparseMatrix(3, {})


def test_cmonomial_render_groups_powers():
    m = ((1, 0, 1), (1, 0, 1), (2, 1, 0))
    assert render_entry_monomial(m) == "y[1,0,1]^2*y[2,1,0]"


# ---------------------------------------------------------------------------
# generic matrices


def test_generic_matrix_z2(gr_z2, z2):
    a = z2.index_of("a")
    m = generic_matrix_signed(GVar(1, a), gr_z2)
    assert m.nonzero_items() == [
        ((0, 1), var_poly(1, 0, 1)),
        ((1, 0), var_poly(1, 1, 0)),
    ]


def test_generic_matrix_neutral_is_diagonal(gradings):
    for grading in gradings.values():
        m = generic_matrix_signed(GVar(1, grading.group.identity), grading)
        assert set(m.entries) == {(i, i) for i in range(grading.n)}


def test_generic_matrix_off_support_is_zero(gr_z6, z6):
    assert generic_matrix_signed(GVar(1, z6.index_of("a3")), gr_z6).is_zero


def test_star_matrix_z2(gr_z2, z2):
    a = z2.index_of("a")
    m = generic_matrix_signed((1, a, True), gr_z2)
    assert m.nonzero_items() == [
        ((0, 1), var_poly(1, 1, 0)),
        ((1, 0), var_poly(1, 0, 1)),
    ]


def test_star_matrix_is_transpose_everywhere():
    # the starred matrix is built by transposing the plain pattern of g; it
    # must sit on the pattern of g^-1, row i carrying y[3, hat(g^-1)(i), i]
    rng = random.Random(11)
    for _ in range(25):
        grading = random_grading(rng)
        for g in grading.support_sorted():
            starred = generic_matrix_signed(GVar(3, g, True), grading)
            assert starred == generic_matrix_signed(GVar(3, g), grading).transpose()
            ginv = grading.hat(grading.group.inv(g))
            assert starred == SparseMatrix(grading.n, {
                (i, ginv(i)): var_poly(3, ginv(i), i) for i in ginv.domain()
            })


def test_star_matrix_neutral_fixed(gradings):
    for grading in gradings.values():
        e = grading.group.identity
        assert generic_matrix_signed(GVar(2, e, True), grading) == generic_matrix_signed(
            GVar(2, e), grading)


def test_entry_count_matches_pattern_size(gradings):
    for grading in gradings.values():
        for g in grading.support_sorted():
            m = generic_matrix_signed(GVar(1, g), grading)
            assert len(m.entries) == len(grading.hat(g).domain())
            for pos, p in m.entries.items():
                ((mono, coeff),) = p.terms_sorted()
                assert coeff == 1 and len(mono) == 1


def test_each_variable_belongs_to_one_element(gradings):
    # a given (row, col) pair occurs in the pattern of exactly one element
    for grading in gradings.values():
        seen = {}
        for g in grading.support_sorted():
            for i in grading.hat(g).domain():
                pos = (i, grading.hat(g)(i))
                assert pos not in seen, f"{pos} hosted by two elements"
                seen[pos] = g
        assert len(seen) == sum(len(grading.hat(g).domain()) for g in grading.support)


# ---------------------------------------------------------------------------
# the closed-form product


def test_closed_form_z2(gr_z2, z2):
    a = z2.index_of("a")
    m = closed_form_product([GVar(1, a), GVar(2, a)], gr_z2)
    expected = SparseMatrix(
        2,
        {
            (0, 0): CPolynomial({((1, 0, 1), (2, 1, 0)): RATIONALS.one}),
            (1, 1): CPolynomial({((1, 1, 0), (2, 0, 1)): RATIONALS.one}),
        },
    )
    assert m == expected


def test_closed_form_dead_word_is_zero(gr_z6, z6):
    a = z6.index_of("a")
    assert closed_form_product([GVar(1, a), GVar(2, a), GVar(3, a)], gr_z6).is_zero


def test_closed_form_single_letter(gr_z6, z6):
    e = GVar(1, z6.identity)
    assert closed_form_product([e], gr_z6) == generic_matrix_signed(e, gr_z6)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_closed_form_matches_matmul(seed):
    rng = random.Random(seed)
    grading = random_grading(rng)
    word = random_slotted_word(rng, grading, rng.randint(1, 8), repeat_slots=rng.random() < 0.3)
    closed = closed_form_product(word, grading)
    assert closed == honest_product(word, grading)
    rows = [r for r, _ in closed.entries]
    assert len(rows) == len(set(rows))


def test_closed_form_matches_matmul_modp():
    rng = random.Random(20240817)
    field = PrimeField(5)
    for _ in range(40):
        grading = random_grading(rng)
        word = random_slotted_word(rng, grading, rng.randint(1, 6))
        assert closed_form_product(word, grading, field) == honest_product(word, grading, field)


def test_product_entries_are_homogeneous():
    rng = random.Random(99)
    for _ in range(50):
        grading = random_grading(rng)
        group = grading.group
        word = random_slotted_word(rng, grading, rng.randint(1, 6))
        deg = group.identity
        for _slot, element, star in word:
            d = group.inv(element) if star else element
            deg = group.mul(deg, d)
        product = closed_form_product(word, grading)
        for (r, c), _p in product.entries.items():
            assert unit_degree(grading, r, c) == deg


# ---------------------------------------------------------------------------
# the word kernel against the honest product


def surviving_word(rng, grading, length):
    """A slotted word of mostly neutral letters that keeps the walk from one
    random row alive, so that its generic product is nonzero."""
    group = grading.group
    row = rng.randrange(grading.n)
    word = []
    for _ in range(length):
        element, star = group.identity, rng.random() < 0.5
        if rng.random() < 0.3:
            g, g_star = rng.randrange(group.order), rng.random() < 0.5
            col = grading.hats[group.inv(g) if g_star else g][row]
            if col is not None:
                element, star, row = g, g_star, col
        word.append(GVar(rng.randint(1, 6), element, star))
    return word


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(["q", "modp:5"]),
       st.sampled_from(["short", "long"]))
def test_word_kernel_matches_matmul(seed, ring, size):
    """evaluate_monomial, closed_form_product and the basis_reduce bucket key
    agree with honest products over Q and F_5: on short words with repeated
    slots and letters off the support, and on surviving words of degree 60
    to 120, mostly neutral, whose rows carry long variable lists."""
    field = RATIONALS if ring == "q" else PrimeField(5)
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    if size == "long":
        word = surviving_word(rng, grading, rng.randint(60, 120))
    else:
        length = rng.randint(1, 8)
        word = [
            GVar(rng.randint(1, max(1, length // 2)),
                 rng.randrange(grading.group.order), rng.random() < 0.5)
            for _ in range(length)
        ]
    honest = honest_product(word, grading, field)
    assert size == "short" or not honest.is_zero
    mono = tuple(word)
    assert closed_form_product(word, grading, field) == honest
    assert evaluate_monomial(mono, grading, field) == honest
    key = evaluation_key(mono, grading)
    assert tuple(((s, e), ((v, field.one),)) for s, e, v in key) == honest.canonical_key()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(["q", "modp:5"]))
def test_kernel_triples_render_as_entry_vars(seed, ring):
    """The kernel and the honest product both hold each entry variable as a
    plain (slot, row, col) tuple and render alike, powers included, over Q
    and F_5."""
    field = RATIONALS if ring == "q" else PrimeField(5)
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    word = surviving_word(rng, grading, rng.randint(1, 12))
    closed = closed_form_product(word, grading, field)
    honest = honest_product(word, grading, field)
    assert not honest.is_zero
    for matrix in (closed, honest):
        for poly in matrix.entries.values():
            ((mono, _),) = poly.terms_sorted()
            assert {type(v) for v in mono} == {tuple}
    assert closed.render() == honest.render()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_letters_evaluate_as_plain_triples(seed):
    """A letter is its (slot, element, star) triple: the oracle, the closed
    form and the witness give equal results on a word's GVar letters and on
    the same letters as plain tuples, dead words included."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    for word in (surviving_word(rng, grading, rng.randint(1, 12)),
                 random_slotted_word(rng, grading, rng.randint(1, 6), repeat_slots=True)):
        letters = tuple(word)
        plain = [tuple(v) for v in letters]
        assert {type(v) for v in plain} == {tuple}
        honest = honest_product(letters, grading)
        assert honest_product(plain, grading) == honest
        assert closed_form_product(plain, grading) == honest
        assert closed_form_product(letters, grading) == honest
        witness = next(iter_rows(letters, grading), None)
        assert next(iter_rows(plain, grading), None) == witness
        assert (witness is None) == honest.is_zero


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_every_kernel_row_is_a_witness(seed):
    """Each kernel row (start, end, variables) is a witness: the letters'
    units, a starred letter's transposed, fold to (start, end), and the
    honest product holds the monic monomial of the variables there.  A word
    has no row exactly when it is a monomial identity and its honest
    product is zero."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    for word in (surviving_word(rng, grading, rng.randint(1, 12)),
                 random_slotted_word(rng, grading, rng.randint(1, 12), repeat_slots=True)):
        honest = honest_product(word, grading)
        rows = list(iter_rows(word, grading))
        for start, end, variables in rows:
            units = [(b, a) if star else (a, b)
                     for (_, a, b), (_, _, star) in zip(variables, word)]
            assert len(units) == len(word)
            assert unit_product(units) == (start, end)
            assert honest.entries[(start, end)] == CPolynomial(
                {tuple(sorted(variables)): RATIONALS.one})
        assert (not rows) == is_monomial_identity(word, grading) == honest.is_zero


def test_fast_paths_never_multiply_matrices(monkeypatch):
    """Honest multiplication is the oracle only: evaluation and reduction
    read the word kernel and never call SparseMatrix.__matmul__."""
    calls = []
    matmul = SparseMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    rng = random.Random(8)
    for _ in range(30):
        grading = random_grading(rng, max_n=5)
        field = PrimeField(5) if rng.random() < 0.5 else RATIONALS
        f = random_multihomogeneous_poly(rng, grading, field)
        if f is None:
            continue
        for mono in f.terms:
            evaluate_monomial(mono, grading, field)
        evaluate(f, grading, field)
        basis_reduce(f, grading)
    assert calls == []
    honest_product(random_slotted_word(rng, grading, 3), grading)
    assert calls, "the counter does not see the oracle"


def _walk_all_rows(word, grading):
    """Every start row walked through the word at once, one letter at a
    time, along the reference's row steps of the letter's element,
    inverted when starred."""
    walks = [(row, row, ()) for row in range(grading.n)]
    for slot, element, star in word:
        step = row_steps(grading, element)
        if star:
            step = {col: row for row, col in step.items()}
        walks = [
            (start, step[row], variables + ((slot, step[row], row) if star else (slot, row, step[row]),))
            for start, row, variables in walks if row in step
        ]
    return walks


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_word_rows_walk_every_start_row(seed):
    """The kernel, which walks one start row at a time, gives the rows of
    a walk of all start rows at once, in start order, on surviving and
    dead words; its first row, read lazily, is the first of them."""
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=5)
    for word in (surviving_word(rng, grading, rng.randint(1, 30)),
                 random_slotted_word(rng, grading, rng.randint(1, 6), repeat_slots=True),
                 [GVar(rng.randint(1, 3), rng.randrange(grading.group.order), rng.random() < 0.5)
                  for _ in range(rng.randint(1, 8))]):
        rows = list(iter_rows(word, grading))
        assert rows == _walk_all_rows(word, grading)
        assert next(iter_rows(word, grading), None) == (rows[0] if rows else None)


# ---------------------------------------------------------------------------
# the honest product: empty words and the memo of generic matrices


def test_empty_word_is_refused_alike(gr_z2):
    for product in (honest_product, closed_form_product, evaluate_monomial):
        with pytest.raises(PreconditionError, match="^cannot evaluate the empty word$"):
            product((), gr_z2)


def _fresh_fold(word, grading, field=RATIONALS):
    """The product of freshly built generic matrices, bypassing the memo."""
    return functools.reduce(
        operator.matmul, [generic_matrix_signed(letter, grading, field) for letter in word])


def _memo_words(grading, rng):
    return [random_slotted_word(rng, grading, rng.randint(1, 6), repeat_slots=True)
            for _ in range(12)]


def test_memo_keeps_each_field_apart():
    """On one grading, products over Q and then over F_5 read different
    generic matrices: Fraction coefficients, then Fp ones, each product
    equal to a fold of freshly built matrices."""
    rng = random.Random(4)
    z4 = build_grading(make_cyclic(4), ["e", "a", "a2"])
    words = _memo_words(z4, rng) + [[GVar(1, 1), GVar(2, 0, True), GVar(1, 3)]]
    for field, kind in ((RATIONALS, Fraction), (PrimeField(5), Fp)):
        for word in words:
            product = honest_product(word, z4, field)
            assert product == _fresh_fold(word, z4, field)
            assert {type(c) for p in product.entries.values() for c in p.terms.values()} <= {kind}
        assert not honest_product(words[-1], z4, field).is_zero


def test_gradings_never_share_generic_matrices():
    """Gradings on one group with the same letters get their own matrices,
    built from their own tuples; equal gradings built twice share none."""
    rng = random.Random(6)
    z4 = make_cyclic(4)
    first, second, twin = (build_grading(z4, t) for t in
                           (["e", "a", "a2"], ["e", "a2", "a"], ["e", "a", "a2"]))
    words = _memo_words(first, rng)
    for _ in range(2):
        for grading in (first, second, twin):
            for word in words:
                assert honest_product(word, grading) == _fresh_fold(word, grading)
    memos = [reference._GENERIC_MATRICES[g] for g in (first, second, twin)]
    seen = [{id(m) for m in memo.values()} for memo in memos]
    assert all(seen) and not (seen[0] & seen[1] or seen[0] & seen[2] or seen[1] & seen[2])
    gc.collect()
    count, dead = len(reference._GENERIC_MATRICES), weakref.ref(first)
    del first
    gc.collect()  # the memo dies with its grading
    assert dead() is None and len(reference._GENERIC_MATRICES) == count - 1


def test_one_letter_product_cannot_corrupt_the_memo():
    """A one-letter product is built afresh: emptying it, or its entries,
    leaves later products unchanged."""
    z4 = build_grading(make_cyclic(4), ["e", "a", "a2"])
    letter, other = GVar(1, 1), GVar(2, 3)
    for _ in range(2):
        single = honest_product([letter], z4)
        assert single == _fresh_fold([letter], z4)
        for p in single.entries.values():
            p.terms.clear()
        single.entries.clear()
    assert honest_product([letter, other], z4) == _fresh_fold([letter, other], z4)
    assert honest_product([letter], z4) == _fresh_fold([letter], z4)
    assert not honest_product([letter], z4).is_zero


def test_row_steps_cost_n_squared_unit_degrees_per_grading(monkeypatch):
    """The first row steps of a fresh grading fill its table from the n^2
    unit degrees; later generic matrices read the table, and a caller that
    alters a returned dict leaves the table as it was."""
    z4 = build_grading(make_cyclic(4), ["e", "a", "a2"])
    calls = []

    def counting(grading, row, col):
        calls.append((row, col))
        return unit_degree(grading, row, col)

    monkeypatch.setattr(reference, "unit_degree", counting)
    assert z4 not in reference._ROW_STEPS
    generic_matrix_signed(GVar(1, 1), z4)
    generic_matrix_signed(GVar(2, 3, True), z4)
    assert len(calls) == z4.n ** 2 and z4 in reference._ROW_STEPS
    steps = row_steps(z4, 1)
    assert steps == {0: 1, 1: 2}
    steps.clear()
    steps[2] = 0
    assert row_steps(z4, 1) == {0: 1, 1: 2} and len(calls) == z4.n ** 2


def test_honest_product_reads_neither_kernel_nor_graph(monkeypatch):
    """The oracle shares no code with the kernel or the composition graph:
    with both made to raise, it still multiplies, and agrees with the
    closed form computed before."""
    rng = random.Random(10)
    grading = random_grading(rng, max_n=4)
    words = _memo_words(grading, rng)
    closed = [closed_form_product(word, grading) for word in words]
    fresh = random_grading(random.Random(10), max_n=4)  # no graph read yet

    def refuse(*_):
        raise AssertionError("the oracle read the fast path")

    monkeypatch.setattr(genmat, "iter_rows", refuse)
    monkeypatch.setattr(Grading, "composition_graph", property(refuse))
    with pytest.raises(AssertionError):
        closed_form_product(words[0], grading)
    for g in (grading, fresh):
        for word, expected in zip(words, closed):
            assert honest_product(word, g) == expected
