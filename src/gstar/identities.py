"""Decision procedures for graded identities with involution.

A word in signed letters is an identity exactly when the composition of its
hat maps has empty domain; otherwise the first row of the word kernel
(``genmat.iter_rows``) is the witness, a matrix-unit assignment multiplying
out to a single matrix unit.  Both identity tests return a bool.  Two
non-identity words are congruent modulo the neutral ideal (the two-sided
closure of the neutral star relation x_e - x_e* under grading- and
star-preserving substitutions, which holds the neutral commutator: for
neutral x and y, xy is neutral and [x, y] = (xy - (xy)*) + (y* - y)x* +
y(x* - x)) exactly when their generic evaluations share a nonzero entry at
a shared position, which forces the full evaluations to agree.  Reducing a
polynomial therefore means: split off the monomial identities (each with a
short contiguous identity subword as its certificate, when one exists) and
partition the rest by generic evaluation; the polynomial is an identity
precisely when every class sums to zero.  The monomial identities up to a
degree are counted per composition state and remaining length, then
streamed by a depth-first walk that enters only states with words left to
give, in blocks that share a prefix (``IdentityListing.blocks``).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import InternalCheckError, PreconditionError, ResourceCapError
from .freealg import GPolynomial, GVar, evaluate, render_word, star_word, variable
from .genmat import iter_rows
from .gradings import CompositionGraph, Grading, letter_degrees, signed_degree
from .groups import Group
from .rings import RATIONALS, format_coeff

ENUM_DEGREE_CAP = 12
ENUM_NODE_BUDGET = 5_000_000
STATE_BUDGET = 500_000
_NON_IDENTITY = "congruence is only defined for non-identity monomials"


# ---------------------------------------------------------------------------
# words and identity tests


def word_monomial(word: Sequence[tuple]) -> tuple:
    """The index-free form, slot p at position p: a word of the listings is its own."""
    return tuple([GVar(p, element, star) for p, (_, element, star) in enumerate(word, 1)])


def is_monomial_identity(mono: Sequence[tuple], grading: Grading) -> bool:
    """Whether the word kernel yields no row.  Otherwise its first row
    (start, end, variables) is the witness: letter p gets the matrix unit of
    variables[p], transposed when the letter is starred, and the units
    multiply to e(start, end)."""
    return next(iter_rows(mono, grading), None) is None


def is_identity(f: GPolynomial, grading: Grading, field=RATIONALS) -> bool:
    """Polynomial identity test: exact comparison of the generic evaluation to zero."""
    return evaluate(f, grading, field).is_zero


# ---------------------------------------------------------------------------
# congruence modulo the neutral ideal


def _congruent_rows(m1: Sequence[tuple], m2: Sequence[tuple], grading: Grading
                    ) -> Optional[tuple[list, list]]:
    """The kernel rows of both words when they are congruent, else None.

    Each word is walked once.  Sharing one nonzero entry at one position
    already forces the full generic evaluations to coincide; both
    formulations are computed from the two evaluation keys and
    cross-checked here.
    """
    rows1, rows2 = list(iter_rows(m1, grading)), list(iter_rows(m2, grading))
    if not rows1 or not rows2:
        raise PreconditionError(_NON_IDENTITY)
    e1, e2 = ([(s, t, tuple(sorted(v))) for s, t, v in rows] for rows in (rows1, rows2))
    shared = not set(e1).isdisjoint(e2)
    if shared != (e1 == e2):
        raise InternalCheckError("shared entry without full evaluation equality")
    return (rows1, rows2) if shared else None


def congruent_mod_neutral(m1: Sequence[tuple], m2: Sequence[tuple], grading: Grading) -> bool:
    """Decide congruence of two non-identity monomials modulo the neutral
    ideal: whether their generic evaluations agree (``_congruent_rows``)."""
    return _congruent_rows(m1, m2, grading) is not None


class DerivationStep(NamedTuple):
    """One elementary rewrite: the neutral factor [i,j) replaced by its
    involution image, an instance of the star relation x_e - x_e*."""

    i: int
    j: int
    result: tuple

    def to_json(self, group: Group) -> dict:
        return {"kind": "star", "i": self.i, "j": self.j,
                "result": render_word(self.result, group)}


def neutral_factors(letters: tuple, group: Group):
    """The (i, j) of each neutral factor [i,j) of a letter tuple, over i,
    then j: the factors whose star is a single-step rewrite by the star
    relation."""
    table = group.table
    pref = [group.identity]
    for degree in letter_degrees(letters, group):
        pref.append(table[pref[-1]][degree])
    n = len(pref)
    for i in range(n - 1):
        g = pref[i]
        for j in range(i + 1, n):
            if pref[j] == g:  # [i,j) is neutral exactly when the prefix degrees agree
                yield i, j


def derivation_mod_neutral(m1: tuple, m2: tuple, grading: Grading
                           ) -> Optional[list[DerivationStep]]:
    """An explicit rewrite chain from m2 to m1, of at most 2 len(m1) steps,
    or None when the words are not congruent.

    Every step stars one neutral factor, an instance of the star relation,
    so each step preserves the generic evaluation.  Both words are read as
    trails from the first start row of m1's evaluation (``iter_rows``):
    letter p crosses the entry variable y[index, a, b], from row a to row b
    when plain and from b to a when starred; a factor [i,j) is neutral
    exactly when the walk is at the same row at i and at j; and congruent
    words cross the same multiset of entry variables.  A star then reverses
    a closed sub-trail, one of Kotzig's transformations of trails (A.
    Kotzig, 1966; H. Fleischner, Eulerian Graphs and Related Topics, 1990),
    and m2 is rewritten into m1 one position at a time.  At the first
    position p where the current word W differs from m1, with W at row v,
    let q >= p be the first position where W crosses the variable e that
    m1 crosses at p.  The first case that applies brings m1's letter to p:

    - e is a loop at v: star [p,q+1) if q > p, then star [p,p+1) if the
      star flag still differs;
    - W crosses e into v: star [p,q+1);
    - W leaves v along e and is at v again at the first r > q: star [q,r),
      which makes W enter v along e at r - 1, then star [p,r);
    - otherwise some row is visited at a position c in (p,q) and again at a
      position d > q, because the rest of m1 is one trail over the
      variables that W crosses from p on: star [c,d), which makes W enter v
      along e at c + d - q, then star [p,c + d - q); the first such c, then
      the first such d.

    The chain is built, not searched for, and is not in general a shortest
    one; it is empty when the words are equal.  Congruence is decided as in
    ``congruent_mod_neutral``, from the one walk of each word: congruent
    words have equal evaluations, so m2's first row starts at m1's first
    start row and crosses the same variables.
    """
    pair = _congruent_rows(m1, m2, grading)
    if pair is None:
        return None
    (start, _, wanted), (_, _, edges) = pair[0][0], pair[1][0]
    edges = list(edges)
    word = m2
    rows = [start, *(e[1] if star else e[2] for (_, _, star), e in zip(word, edges))]
    chain: list[DerivationStep] = []

    def rewrite(i: int, j: int) -> None:
        # a letter keeps its entry variable, so the variables and the rows
        # move with the letters
        nonlocal word
        word = word[:i] + star_word(word[i:j]) + word[j:]
        edges[i:j] = edges[i:j][::-1]
        rows[i:j + 1] = rows[i:j + 1][::-1]
        chain.append(DerivationStep(i, j, word))

    try:
        for p, letter in enumerate(m1):
            if word[p] == letter:
                continue
            v, e = rows[p], wanted[p]
            q = edges.index(e, p)
            if e[1] == e[2]:
                if q > p:
                    rewrite(p, q + 1)
                if word[p][2] != letter[2]:  # the star flags
                    rewrite(p, p + 1)
            elif rows[q + 1] == v:
                rewrite(p, q + 1)
            elif v in rows[q + 2:]:
                r = rows.index(v, q + 2)
                rewrite(q, r)
                rewrite(p, r)
            else:
                c, d = next((c, d) for c in range(p + 1, q) for d in range(q + 1, len(rows))
                            if rows[c] == rows[d])
                rewrite(c, d)
                rewrite(p, c + d - q)
    except (StopIteration, ValueError):  # a crossing the kernel's rows promised is missing
        raise InternalCheckError("derivation lost its trail") from None
    if word != m1:
        raise InternalCheckError("derivation does not land on the first monomial")
    return chain


# ---------------------------------------------------------------------------
# the identity basis and reduction against it


BASIS_FAMILIES = ("neutral-commutator", "neutral-star", "off-support", "sandwich")


def basis_polynomials(grading: Grading, field=RATIONALS) -> list[tuple[str, str, GPolynomial]]:
    """The basis polynomials as ``(family, element, polynomial)``, family by
    family in the order of ``BASIS_FAMILIES``.

    The neutral commutator x1:e x2:e - x2:e x1:e; the star relation
    x1:e - x1:e*; the variable x1:g for each g outside the support; the
    sandwich commutator x1:g x2:g' x3:g - x3:g x2:g' x1:g, g' the inverse of
    g, for each non-neutral support element.  The slots are fixed at 1, 2, 3:
    a generic evaluation cannot tell one injective naming of slots from
    another.
    """
    group, one = grading.group, field.one
    e = group.identity

    def x(i: int, g: int, star: bool = False) -> GPolynomial:
        return variable(i, g, star, one)

    cases = [("neutral-commutator", e, x(1, e) * x(2, e) - x(2, e) * x(1, e)),
             ("neutral-star", e, x(1, e) - x(1, e, True))]
    cases += [("off-support", g, x(1, g)) for g in grading.off_support()]
    for g in grading.support_sorted():
        if g != e:
            gi = group.inv(g)
            left, right = x(1, g) * x(2, gi) * x(3, g), x(3, g) * x(2, gi) * x(1, g)
            cases.append(("sandwich", g, left - right))
    return [(family, group.name_of(g), f) for family, g, f in cases]


def verify_basis(grading: Grading, field=RATIONALS) -> dict:
    """Check each basis polynomial once by generic evaluation.

    Reports ``{family: {"pass", "cases": [{"element", "pass"}]}, "pass"}``.
    """
    report: dict = {family: {"pass": True, "cases": []} for family in BASIS_FAMILIES}
    for family, element, f in basis_polynomials(grading, field):
        ok = is_identity(f, grading, field)
        report[family]["cases"].append({"element": element, "pass": ok})
        report[family]["pass"] = report[family]["pass"] and ok
    report["pass"] = all(report[family]["pass"] for family in BASIS_FAMILIES)
    return report


def subword_identity_certificate(
    mono: Sequence[tuple], grading: Grading
) -> Optional[tuple[int, int]]:
    """Shortest contiguous identity subword of degree at most 2n-1, if any.

    The subword comes as a half-open range; 2n-1 is the degree bound for
    the monomial part of the identity basis.  A monomial identity without
    such a subword is a notable finding; callers flag it rather than
    conclude anything.
    """
    graph, degrees = grading.composition_graph, letter_degrees(mono, grading.group)
    best, max_len = None, 2 * grading.n - 1
    for start in range(len(degrees)):
        state = 0
        for stop in range(start + 1, min(len(degrees), start + max_len) + 1):
            state = graph.step[state][degrees[stop - 1]]
            if state == graph.empty:  # only strictly shorter subwords can beat it
                best, max_len = (start, stop), stop - start - 1
                break
    return best


def block_certificate(
    mono: Sequence[tuple], grading: Grading
) -> Optional[tuple[int, ...]]:
    """Certify a monomial identity as a substitution image of a short one.

    Searches for a contiguous factor of the word, split into at most 2n-1
    blocks, whose block-degree word is itself an identity; the monomial is
    then the image of that shorter identity under substituting each
    variable by its block.  This is strictly more complete than the
    contiguous-subword certificate: neutral-degree padding inside a word
    defeats the subword search but not this one.  Returns the block
    boundaries (i_0 < i_1 < ... < i_s) or None.
    """
    max_blocks = 2 * grading.n - 1
    group = grading.group
    table = group.table
    graph = grading.composition_graph
    step, empty = graph.step, graph.empty
    degrees = letter_degrees(mono, group)
    length = len(degrees)
    for start in range(length):
        # state: (position, composition state after the blocks closed so
        #         far); an open block accumulates a degree.  Round r closes
        #         block r, so every key of a round has the same block count.
        frontier = {(start, 0): (start,)}
        for _ in range(max_blocks):
            nxt: dict = {}
            for (pos, comp), bounds in frontier.items():
                row = step[comp]
                acc = group.identity
                for end in range(pos + 1, length + 1):
                    acc = table[acc][degrees[end - 1]]
                    new_comp = row[acc]
                    new_bounds = bounds + (end,)
                    if new_comp == empty:
                        return new_bounds
                    nxt.setdefault((end, new_comp), new_bounds)
            frontier = nxt
    return None


class IdentityTerm(NamedTuple):
    monomial: tuple
    coefficient: object
    certificate: Optional[tuple[int, int]]

    def to_json(self, texts: dict) -> dict:
        word, coeff = texts[self.monomial]
        return {
            "monomial": word,
            "coefficient": coeff,
            "subword": list(self.certificate) if self.certificate else None,
        }


class CongruenceClass(NamedTuple):
    members: tuple[tuple[tuple, object], ...]
    total: object

    def to_json(self, texts: dict) -> dict:
        return {
            "monomials": [texts[m][0] for m, _ in self.members],
            "coefficients": [texts[m][1] for m, _ in self.members],
            "sum": format_coeff(self.total),
        }


class BasisReduction(NamedTuple):
    """Result of reducing a polynomial against the basis.

    ``is_identity`` holds exactly when every congruence class sums to zero;
    the classes plus the certified monomial identity terms are the
    membership certificate for the identity basis.  Every ``to_json`` reads
    a term's word and coefficient text from ``texts``, as
    ``freealg.term_texts`` gives them; only a class sum is formatted there.
    """

    identity_terms: tuple[IdentityTerm, ...]
    classes: tuple[CongruenceClass, ...]
    is_identity: bool

    @property
    def fully_certified(self) -> bool:
        return all(t.certificate is not None for t in self.identity_terms)

    def to_json(self, texts: dict) -> dict:
        return {
            "verdict": "identity" if self.is_identity else "not-identity",
            "identity_terms": [t.to_json(texts) for t in self.identity_terms],
            "classes": [c.to_json(texts) for c in self.classes],
            "fully_certified": self.fully_certified,
        }


def basis_reduce(f: GPolynomial, grading: Grading) -> BasisReduction:
    """Reduce a polynomial against the basis.

    Monomial identity terms are separated and annotated with a contiguous
    identity subword of degree at most 2n-1 when one exists; the remaining
    terms are partitioned by generic evaluation (the evaluation key), which
    classifies them up to congruence modulo the neutral ideal.  The class
    sums only add coefficients of ``f``, so no coefficient field is passed.
    A term's key is the first row of its evaluation (``iter_rows``), with
    the variables sorted, or () for an identity: one shared entry forces
    equal evaluations, so the first rows agree exactly when the evaluation
    keys do.  The input need not be multi-homogeneous: a kernel variable
    (k, a, b) names its letter's (index, element) as (k, g_a^{-1} g_b), so
    equal keys imply equal multidegrees and no class crosses two components.
    """
    identity_terms = []
    buckets: dict[tuple, list] = {}
    for mono, coeff in f.terms_sorted():
        row = next(iter_rows(mono, grading), None)
        if row is None:
            cert = subword_identity_certificate(mono, grading)
            identity_terms.append(IdentityTerm(mono, coeff, cert))
        else:
            start, end, variables = row
            buckets.setdefault((start, end, tuple(sorted(variables))), []).append((mono, coeff))
    classes = []
    for members in buckets.values():  # first members in term order, so classes are too
        total = members[0][1]
        for _, c in members[1:]:
            total = total + c
        classes.append(CongruenceClass(tuple(members), total))
    in_ideal = all(not c.total for c in classes)
    return BasisReduction(tuple(identity_terms), tuple(classes), in_ideal)


# ---------------------------------------------------------------------------
# enumeration of monomial identities


def _profile_moves(profile: tuple, alphabet: list, graph: CompositionGraph) -> list:
    """The letters that keep a word free of proper identity factors.

    A profile is (state of the word, state of its tail) of an identity-free
    word, the tail being the word without its first letter, and (0, None)
    for the empty word; state 0 is the empty tail's.  ``alphabet`` holds
    (letter, degree) pairs, in any form of letter.  A word with an identity factor is an
    identity, so wx has a proper identity factor exactly when w or the tail
    of w followed by x is an identity.  Returns (letter, profile of wx) for
    every letter that leaves that tail alive, in alphabet order; a new full
    state that is empty marks a minimal identity, which extends no further.
    """
    full, tail = profile
    step, empty = graph.step, graph.empty
    if full == empty:
        return []
    row = step[full]
    if tail is None:
        return [(letter, (row[col], 0)) for letter, col in alphabet]
    tails = step[tail]
    return [(letter, (row[col], tails[col])) for letter, col in alphabet if tails[col] != empty]


def _coded_alphabet(grading: Grading) -> list[tuple[int, int]]:
    """(code 2g + star, degree) of each support letter g or g*, in the pairs' order."""
    return [(2 * element + star, signed_degree(element, star, grading.group))
            for element, star in grading.signed_alphabet()]


def _position_letters(group: Group, p: int) -> list[tuple]:
    """The 1-tuple ``(GVar(p, g, star),)`` of the letter at position p, by code."""
    return [(GVar(p, g, star),) for g in group.elements() for star in (False, True)]


class IdentityListing:
    """The monomial identities up to a degree: counted by length, listed on demand.

    Words run over the signed support alphabet, plus the plain off-support
    variables as degree-one identities.  A letter is its code (see
    ``_coded_alphabet``).  A word is an identity exactly when it leads from
    the identity state of the grading's composition graph to the empty one,
    and for minimal words, when it leads from the empty word's profile (see
    ``_profile_moves``: the states of the word and of its tail, the graph
    walked twice in step) to one whose full state is empty.

    The count pass memoises, per node (a state, or a profile for minimal
    words) and remaining length k, the number of words of length k that lead
    from the node to an accepting one (the transfer-matrix method, Stanley,
    Enumerative Combinatorics I, §4.7).  ``lengths[k - 1]`` is the number of
    identities of length k.  The graph is explored only as far as the count
    steps, and the whole of ``node_budget`` is charged before anything is
    listed: one node per move kept (as soon as a node's moves are taken),
    per count entry, per composition state the pass adds to the graph (at
    every charge) and per support word to be listed.

    ``blocks`` then lists the words of one length by a depth-first walk
    that enters a node only when it still has words to give, in blocks that
    share a prefix, so the time is linear in the output and nothing beyond
    the memos and one block is held.
    """

    def __init__(
        self,
        grading: Grading,
        max_degree: int,
        minimal_only: bool = False,
        node_budget: int = ENUM_NODE_BUDGET,
    ):
        if max_degree < 1:
            raise PreconditionError("max_degree must be at least 1")
        if max_degree > ENUM_DEGREE_CAP:
            raise ResourceCapError(
                f"max_degree {max_degree} exceeds the configured cap {ENUM_DEGREE_CAP}"
            )
        graph = grading.composition_graph
        step, empty = graph.step, graph.empty
        alphabet = _coded_alphabet(grading)
        if minimal_only:
            start = (0, None)
            moves = lambda profile: _profile_moves(profile, alphabet, graph)
            accepting = lambda profile: profile[0] == empty
        else:
            start = 0
            moves = lambda state: [(code, step[state][col]) for code, col in alphabet]
            accepting = lambda state: state == empty
        # per node id: the node, its moves as (code, child id), the codes of
        # its moves to an accepting node, and its counts by remaining length
        ids, nodes = {start: 0}, [start]
        successors: list = [None]
        finals: list = [None]
        counts: list = [None]
        used, graph_base = 0, len(graph.states)

        def charge(units: int) -> None:
            nonlocal used
            used += units
            if used + len(graph.states) - graph_base > node_budget:
                raise ResourceCapError(f"enumeration exceeded the node budget {node_budget}")

        def expand(node: int) -> None:
            out, done = [], []
            for code, child in moves(nodes[node]):
                cid = ids.get(child)
                if cid is None:
                    cid = ids[child] = len(nodes)
                    nodes.append(child)
                    successors.append(None)
                    finals.append(None)
                    counts.append(None)
                out.append((code, cid))
                if accepting(child):
                    done.append(code)
            successors[node], finals[node] = out, done
            counts[node] = [None] * (max_degree + 1)
            charge(len(out))

        def count(node: int, k: int) -> int:
            if counts[node] is None:
                expand(node)
            row = counts[node]
            words = row[k]
            if words is None:
                if k == 1:
                    words = len(finals[node])
                else:
                    words = sum(count(child, k - 1) for _, child in successors[node])
                row[k] = words
                charge(1)
            return words

        support = [count(0, k) for k in range(1, max_degree + 1)]
        charge(sum(support))
        self._successors, self._finals, self._counts = successors, finals, counts
        self._off_support = [2 * g for g in grading.off_support()]
        self.lengths = [len(self._off_support) + support[0], *support[1:]]

    @property
    def count(self) -> int:
        return sum(self.lengths)

    @property
    def max_identity_degree(self) -> int:
        """The largest length with an identity, or 0 when there is none."""
        return max((k for k, words in enumerate(self.lengths, 1) if words), default=0)

    def blocks(self, length: int, tables: Sequence, joiner) -> Iterator[tuple]:
        """The identities of one length, in alphabet order, as (prefix,
        suffixes) pairs whose words are ``prefix + s`` for each s in
        suffixes; no pair is empty.

        The word with codes c_1 ... c_k is ``tables[0][c_1] + joiner + ... +
        joiner + tables[k - 1][c_k]``: with tables of 1-tuples of letters and
        joiner ``()`` it is the word itself, and with string tables it is the
        word's text.  The walk enters a node only when it still has words of
        the remaining length, and stops two positions from the end: each
        node's words over the last two positions are rendered once into a
        memo that lives for one first-letter subtree, so a pair holds at most
        the square of the alphabet.
        """
        successors, finals, counts = self._successors, self._finals, self._counts
        empty = joiner[:0]
        if length == 1:
            table = tables[0]
            words = [table[code] for code in sorted(self._off_support + finals[0])]
            if words:
                yield empty, words
            return
        mid, last = tables[length - 2], tables[length - 1]
        memo: dict = {}  # node id -> its words over the last two positions

        def block(node: int, prefix) -> tuple:
            ends = memo.get(node)
            if ends is None:
                ends = memo[node] = []
                for code, child in successors[node]:
                    head = mid[code] + joiner
                    ends += [head + last[end] for end in finals[child]]
            return prefix, ends

        def walk(node: int, k: int, prefix) -> Iterator[tuple]:
            # more than two positions remain
            table = tables[length - k]
            for code, child in successors[node]:
                if counts[child][k - 1]:
                    if k == length:  # a new first-letter subtree
                        memo.clear()
                    if k == 3:
                        yield block(child, prefix + table[code] + joiner)
                    else:
                        yield from walk(child, k - 1, prefix + table[code] + joiner)

        if length > 2:
            yield from walk(0, length, empty)
        elif counts[0][2]:
            yield block(0, empty)


def enumerate_monomial_identities(
    grading: Grading,
    max_degree: int,
    minimal_only: bool = False,
    node_budget: int = ENUM_NODE_BUDGET,
) -> list[tuple]:
    """All index-free monomial identities up to the given degree, as a list.

    The words of ``IdentityListing`` (which see for the alphabet, the
    budget and the caps) as ``GVar`` words, slot p at position p, in
    ``GPolynomial.order``.  With ``minimal_only`` a word is kept only if no
    proper contiguous subword is itself an identity.
    """
    listing = IdentityListing(grading, max_degree, minimal_only, node_budget)
    tables = [_position_letters(grading.group, p) for p in range(1, max_degree + 1)]
    words: list = []
    for k in range(1, max_degree + 1):
        for prefix, suffixes in listing.blocks(k, tables, ()):
            words += map(prefix.__add__, suffixes)
    return words


def minimal_identities_up_to(
    grading: Grading, max_degree: int, state_budget: int = STATE_BUDGET
) -> list[tuple]:
    """One representative minimal identity word per reachable length and profile.

    Breadth-first over the composition graph, one length per round, on the
    quotient of identity-free words by their profile (see
    ``_profile_moves``: the states of the word and of its tail): the first
    word to reach a profile stands for every word with that profile, and a
    move to the empty state is a minimal identity.  This collapses the
    search space enough to probe degrees that the full listing cannot
    reach.  Sound and complete at the level of
    lengths: if any minimal identity of some length exists, one is
    returned.  ``state_budget`` caps the profiles kept over all rounds
    plus the composition states the search adds to the graph.  The words
    have the form and the order of ``enumerate_monomial_identities``.
    """
    if max_degree < 1:
        raise PreconditionError("max_degree must be at least 1")
    graph = grading.composition_graph
    alphabet = _coded_alphabet(grading)  # a move names its letter by its code
    found: list = [(GVar(1, g, False),) for g in grading.off_support()]
    frontier: dict[tuple, tuple] = {(0, None): ()}
    moves: dict[tuple, list] = {}  # a profile recurs at many lengths
    kept, graph_base = 0, len(graph.states)

    def check_budget() -> None:
        if kept + len(graph.states) - graph_base > state_budget:
            raise ResourceCapError(f"profile search exceeded the state budget {state_budget}")

    for p in range(1, max_degree + 1):
        letters = _position_letters(grading.group, p)
        nxt: dict[tuple, tuple] = {}
        for profile, word in frontier.items():
            if profile not in moves:
                moves[profile] = _profile_moves(profile, alphabet, graph)
                check_budget()
            for code, new in moves[profile]:
                if new[0] == graph.empty:
                    found.append(word + letters[code])
                elif new not in nxt:
                    nxt[new] = word + letters[code]
        kept += len(nxt)
        check_budget()
        if not nxt:
            break
        frontier = nxt
    return sorted(found, key=GPolynomial.order)
