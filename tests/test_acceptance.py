"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All checks are exact (no numeric tolerance); each test
also enforces its wall-clock budget.

Criterion 7 checks the degree bound of the basis theorem in its
substitution reading: the monomial identities of degree at most 2n-1
generate the others under substitutions that respect the grading and the
star.  The contiguous reading, that every longer identity contains a short
identity as a contiguous subword, is false, and criterion 7 asserts that
it fails: neutral-degree padding inside a word gives minimal identities of
degree up to 2(2n-1) whose every proper contiguous subword is a
non-identity.  Each one is certified instead by condensing contiguous
blocks (``block_certificate``), and the PASS line prints how many there
are per grading, from each of its three sources, together with a sample
word.
"""

import itertools
import random
import time
import zlib

from gstar import (
    BASIS_FAMILIES,
    closed_form_product,
    congruent_mod_neutral,
    derivation_mod_neutral,
    enumerate_monomial_identities,
    evaluate_monomial,
    honest_product,
    is_identity,
    is_monomial_identity,
    minimal_identities_up_to,
    render_entry_monomial,
    subword_identity_certificate,
    verify_basis,
    word_monomial,
)
from gstar.freealg import GVar
from gstar.identities import IdentityListing, basis_reduce, block_certificate
from gstar.rings import RATIONALS, PrimeField
from gstar.sampling import (
    crossed_product_grading,
    random_grading,
    random_multihomogeneous_poly,
    standard_gradings,
    random_slotted_word,
)
from gstar.selftest import exhaustive_word_scan

GRADINGS = standard_gradings()
SMALL = {name: g for name, g in GRADINGS.items() if g.n <= 3}  # all six


def report(number, name, t0, budget, detail=""):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s / {budget}s) {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------


def test_criterion_1_crossed_product_reproduction():
    """Full-group cyclic tuples carry no monomial identities up to 2n-1 and
    satisfy the two neutral basis families: every hat map is a total
    permutation, so the basis collapses to those two families."""
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5):
        grading = crossed_product_grading(n)
        words = enumerate_monomial_identities(grading, 2 * n - 1)
        assert words == [], f"unexpected monomial identities for order {n}"
        basis = verify_basis(grading)
        assert basis["pass"], f"order {n}: {basis}"
        assert basis["neutral-commutator"]["pass"]
        assert basis["neutral-star"]["pass"]
        assert basis["off-support"]["cases"] == []
    report(1, "crossed-product reproduction", t0, 5, "n=2,3,4,5")


def test_criterion_2_basis_identities():
    """All four basis families evaluate to zero over the whole test family,
    including the off-support family outside the support."""
    t0 = time.perf_counter()
    for name, grading in GRADINGS.items():
        result = verify_basis(grading)
        assert result["pass"], f"{name}: {result}"
        off_named = {c["element"] for c in result["off-support"]["cases"]}
        expected_off = {grading.group.name_of(g) for g in grading.off_support()}
        assert off_named == expected_off
    report(2, "basis identities", t0, 5, f"{len(GRADINGS)} gradings")


def test_criterion_3_closed_form_oracle():
    """Closed form equals honest matrix product on seeded random words, rows
    carry at most one entry, and every slot contributes the variable of an
    independent walk: a plain letter g steps a row along hat(g), a starred
    one along the inverse map of hat(g), never reading hat(g^-1)."""
    t0 = time.perf_counter()
    rng = random.Random(20250731)
    words_checked = 0
    while words_checked < 1200:
        grading = random_grading(rng, max_n=5)
        length = rng.randint(1, 8)
        word = [GVar(p, element, star) for p, (_, element, star)
                in enumerate(random_slotted_word(rng, grading, length), 1)]
        closed = closed_form_product(word, grading)
        assert closed == honest_product(word, grading)
        rows = [r for r, _c in closed.entries]
        assert len(rows) == len(set(rows)), "a row carries two entries"
        steps = []
        for slot, element, star in word:
            hat = grading.hat(element)
            steps.append((slot, star, hat.inverse() if star else hat))
        walked = {}
        for start in range(grading.n):
            row, variables = start, []
            for slot, star, step in steps:
                nxt = step(row)
                if nxt is None:
                    break
                variables.append((slot, nxt, row) if star else (slot, row, nxt))
                row = nxt
            else:
                walked[(start, row)] = variables
        assert set(walked) == set(closed.entries), "surviving (start, end) pairs differ"
        for pos, poly in closed.entries.items():
            ((mono, coeff),) = poly.terms_sorted()
            assert coeff == RATIONALS.one
            by_slot = sorted(mono)
            assert len(by_slot) == length
            for (slot, _, _), got, expected in zip(word, by_slot, walked[pos]):
                assert got == expected, f"slot {slot} factor mismatch"
        words_checked += 1
        if words_checked % 3 == 0:
            scrambled = random_slotted_word(rng, grading, length, repeat_slots=True)
            assert closed_form_product(scrambled, grading) == honest_product(
                scrambled, grading
            )
    report(3, "closed form vs product oracle", t0, 30, f"{words_checked} words")


def test_criterion_4_monomial_threeway_exhaustive():
    """Exhaustive three-way agreement at degree <= 6: each word's state in
    the composition graph maps exactly the rows that survive a walk through
    the hat table, a word with no surviving row is counted an identity, and
    strided words' kernel products equal their honest products, with the
    first kernel row's units folding to its matrix unit."""
    t0 = time.perf_counter()
    total = identities = 0
    for name, grading in SMALL.items():
        scan = exhaustive_word_scan(grading, 6, crosscheck_stride=7919)
        assert scan.passed, f"{name}: {scan.failures[:3]}"
        assert scan.crosschecks > 0 or scan.words < 7919
        total += scan.words
        identities += scan.identities
    # variable indices do not matter: scrambled and repeated indices agree
    rng = random.Random(404)
    for _ in range(300):
        grading = rng.choice(list(SMALL.values()))
        word = random_slotted_word(rng, grading, rng.randint(1, 6))
        dead = grading.compose_signed(word).is_empty
        indices = [rng.randint(1, 3) for _ in word]
        mono = tuple([GVar(i, element, star) for i, (_, element, star) in zip(indices, word)])
        assert evaluate_monomial(mono, grading).is_zero == dead
        assert is_monomial_identity(mono, grading) == dead
    # words touching an off-support letter vanish in every route
    for name, grading in SMALL.items():
        for g in grading.off_support():
            mono = (GVar(1, grading.support_sorted()[0]), GVar(2, g), GVar(3, g, True))
            assert is_monomial_identity(mono, grading)
            assert evaluate_monomial(mono, grading).is_zero
    report(4, "monomial three-way agreement", t0, 60, f"{total} words, {identities} identities")


def _restricted_growth_strings(length):
    """Index patterns up to renaming: a_0 = 1, a_{k+1} <= max so far + 1."""
    out = [[1]]
    for _ in range(length - 1):
        out = [s + [k] for s in out for k in range(1, max(s) + 2)]
    return out


def test_criterion_5_congruence_soundness_completeness():
    """Over all non-identity monomials of degree <= 4 (all letter words, all
    index patterns up to renaming): a shared nonzero entry at a shared
    position pins down the full evaluation, so congruence by shared entry
    and congruence by full equality coincide for every pair.  On every
    congruent pair of degree <= 3 the rewrite search produces a derivation
    whose steps preserve the evaluation."""
    t0 = time.perf_counter()
    monomials_seen = 0
    derivations = 0
    for name, grading in SMALL.items():
        alphabet = grading.signed_alphabet()
        class_ids: dict = {}
        entry_owner: dict = {}
        classes: dict = {}
        for length in range(1, 5):
            patterns = _restricted_growth_strings(length)
            for letters in itertools.product(alphabet, repeat=length):
                word = [(p, *pair) for p, pair in enumerate(letters, 1)]
                if grading.compose_signed(word).is_empty:
                    continue
                for pattern in patterns:
                    mono = tuple([GVar(k, *pair) for k, pair in zip(pattern, letters)])
                    matrix = closed_form_product(mono, grading)
                    key = matrix.canonical_key()
                    cid = class_ids.setdefault(key, len(class_ids))
                    classes.setdefault(cid, []).append(mono)
                    monomials_seen += 1
                    for pos, poly in matrix.entries.items():
                        ((entry, _),) = poly.terms_sorted()
                        owner = entry_owner.setdefault((pos, entry), cid)
                        assert owner == cid, (
                            f"{name}: entry {render_entry_monomial(entry)} at {pos} shared by two "
                            "evaluation classes"
                        )
        # sampled direct checks of the congruence decision itself; the
        # procedure internally asserts shared-entry vs full-equality agreement
        rng = random.Random(1009)
        flat = [m for members in classes.values() for m in members]
        for _ in range(150):
            m1, m2 = rng.choice(flat), rng.choice(flat)
            same = congruent_mod_neutral(m1, m2, grading)
            e1 = evaluate_monomial(m1, grading)
            e2 = evaluate_monomial(m2, grading)
            assert same == (e1 == e2)
        # derivations on every congruent pair of degree <= 3
        for members in classes.values():
            short = [m for m in members if len(m) <= 3]
            if len(short) < 2:
                continue
            reference = evaluate_monomial(short[0], grading)
            for a, b in itertools.combinations(short, 2):
                chain = derivation_mod_neutral(a, b, grading)
                assert chain is not None, f"{name}: no derivation {b!r} -> {a!r}"
                derivations += 1
                for step in chain:
                    assert evaluate_monomial(step.result, grading) == reference
                if chain:
                    assert chain[-1].result == a
    report(
        5,
        "congruence soundness and completeness",
        t0,
        120,
        f"{monomials_seen} monomials, {derivations} derivations",
    )


def _corpus(grading, field, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_multihomogeneous_poly(
            rng, grading, field, force_identity=rng.random() < 0.45
        )
        if f is not None:
            out.append(f)
    return out


def test_criterion_6_basis_reduction():
    """On seeded strongly multi-homogeneous polynomials the reduction verdict
    matches plain evaluation, and every identity gets a full certificate:
    zero class sums plus a short subword certificate per monomial identity
    term."""
    t0 = time.perf_counter()
    identities_certified = 0
    for name, grading in GRADINGS.items():
        for f in _corpus(grading, RATIONALS, 500, seed=zlib.crc32(name.encode())):
            red = basis_reduce(f, grading)
            direct = is_identity(f, grading)
            assert red.is_identity == direct, f"{name}: verdict mismatch on {f!r}"
            if red.is_identity:
                assert all(not c.total for c in red.classes)
                assert red.fully_certified, f"{name}: missing subword certificate"
                for term in red.identity_terms:
                    lo, hi = term.certificate
                    assert hi - lo <= 2 * grading.n - 1
                identities_certified += 1
    report(6, "basis reduction", t0, 120, f"{identities_certified} identities certified")


def _condensed_word(word, bounds, group):
    """One fresh unstarred letter per block, of degree the block's product."""
    condensed = []
    for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1):
        degree = group.identity
        for se in word[lo:hi]:
            degree = group.mul(degree, group.inv(se.element) if se.star else se.element)
        condensed.append((p, degree, False))
    return condensed


def _sampled_minimal_identities(listing, length, rng, size):
    """``size`` distinct minimal identities of one length (all of them when
    there are fewer), uniform without replacement and in listing order: the
    word of a drawn rank is found by descending the listing's counts."""
    successors, finals, counts = listing._successors, listing._finals, listing._counts
    total = counts[0][length]
    words = []
    for rank in sorted(rng.sample(range(total), min(size, total))):
        node, codes = 0, []
        for k in range(length, 1, -1):
            for code, child in successors[node]:
                if rank < counts[child][k - 1]:
                    break
                rank -= counts[child][k - 1]
            codes.append(code)
            node = child
        codes.append(finals[node][rank])
        words.append(tuple(GVar(p, code // 2, bool(code % 2)) for p, code in enumerate(codes, 1)))
    return words


def _spelled(word, group):
    """The letter names of a word, such as 'a a* a2'."""
    return " ".join(group.name_of(element) + ("*" if star else "") for _, element, star in word)


def test_criterion_7_degree_bound_probe():
    """Degree bound in its substitution reading: every subword-minimal
    monomial identity longer than 2n-1 is the image, under substituting one
    contiguous block per variable, of an identity of degree <= 2n-1.

    The words are the profile-search representatives up to 2(2n-1), the
    exhaustive list of minimal identities of degree 2n, and a seeded
    uniform sample of 48 minimal identities of each degree from 2n+1 to
    2(2n-1) (the profile search is complete only at the level of lengths,
    with one word per length and profile).  Each word is checked to be
    an identity by honest matrix multiplication, to have no contiguous
    identity subword of degree <= 2n-1 (the contiguous reading fails on
    it), and to carry a block certificate of at most 2n-1 blocks whose
    condensed word is an identity by the same honest product."""
    t0 = time.perf_counter()
    findings = []
    for name, grading in SMALL.items():
        bound = 2 * grading.n - 1
        representatives = [
            w for w in minimal_identities_up_to(grading, 2 * bound) if len(w) > bound
        ]
        exhaustive = [
            w
            for w in enumerate_monomial_identities(grading, 2 * grading.n, minimal_only=True)
            if len(w) > bound
        ]
        listing = IdentityListing(grading, 2 * bound, minimal_only=True)
        rng = random.Random(zlib.crc32(name.encode()))
        sampled = [w for length in range(2 * grading.n + 1, 2 * bound + 1)
                   for w in _sampled_minimal_identities(listing, length, rng, 48)]
        for word in dict.fromkeys(representatives + exhaustive + sampled):
            spelled = _spelled(word, grading.group)
            mono = word_monomial(word)
            assert honest_product(mono, grading).is_zero, (
                f"{name}: ({spelled}) is not an identity"
            )
            assert subword_identity_certificate(mono, grading) is None, (
                f"{name}: ({spelled}) has a contiguous identity subword"
            )
            bounds = block_certificate(mono, grading)
            assert bounds is not None, f"{name}: ({spelled}) lacks a block certificate"
            assert len(bounds) - 1 <= bound, f"{name}: ({spelled}) needs {bounds}"
            condensed = _condensed_word(word, bounds, grading.group)
            assert honest_product(word_monomial(condensed), grading).is_zero, (
                f"{name}: ({spelled}) condensed by {bounds} is not an identity"
            )
        if representatives:
            sample = _spelled(representatives[0], grading.group)
            findings.append(
                f"{name} {len(representatives)}+{len(exhaustive)}+{len(sampled)} e.g. ({sample})"
            )
    report(
        7,
        "degree-bound probe",
        t0,
        60,
        "long minimal identities (representatives up to 2(2n-1) + all of degree 2n "
        "+ a sample of each degree above 2n), "
        "none with a contiguous certificate, all block-certified: " + "; ".join(findings),
    )


def test_criterion_8_characteristic_independence():
    """The criterion 2, 4 and 6 corpora produce identical verdicts over the
    rationals, F_2 and F_5."""
    t0 = time.perf_counter()
    fields = [RATIONALS, PrimeField(2), PrimeField(5)]
    # criterion 2 corpus: the four families per grading
    for name, grading in GRADINGS.items():
        reports = [verify_basis(grading, field) for field in fields]
        for key in BASIS_FAMILIES:
            verdicts = {r[key]["pass"] for r in reports}
            assert verdicts == {True}, f"{name}/{key}: verdicts differ across fields"
    # criterion 4 corpus: exhaustive degree <= 4 with the full coefficient
    # path exercised by strided crosschecks, plus seeded degree <= 6 words
    for name, grading in SMALL.items():
        scans = [
            exhaustive_word_scan(grading, 4, field, crosscheck_stride=101)
            for field in fields
        ]
        assert all(s.passed for s in scans), f"{name}: scan failed in some field"
        assert len({(s.words, s.identities) for s in scans}) == 1
        rng = random.Random(5003)
        for _ in range(400):
            # word_monomial reads .element and .star, which a GVar has too
            mono = word_monomial(random_slotted_word(rng, grading, rng.randint(1, 6)))
            verdicts = {
                evaluate_monomial(mono, grading, field).is_zero for field in fields
            }
            assert len(verdicts) == 1, f"{name}: monomial verdict differs across fields"
    # criterion 6 corpus: same seeds, per-polynomial verdict equality
    for name, grading in GRADINGS.items():
        seed = zlib.crc32(name.encode())
        per_field = [
            [
                basis_reduce(f, grading).is_identity
                for f in _corpus(grading, field, 120, seed)
            ]
            for field in fields
        ]
        assert per_field[0] == per_field[1] == per_field[2], (
            f"{name}: reduction verdicts differ across coefficient fields"
        )
    report(8, "characteristic independence", t0, 120, "q, F2, F5")
