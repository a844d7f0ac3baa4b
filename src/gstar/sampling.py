"""Seeded generators and a small catalog of standard gradings.

Shared by the self-test runner, the pytest suite and the experiment
scripts, so that every randomized check is reproducible from a seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .freealg import GPolynomial, GVar, multidegree, star_word
from .gradings import Grading, build_grading
from .groups import Group, make_cyclic, make_from_table
from .genmat import evaluation_key
from .identities import neutral_factors


def klein_group() -> Group:
    """The Klein four-group: three commuting involutions."""
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return make_from_table(["e", "a", "b", "c"], table)


def symmetric_group3() -> Group:
    """S_3 as permutations of three points; r, rr rotations, a, b, c flips."""
    perms = [
        (0, 1, 2),  # e
        (1, 2, 0),  # r
        (2, 0, 1),  # rr
        (0, 2, 1),  # a
        (2, 1, 0),  # b
        (1, 0, 2),  # c
    ]
    index = {p: i for i, p in enumerate(perms)}

    def mul(p, q):  # apply p first, then q
        return tuple(q[p[i]] for i in range(3))

    table = [[index[mul(p, q)] for q in perms] for p in perms]
    return make_from_table(["e", "r", "rr", "a", "b", "c"], table)


def standard_gradings() -> dict[str, Grading]:
    """The desk-scale test family used throughout the acceptance checks."""
    s3 = symmetric_group3()
    return {
        "Z2:(e,a)": build_grading(make_cyclic(2), ["e", "a"]),
        "Z4:(e,a,a2)": build_grading(make_cyclic(4), ["e", "a", "a2"]),
        "Z6:(e,a,a2)": build_grading(make_cyclic(6), ["e", "a", "a2"]),
        "Klein:(e,a,b)": build_grading(klein_group(), ["e", "a", "b"]),
        "S3:(e,r,rr)": build_grading(s3, ["e", "r", "rr"]),
        "S3:(e,r,a)": build_grading(s3, ["e", "r", "a"]),
    }


def crossed_product_grading(order: int) -> Grading:
    """Cyclic group of the given order with the full-group defining tuple."""
    g = make_cyclic(order)
    return build_grading(g, list(range(order)))


def random_grading(rng: random.Random, max_n: int = 5) -> Grading:
    """A random elementary grading over a random small group."""
    kind = rng.randrange(3)
    if kind == 0:
        group = make_cyclic(rng.randint(2, 8))
    elif kind == 1:
        group = klein_group()
    else:
        group = symmetric_group3()
    n = rng.randint(1, min(max_n, group.order))
    entries = rng.sample(range(group.order), n)
    # the defining tuple need not contain the identity; mix both shapes
    if group.identity not in entries and rng.random() < 0.5:
        entries[0] = group.identity
    return build_grading(group, entries)


def random_slotted_word(
    rng: random.Random, grading: Grading, length: int, repeat_slots: bool = False
) -> list[GVar]:
    support = grading.support_sorted()
    pairs = [(rng.choice(support), rng.random() < 0.5) for _ in range(length)]
    if repeat_slots and length > 1:
        slots = [rng.randint(1, max(1, length - 1)) for _ in range(length)]
    else:
        slots = list(range(1, length + 1))
        rng.shuffle(slots)
    return [GVar(slot, element, star) for slot, (element, star) in zip(slots, pairs)]


def random_monomial(
    rng: random.Random,
    grading: Grading,
    length: int,
    allow_off_support: bool = False,
) -> tuple:
    """A random word with random stars and variable indices 1..4."""
    pool = grading.support_sorted()
    if allow_off_support and grading.off_support() and rng.random() < 0.3:
        pool = pool + grading.off_support()
    return tuple([
        GVar(rng.randint(1, 4), rng.choice(pool), rng.random() < 0.5) for _ in range(length)
    ])


def shuffled_monomial(rng: random.Random, base: tuple) -> tuple:
    """A random word over the same (index, element) multiset with fresh stars."""
    letters = list(base)
    rng.shuffle(letters)
    return tuple([GVar(index, element, rng.random() < 0.5) for index, element, _ in letters])


def congruent_partner(
    rng: random.Random, mono: tuple, grading: Grading
) -> Optional[tuple]:
    """A monomial provably congruent to ``mono``: a random rewrite walk of
    up to four steps.

    Each step stars one neutral factor (``identities.neutral_factors``),
    drawn uniformly, so the result has the same generic evaluation by
    construction.  None when the word admits no move at all.
    """
    cur = mono
    moved = False
    for _ in range(4):
        factors = list(neutral_factors(cur, grading.group))
        if not factors:
            break
        i, j = rng.choice(factors)
        cur = cur[:i] + star_word(cur[i:j]) + cur[j:]
        moved = True
    return cur if moved else None


def random_multihomogeneous_poly(
    rng: random.Random,
    grading: Grading,
    field,
    force_identity: bool = False,
) -> Optional[GPolynomial]:
    """A strongly multi-homogeneous polynomial of at most six terms over a
    random multiset of at most five letters.

    Coefficients are +1/-1 only, and engineered identities are built as
    exactly cancelling congruent pairs plus monomial identity terms, so the
    verdict does not depend on the coefficient field.  Non-identity parts
    keep one monomial per congruence class to the same end.
    """
    length = rng.randint(1, 5)
    base = random_monomial(rng, grading, length, allow_off_support=not force_identity)
    one = field.one
    terms: dict[tuple, object] = {}
    singleton_classes: set = set()

    def add(m: tuple, c) -> bool:
        # never merge coefficients: every stored coefficient stays +1 or -1,
        # so class sums land in {0, +1, -1} in any coefficient field
        if m in terms:
            return False
        terms[m] = c
        return True

    budget = rng.randint(1, 6)
    while budget > 0:
        m = shuffled_monomial(rng, base)
        budget -= 1
        sign = one if rng.random() < 0.5 else -one
        key = evaluation_key(m, grading)
        if not key:
            add(m, sign)
            continue
        if force_identity or rng.random() < 0.5:
            partner = congruent_partner(rng, m, grading)
            if (
                partner is not None
                and partner != m
                and budget > 0
                and m not in terms
                and partner not in terms
            ):
                add(m, sign)
                add(partner, -sign)
                budget -= 1
                continue
            if force_identity:
                continue
        if key in singleton_classes:
            continue
        if add(m, sign):
            singleton_classes.add(key)
    if not terms:
        return None
    poly = GPolynomial(terms)
    degrees = {multidegree(m) for m in poly.terms}
    if len(degrees) != 1:
        raise AssertionError("generator produced a non-multihomogeneous polynomial")
    return poly
