"""The word kernel: generic evaluation of a word without matrix multiplication.

A generic matrix for (slot, g) places one fresh variable y[slot,row,col]
on each unit of degree g (see :mod:`gstar.reference`); its starred
companion is the transpose.  Products of generic matrices are extremely
sparse: at most one nonzero entry per row, always a single monomial with
coefficient one.  The word kernel ``iter_rows`` reads them off the
grading's hat table one start row at a time, and every evaluation
iterates it directly.
An entry variable is the plain (slot, row, col) triple, and a letter the
plain (slot, element, star) triple, such as a :class:`~gstar.freealg.GVar`,
on every path; an entry monomial is the sorted tuple of its entry
variables, and a word the tuple of its letters.

The independent oracle that ``selftest`` and the tests compare the kernel
against is ``reference.honest_product``: it multiplies the generic
matrices of the factors, built from the unit degrees rather than from the
hat table.  ``SparseMatrix`` and ``CPolynomial``, which both sides build,
are defined in :mod:`gstar.reference` too.
"""

from __future__ import annotations

from typing import Sequence

from .errors import GradingError, PreconditionError
from .gradings import Grading
from .reference import CPolynomial, SparseMatrix
from .rings import RATIONALS


def iter_rows(word: Sequence[tuple], grading: Grading):
    """The word kernel: walk each start row through a slotted word in turn.

    ``word`` holds (slot, element, star) triples, such as the letters of a
    word; each moves a row along the hat of its signed degree.  Every
    element is range-checked and every letter's hat row looked up once,
    before the first walk.  Yields (start, end, variables) per surviving
    start row, lazily and in increasing order of start: the generic
    product's entry at (start, end) is the monomial of the variables,
    variables[p] = y[slot, a, b] for factor p stepping from row a to row b
    (y[slot, b, a] if starred).  Yields nothing exactly for identities.
    """
    hats, order, inverse = grading.hats, grading.group.order, grading.group.inverse
    steps = []
    for slot, element, star in word:
        if not 0 <= element < order:
            raise GradingError(f"element index {element} outside the group")
        steps.append((slot, hats[inverse[element] if star else element], star))
    for start in range(grading.n):
        row, variables = start, []
        for slot, step, star in steps:
            col = step[row]
            if col is None:
                break
            variables.append((slot, col, row) if star else (slot, row, col))
            row = col
        else:
            yield start, row, tuple(variables)


def evaluation_key(word: Sequence[tuple], grading: Grading) -> tuple:
    """The generic evaluation of a slotted word as a hashable key.

    One (start, end, sorted variables) per kernel row: two words evaluate
    alike exactly when their keys agree, and the key is empty exactly for
    identities.  Every entry is monic, so no coefficient field is involved.
    """
    return tuple((start, end, tuple(sorted(v))) for start, end, v in iter_rows(word, grading))


def closed_form_product(word: Sequence[tuple], grading: Grading, field=RATIONALS) -> SparseMatrix:
    """Product of generic matrices computed without matrix multiplication.

    ``word`` holds (slot, element, star) letters, one per factor; each row
    of the word kernel is one monic monomial entry.
    """
    if not word:
        raise PreconditionError("cannot evaluate the empty word")
    one = field.one
    return SparseMatrix(grading.n, {
        (start, end): CPolynomial({tuple(sorted(variables)): one})
        for start, end, variables in iter_rows(word, grading)
    })
