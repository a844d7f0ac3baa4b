"""Generic graded matrices over an exact commutative polynomial ring.

The entry variables y[slot,row,col] are commuting indeterminates; a generic
matrix for (slot, g) places one fresh variable on each position (i, hat(g)(i))
of the grading's pattern for g.  Its starred companion is the transpose.
Products of generic matrices are extremely sparse: at most one nonzero entry
per row, always a single monomial with coefficient one.  The word kernel
``iter_rows`` reads them off the grading's hat table one start row at a
time, and every evaluation iterates it directly.
An entry variable is the plain (slot, row, col) triple, and a letter the
plain (slot, element, star) triple, such as a :class:`~gstar.freealg.GVar`,
on every path; an entry monomial is the sorted tuple of its entry
variables, and a word the tuple of its letters.

``honest_product`` is the independent oracle that ``selftest`` and the tests
compare the kernel against: it multiplies the generic matrices of the
factors with ``SparseMatrix.__matmul__``.  It follows the definition rather
than the kernel: a starred factor is the plain generic matrix transposed, so
the oracle never reads the hat table at an inverse element.  Each generic
matrix is built once per grading and field, from ``Grading.hat``, and kept
in a memo that dies with the grading.

(row, col) pairs are 0-based.  Every in-range pair hosts a variable, because
(row, col) determines the unique group element g_row^{-1} g_col whose pattern
passes through it.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from operator import matmul
from typing import Sequence
from weakref import WeakKeyDictionary

from .errors import GradingError, PreconditionError, ShapeError
from .gradings import Grading
from .rings import RATIONALS, SparseSum, add_term, format_coeff, signed_sum


def render_entry_monomial(mono: tuple) -> str:
    """The text of an entry monomial, a sorted tuple of (slot, row, col)
    variables: y[slot,row,col] factors joined by '*', a repeated one as a
    power; '1' for the empty monomial."""
    if not mono:
        return "1"
    parts = []
    for (slot, row, col), grp in groupby(mono):
        k = len(list(grp))
        text = f"y[{slot},{row},{col}]"
        parts.append(text if k == 1 else f"{text}^{k}")
    return "*".join(parts)


class CPolynomial(SparseSum):
    """A finite sum coeff * monomial in the entry variables; see :class:`SparseSum`.

    A monomial is the sorted tuple of its (slot, row, col) variables, ()
    for 1.
    """

    __slots__ = ()
    product = staticmethod(lambda m1, m2: tuple(sorted(m1 + m2)))  # a sorted merge
    order = None  # tuple order

    def canonical_key(self) -> tuple:
        return tuple(self.terms_sorted())

    def render(self) -> str:
        return signed_sum([(render_entry_monomial(m), format_coeff(c))
                           for m, c in self.terms_sorted()], "*")

    def __repr__(self) -> str:
        return f"CPolynomial({self.render()})"


class SparseMatrix:
    """A square matrix over CPolynomial; zero entries are never stored."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict):
        self.n = n
        self.entries = {pos: p for pos, p in entries.items() if p}

    @classmethod
    def _trusted(cls, n: int, entries: dict) -> "SparseMatrix":
        """Wrap entries that hold no zero polynomial by construction, unfiltered."""
        m = object.__new__(cls)
        m.n, m.entries = n, entries
        return m

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.n != other.n:
            raise ShapeError(f"size mismatch: {self.n} vs {other.n}")
        by_row: dict[int, list] = {}
        for (r, c), p in other.entries.items():
            by_row.setdefault(r, []).append((c, p))
        out: dict = {}
        for (i, k), p in self.entries.items():
            for j, q in by_row.get(k, ()):
                add_term(out, (i, j), p * q)
        return SparseMatrix._trusted(self.n, out)  # add_term stores no zero

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.n, {(c, r): p for (r, c), p in self.entries.items()})

    def nonzero_items(self) -> list:
        return sorted(self.entries.items())

    def canonical_key(self) -> tuple:
        return tuple((pos, p.canonical_key()) for pos, p in self.nonzero_items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.n == other.n
            and self.entries == other.entries
        )

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return "\n".join(f"({r},{c}) {p.render()}" for (r, c), p in self.nonzero_items())

    def __repr__(self) -> str:
        return f"SparseMatrix(n={self.n}, nnz={len(self.entries)})"


def generic_matrix_signed(letter: tuple, grading: Grading, field=RATIONALS) -> SparseMatrix:
    """The generic matrix of one (slot, element, star) letter: y[slot,i,j]
    at (i, j) along the plain pattern of the element, or at (j, i) if it is
    starred."""
    slot, element, star = letter
    one = field.one
    hat = grading.hat(element)
    entries = {}
    for i in hat.domain():
        j = hat(i)
        entries[(j, i) if star else (i, j)] = CPolynomial({((slot, i, j),): one})
    return SparseMatrix(grading.n, entries)


# grading -> {(slot, element, star, field): generic matrix}, each entry
# built on first use and dropped with its grading
_GENERIC_MATRICES: WeakKeyDictionary = WeakKeyDictionary()


def honest_product(word: Sequence[tuple], grading: Grading, field=RATIONALS) -> SparseMatrix:
    """The product of the generic matrices of a nonempty word's (slot,
    element, star) letters, by sparse matrix multiplication.

    The factors come from the grading's memo of generic matrices; a product
    of two or more shares no object with them, and a one-letter word gets a
    matrix built afresh.
    """
    if not word:
        raise PreconditionError("cannot evaluate the empty word")
    if len(word) == 1:
        return generic_matrix_signed(word[0], grading, field)
    memo = _GENERIC_MATRICES.setdefault(grading, {})
    factors = []
    for letter in word:
        key = (*letter, field)
        matrix = memo.get(key)
        if matrix is None:
            matrix = memo[key] = generic_matrix_signed(letter, grading, field)
        factors.append(matrix)
    return reduce(matmul, factors)


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
