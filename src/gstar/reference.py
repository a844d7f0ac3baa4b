"""Independent references: the definitions that the fast path is checked against.

All of them are built from one primitive, ``unit_degree``: the matrix unit
e_ij has degree g_i^{-1} g_j, so each 0-based (i, j) hosts the variable of
exactly one element.  ``row_steps`` lists the units of each degree as row
steps i -> j; the generic matrices put y[slot,i,j] there, ``honest_product``
multiplies them, and ``selftest`` walks rows along them.  A grading is read
only through its group, size and defining tuple, never through the tables
that the word kernel and the composition graph step.  The module imports
nothing of gstar but ``groups``, ``rings`` and ``errors``.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from operator import matmul
from typing import Iterable, Optional, Sequence
from weakref import WeakKeyDictionary

from .errors import GradingError, PreconditionError, ShapeError
from .rings import RATIONALS, SparseSum, add_term, format_coeff, signed_sum


def unit_degree(grading, row: int, col: int) -> int:
    """Degree of the matrix unit e_{row,col}: g_row^{-1} g_col."""
    if not (0 <= row < grading.n and 0 <= col < grading.n):
        raise PreconditionError(f"unit position ({row},{col}) outside 0..{grading.n - 1}")
    g = grading.group
    return g.mul(g.inv(grading.defining_tuple[row]), grading.defining_tuple[col])


def row_steps(grading, element: int) -> dict[int, int]:
    """The units of an element's degree as row steps: i -> j exactly when
    g_i^{-1} g_j is the element, in increasing order of i."""
    if not 0 <= element < grading.group.order:
        raise GradingError(f"element index {element} outside the group")
    n = grading.n
    return {i: j for i in range(n) for j in range(n) if unit_degree(grading, i, j) == element}


def unit_product(units: Sequence[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """Multiply matrix units e_{ab}; None when a middle index mismatches."""
    if not units:
        raise PreconditionError("empty unit product")
    a, b = units[0]
    for c, d in units[1:]:
        if b != c:
            return None
        b = d
    return (a, b)


class PartialInjection:
    """An injective partial self-map of {0..n-1}, stored as a target tuple."""

    __slots__ = ("targets",)

    def __init__(self, targets: Iterable[Optional[int]]):
        t = tuple(targets)
        hit = [x for x in t if x is not None]
        if len(hit) != len(set(hit)):
            raise PreconditionError(f"targets {t} are not injective")
        if any(not 0 <= x < len(t) for x in hit):
            raise PreconditionError(f"targets {t} leave the index range")
        self.targets = t

    @classmethod
    def _trusted(cls, targets: tuple[Optional[int], ...]) -> "PartialInjection":
        """Wrap a target tuple that is injective by construction, unchecked."""
        pi = object.__new__(cls)
        pi.targets = targets
        return pi

    @classmethod
    def identity(cls, n: int) -> "PartialInjection":
        return cls(range(n))

    @property
    def n(self) -> int:
        return len(self.targets)

    def __call__(self, i: int) -> Optional[int]:
        return self.targets[i]

    def domain(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.targets) if x is not None)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(x for x in self.targets if x is not None))

    @property
    def is_empty(self) -> bool:
        return all(x is None for x in self.targets)

    def then(self, other: "PartialInjection") -> "PartialInjection":
        """Composition with ``self`` applied first."""
        then = other.targets
        return PartialInjection._trusted(tuple(x if x is None else then[x] for x in self.targets))

    def inverse(self) -> "PartialInjection":
        t: list[Optional[int]] = [None] * self.n
        for i, x in enumerate(self.targets):
            if x is not None:
                t[x] = i
        return PartialInjection._trusted(tuple(t))

    def as_dict(self) -> dict[int, int]:
        return {i: x for i, x in enumerate(self.targets) if x is not None}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialInjection) and self.targets == other.targets

    def __hash__(self) -> int:
        return hash(self.targets)

    def __repr__(self) -> str:
        return f"PartialInjection({self.as_dict()})"


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


def generic_matrix_signed(letter: tuple, grading, field=RATIONALS) -> SparseMatrix:
    """The generic matrix of one (slot, element, star) letter: y[slot,i,j]
    at (i, j) for each unit e_ij of the element's degree, or at (j, i) if
    it is starred."""
    slot, element, star = letter
    one = field.one
    return SparseMatrix(grading.n, {
        (j, i) if star else (i, j): CPolynomial({((slot, i, j),): one})
        for i, j in row_steps(grading, element).items()
    })


# grading -> {(slot, element, star, field): generic matrix}, each entry
# built on first use and dropped with its grading
_GENERIC_MATRICES: WeakKeyDictionary = WeakKeyDictionary()


def honest_product(word: Sequence[tuple], grading, field=RATIONALS) -> SparseMatrix:
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
