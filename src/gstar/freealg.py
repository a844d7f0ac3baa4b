"""The free graded algebra with involution and its generic evaluation.

Variables come in families x_{k,g} (degree g) and x*_{k,g} (degree g^{-1});
words in them are noncommutative.  The involution reverses a word and
toggles every star.  Evaluation substitutes the generic matrix for the
slot/element pair of each plain variable and its transpose for each starred
one, landing in the sparse exact matrices of :mod:`gstar.genmat`.

The expression grammar accepted by :func:`parse_poly`:

    poly   := term (('+' | '-') term)*
    term   := [coefficient] factor+
    factor := 'x' index ':' element-name ['*']

Juxtaposition (whitespace) is the noncommutative product; a coefficient is
an optional integer or integer/integer.  A leading '+'/'-' sign on the
first term is tolerated.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple, Sequence

from .errors import ParseError, PreconditionError, VariableError
from .genmat import CMonomial, CPolynomial, SparseMatrix, rows_matrix, word_rows
from .gradings import Grading, SignedElement, signed_degree
from .groups import Group
from .rings import RATIONALS, SparseSum, add_term


class GVar(NamedTuple):
    """A free variable x_{index,element}, optionally starred."""

    index: int
    element: int
    star: bool = False

    def render(self, group: Group) -> str:
        return f"x{self.index}:{group.name_of(self.element)}" + ("*" if self.star else "")


class GMonomial:
    """A nonempty noncommutative word of free variables."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[GVar]):
        self.letters = tuple(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "GMonomial") -> "GMonomial":
        return GMonomial(self.letters + other.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GMonomial) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def sort_key(self) -> tuple:
        return (len(self.letters), tuple((v.index, v.element, v.star) for v in self.letters))

    def star(self) -> "GMonomial":
        """Reverse the word and toggle every star flag."""
        return GMonomial(
            tuple(GVar(v.index, v.element, not v.star) for v in reversed(self.letters))
        )

    def multidegree(self) -> tuple:
        """Counts of each (index, element) pair, starred and plain pooled."""
        counts = Counter((v.index, v.element) for v in self.letters)
        return tuple(sorted(counts.items()))

    def signed_word(self) -> tuple[SignedElement, ...]:
        return tuple(SignedElement(v.element, v.star) for v in self.letters)

    def render(self, group: Group) -> str:
        return " ".join(v.render(group) for v in self.letters)

    def __repr__(self) -> str:
        inner = " ".join(
            f"x{v.index}:{v.element}" + ("*" if v.star else "") for v in self.letters
        )
        return f"GMonomial({inner})"


def gdegree(mono: GMonomial, group: Group) -> int:
    """Graded degree of a word: the ordered product of its letter degrees."""
    if not len(mono):
        raise PreconditionError("the empty word has no graded degree here")
    acc = group.identity
    for v in mono:
        acc = group.mul(acc, signed_degree(v.element, v.star, group))
    return acc


def subword(mono: GMonomial, start: int, stop: int) -> GMonomial:
    """The contiguous factor mono[start:stop], 0-based and half-open."""
    if not (0 <= start < stop <= len(mono)):
        raise PreconditionError(
            f"subword range [{start},{stop}) invalid for a word of length {len(mono)}"
        )
    return GMonomial(mono.letters[start:stop])


class GPolynomial(SparseSum):
    """A finite sum coeff * word in the free algebra; see :class:`SparseSum`."""

    __slots__ = ()

    def render(self, group: Group) -> str:
        return format_poly(self, group)

    def __repr__(self) -> str:
        return f"GPolynomial({len(self.terms)} terms)"


def variable(index: int, element: int, star: bool = False, one=None) -> GPolynomial:
    """The single-letter polynomial x{index}:{element}, starred if asked."""
    if one is None:
        one = RATIONALS.one
    return GPolynomial({GMonomial([GVar(index, element, star)]): one})


def star_polynomial(f: GPolynomial) -> GPolynomial:
    """The involution: reverse every word, toggle every star."""
    return GPolynomial({m.star(): c for m, c in f.terms.items()})


def multihomogeneous_components(f: GPolynomial) -> list[GPolynomial]:
    """Split into strongly multi-homogeneous parts.

    Terms are grouped by the counts, per (index, element) pair, of plain
    plus starred occurrences.  The parts sum to f, and f is an identity
    precisely when every part is (scaling one variable family at a time
    over an infinite field separates the parts).
    """
    buckets: dict[tuple, dict] = {}
    for m, c in f.terms.items():
        buckets.setdefault(m.multidegree(), {})[m] = c
    return [GPolynomial(buckets[key]) for key in sorted(buckets)]


def _check_elements(f: GPolynomial, grading: Grading) -> None:
    order = grading.group.order
    for m in f.terms:
        if not len(m):
            raise PreconditionError("cannot evaluate the empty word")
        for v in m:
            if not 0 <= v.element < order:
                raise VariableError(
                    f"variable x{v.index} refers to element index {v.element}, "
                    f"but the group has order {order}"
                )


def evaluate_monomial(mono: GMonomial, grading: Grading, field=RATIONALS) -> SparseMatrix:
    """The product of generic matrices substituted for the word's letters."""
    if not len(mono):
        raise PreconditionError("cannot evaluate the empty word")
    return rows_matrix(word_rows(mono.letters, grading), grading.n, field.one)


def evaluate(f: GPolynomial, grading: Grading, field=RATIONALS) -> SparseMatrix:
    """Generic evaluation of a polynomial; zero exactly for identities."""
    _check_elements(f, grading)
    sums: dict = {}  # position -> {monomial: coefficient}, summed in place
    for mono, coeff in f.terms.items():
        coeff = field.one * coeff
        for start, end, variables in word_rows(mono.letters, grading):
            add_term(sums.setdefault((start, end), {}), CMonomial(variables), coeff)
    return SparseMatrix(grading.n, {pos: CPolynomial(terms) for pos, terms in sums.items()})


# variables tokenize as one unit, so element names may start with 'x' as long
# as they are not themselves of the reserved form x<digits>
_TOKEN = re.compile(r"\s*(?:(?P<var>x\d+)|(?P<int>\d+)|(?P<colon>:)|(?P<star>\*)"
                    r"|(?P<plus>\+)|(?P<minus>-)|(?P<slash>/)|(?P<name>[A-Za-z_][A-Za-z0-9_]*))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        pos = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
    return out


class _Parser:
    def __init__(self, tokens, group: Group, field):
        self.tokens = tokens
        self.i = 0
        self.group = group
        self.field = field

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, -1)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse_factor(self) -> GVar:
        kind, val, pos = self.take()
        if kind == "name" and val == "x":
            raise ParseError("expected a variable index after 'x'", pos)
        if kind != "var":
            raise ParseError("expected a variable starting with 'x'", pos)
        index = int(val[1:])
        if index < 1:
            raise ParseError("variable indices start at 1", pos)
        kind, _, pos = self.take()
        if kind != "colon":
            raise ParseError("expected ':' between index and element name", pos)
        kind, val, pos = self.take()
        if kind == "int":
            raise ParseError("element names are words, not numbers", pos)
        if kind != "name":
            raise ParseError("expected a group element name", pos)
        try:
            element = self.group.index_of(val)
        except Exception:
            raise ParseError(
                f"unknown group element {val!r}; known: {', '.join(self.group.names)}", pos
            ) from None
        star = False
        if self.peek()[0] == "star":
            self.take()
            star = True
        return GVar(index, element, star)

    def parse_coefficient(self):
        kind, val, _ = self.peek()
        if kind != "int":
            return self.field.one
        self.take()
        num = int(val)
        if self.peek()[0] == "slash":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise ParseError("expected a denominator after '/'", pos)
            from fractions import Fraction

            return self.field.coerce(Fraction(num, int(val)))
        return self.field.coerce(num)

    def parse_term(self) -> tuple:
        coeff = self.parse_coefficient()
        letters = []
        while self.peek()[0] == "var":
            letters.append(self.parse_factor())
        if not letters:
            kind, _, pos = self.peek()
            if kind is None:
                raise ParseError("a term needs at least one variable", 0)
            raise ParseError("a term needs at least one variable", pos)
        return GMonomial(letters), coeff

    def parse_poly(self) -> GPolynomial:
        terms: dict = {}  # summed in place; a zero sum drops its word
        sign = 1
        if self.peek()[0] in ("plus", "minus"):
            kind, _, _ = self.take()
            sign = -1 if kind == "minus" else 1
        while True:
            mono, coeff = self.parse_term()
            if sign < 0:
                coeff = -coeff
            add_term(terms, mono, coeff)
            kind, _, pos = self.peek()
            if kind is None:
                return GPolynomial(terms)
            if kind == "plus":
                sign = 1
            elif kind == "minus":
                sign = -1
            else:
                raise ParseError("expected '+', '-' or end of expression", pos)
            self.take()


def parse_poly(text: str, group: Group, field=RATIONALS) -> GPolynomial:
    """Parse an expression in the grammar above; see :func:`format_poly`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    if len(tokens) == 1 and tokens[0][:2] == ("int", "0"):
        return GPolynomial.zero()
    return _Parser(tokens, group, field).parse_poly()


def _format_coeff(c) -> str:
    if hasattr(c, "denominator") and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def format_poly(f: GPolynomial, group: Group) -> str:
    """Canonical text form; round-trips through :func:`parse_poly`."""
    if f.is_zero:
        return "0"
    chunks = []
    for k, (mono, coeff) in enumerate(f.terms_sorted()):
        neg = _is_negative(coeff)
        mag = -coeff if neg else coeff
        body = mono.render(group)
        piece = body if mag == 1 else f"{_format_coeff(mag)} {body}"
        if k == 0:
            chunks.append(f"-{piece}" if neg else piece)
        else:
            chunks.append(f"- {piece}" if neg else f"+ {piece}")
    return " ".join(chunks)


def _is_negative(c) -> bool:
    try:
        return c < 0
    except TypeError:
        return False
