"""The free graded algebra with involution and its generic evaluation.

Variables come in families x_{k,g} (degree g) and x*_{k,g} (degree g^{-1});
words in them are noncommutative.  The involution reverses a word and
toggles every star.  Evaluation substitutes the generic matrix for the
slot/element pair of each plain variable and its transpose for each starred
one, landing in the sparse exact matrices of :mod:`gstar.genmat`.

The expression grammar accepted by :func:`parse_poly` (a lone '0' is zero):

    poly        := ['+' | '-'] term (('+' | '-') term)*
    term        := [coefficient] factor+
    factor      := 'x' index ':' element-name ['*']
    coefficient := int ['/' nonzero int]

Juxtaposition is the noncommutative product.  A factor (a letter) is one
token.  When every whitespace-separated chunk of the text is a whole
letter, integer, fraction or sign, the tokens come from ``str.split``, and
parsing does a few dict lookups per letter; any other text is scanned by
one regex.  Whitespace may separate any two tokens and the parts of a
letter, and every malformed input raises :class:`ParseError`; over F_p a
denominator divisible by p raises :class:`FieldError` instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import GroupError, ParseError, PreconditionError, VariableError
from .genmat import CMonomial, CPolynomial, SparseMatrix, rows_matrix, word_rows
from .gradings import Grading
from .groups import Group
from .rings import RATIONALS, SparseSum, add_term, format_coeff


class GVar(NamedTuple):
    """A free variable x_{index,element}, optionally starred."""

    index: int
    element: int
    star: bool = False

    def render(self, group: Group) -> str:
        return f"x{self.index}:{group.name_of(self.element)}" + ("*" if self.star else "")


_index_element = itemgetter(0, 1)


class GMonomial:
    """A nonempty noncommutative word of free variables."""

    __slots__ = ("letters", "_text")

    def __init__(self, letters: Sequence[GVar]):
        self.letters = tuple(letters)
        self._text = None  # (group, text) of the last rendering

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
        # a GVar is the tuple (index, element, star), so the letters order as such
        return (len(self.letters), self.letters)

    def star(self) -> "GMonomial":
        """Reverse the word and toggle every star flag."""
        return GMonomial(
            tuple(GVar(v.index, v.element, not v.star) for v in reversed(self.letters))
        )

    def multidegree(self) -> tuple:
        """The (index, element) pair of every letter, sorted: starred and
        plain letters pooled, each pair as often as it occurs."""
        return tuple(sorted(map(_index_element, self.letters)))

    def render(self, group: Group) -> str:
        # the word keeps its text for the group it last rendered with, so a
        # report renders each of its words once; a word with a letter new to
        # the group's memo renders its letters into it
        if self._text is not None and self._text[0] is group:
            return self._text[1]
        texts = group.letter_texts
        try:
            text = " ".join([texts[v] for v in self.letters])
        except KeyError:
            texts.update((v, v.render(group)) for v in self.letters)
            text = " ".join([texts[v] for v in self.letters])
        self._text = (group, text)
        return text

    def __repr__(self) -> str:
        inner = " ".join(
            f"x{v.index}:{v.element}" + ("*" if v.star else "") for v in self.letters
        )
        return f"GMonomial({inner})"


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
    return [GPolynomial(buckets[key]) for key in sorted(buckets, key=_pair_counts)]


def _pair_counts(multidegree: tuple) -> tuple:
    """((index, element), count) per distinct pair: the order of the components."""
    return tuple((pair, len(list(run))) for pair, run in groupby(multidegree))


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


# A letter x<index>:<name>[*] is one token, with whitespace allowed inside it.
# Its element name may start with 'x' unless it is of the reserved form
# x<digits>; a malformed letter does not match and falls through to the var,
# colon and name tokens, whose sequence reports its error.  Any other
# non-space character is a 'bad' token, so finditer skips only whitespace.
_TOKEN = re.compile(r"(?P<letter>x(\d+)\s*:\s*((?!x\d)[A-Za-z_][A-Za-z0-9_]*)(?:\s*(\*))?)"
                    r"|(?P<var>x\d+)|(?P<int>\d+)|(?P<colon>:)|(?P<star>\*)|(?P<plus>\+)"
                    r"|(?P<minus>-)|(?P<slash>/)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S)")


# A chunk of text between whitespace whose tokens need no scan by _TOKEN: a
# lone sign, or an optional sign and then a letter with no whitespace inside
# or an ASCII integer or fraction.  Any other chunk sends the whole text to
# _TOKEN.  An accepted chunk holds exactly the tokens that _TOKEN finds
# there, because only a letter token spans whitespace, and no accepted chunk
# ends inside a letter or starts with the star that could end one.
_CHUNK = re.compile(r"([+-]?)(?:(x[0-9]+:(?!x[0-9])[A-Za-z_][A-Za-z0-9_]*\*?)|([0-9]+)(?:/([0-9]+))?)"
                    r"|[+-]")
_SIGN = {"+": "plus", "-": "minus"}


def _chunk_kind(chunk: str):
    """The kind of a chunk that ``_CHUNK`` accepts as one token, the
    (kind, text, offset) tokens of one it accepts as several, else None."""
    match = _CHUNK.fullmatch(chunk)
    if match is None:
        return None
    sign, letter, num, den = match.groups()
    if sign is None:  # a lone sign
        return _SIGN[chunk]
    tokens = [(_SIGN[sign], sign, 0)] if sign else []
    at = len(sign)
    if letter:
        tokens.append(("letter", letter, at))
    else:
        tokens.append(("int", num, at))
        if den is not None:
            at += len(num)
            tokens += [("slash", "/", at), ("int", den, at + 1)]
    return tokens[0][0] if len(tokens) == 1 else tokens


def _split_tokens(text: str):
    """The tokens of a text whose chunks ``_CHUNK`` all accepts, else None.

    Each distinct chunk is classified once per call, and each chunk is
    found in the text from the end of the one before it.
    """
    tokens = []
    kinds: dict = {}  # chunk -> _chunk_kind(chunk), for this call only
    cursor = 0
    for chunk in text.split():
        kind = kinds.get(chunk)
        if kind is None:
            kind = kinds[chunk] = _chunk_kind(chunk)
            if kind is None:
                return None
        pos = text.find(chunk, cursor)
        cursor = pos + len(chunk)
        if isinstance(kind, str):
            tokens.append((kind, chunk, pos))
        else:
            tokens += [(part, val, pos + at) for part, val, at in kind]
    return tokens


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits converted from text
        raise ParseError("too many digits in a number", pos) from None


def _index(digits: str, pos: int) -> int:
    index = _int(digits, pos)
    if index < 1:
        raise ParseError("variable indices start at 1", pos)
    return index


def _letter(match: re.Match, group: Group) -> GVar:
    """The variable of a letter token."""
    index = _index(match[2], match.start())
    try:
        element = group.index_of(match[3])
    except GroupError:
        raise ParseError(
            f"unknown group element {match[3]!r}; known: {', '.join(group.names)}",
            match.start(3),
        ) from None
    return GVar(index, element, match[4] is not None)


def _malformed_letter(tokens: list, i: int) -> ParseError:
    """The error of the var token at ``i``, which starts no letter token.

    An index error is raised here; any other error is returned.
    """
    _, val, pos = tokens[i]
    _index(val[1:], pos)
    kind, _, pos = tokens[i + 1]
    if kind != "colon":
        return ParseError("expected ':' between index and element name", pos)
    kind, _, pos = tokens[i + 2]
    if kind == "int":
        return ParseError("element names are words, not numbers", pos)
    # a name token here would have made the three tokens one letter
    return ParseError("expected a group element name", pos)


def parse_poly(text: str, group: Group, field=RATIONALS) -> GPolynomial:
    """Parse an expression in the grammar above; see :func:`format_poly`."""
    tokens = _split_tokens(text)
    if tokens is None:
        tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text)]
        for kind, val, pos in tokens:
            if kind == "bad":
                raise ParseError(f"unexpected character {val!r}", pos)
    if not tokens:
        raise ParseError("empty expression", 0)
    if len(tokens) == 1 and tokens[0][:2] == ("int", "0"):
        return GPolynomial.zero()
    tokens.append((None, None, -1))  # end of input; no lookahead reads past it
    variables: dict = {}  # letter token text -> GVar, for this call only
    terms: dict = {}  # summed in place; a zero sum drops its word
    kind = tokens[0][0]
    negative = kind == "minus"
    i = 1 if kind in ("plus", "minus") else 0
    while True:
        kind, val, pos = tokens[i]
        coeff = field.one
        if kind == "int":
            num = _int(val, pos)
            if tokens[i + 1][0] == "slash":
                kind, den, pos = tokens[i + 2]
                if kind != "int":
                    raise ParseError("expected a denominator after '/'", pos)
                den = _int(den, pos)
                if not den:
                    raise ParseError("a denominator must be nonzero", pos)
                coeff = field.coerce(Fraction(num, den))
                i += 3
            else:
                coeff = field.coerce(num)
                i += 1
            kind, val, pos = tokens[i]
        letters = []
        while kind == "letter":
            var = variables.get(val)
            if var is None:
                var = variables[val] = _letter(_TOKEN.match(text, pos), group)
            letters.append(var)
            i += 1
            kind, val, pos = tokens[i]
        if kind == "var":
            raise _malformed_letter(tokens, i)
        if not letters:
            raise ParseError("a term needs at least one variable", pos)
        add_term(terms, GMonomial(letters), -coeff if negative else coeff)
        if kind is None:
            return GPolynomial(terms)
        if kind not in ("plus", "minus"):
            raise ParseError("expected '+', '-' or end of expression", pos)
        negative = kind == "minus"
        i += 1


def format_poly(f: GPolynomial, group: Group) -> str:
    """Canonical text form; round-trips through :func:`parse_poly`."""
    if f.is_zero:
        return "0"
    chunks = []
    for k, (mono, coeff) in enumerate(f.terms_sorted()):
        neg = _is_negative(coeff)
        mag = -coeff if neg else coeff
        body = mono.render(group)
        piece = body if mag == 1 else f"{format_coeff(mag)} {body}"
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
