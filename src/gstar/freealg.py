"""The free graded algebra with involution and its generic evaluation.

Variables come in families x_{k,g} (degree g) and x*_{k,g} (degree g^{-1});
words in them are noncommutative, and a word is the plain tuple of its
(index, element, star) letters.  The involution reverses a word and
toggles every star.  Evaluation substitutes the generic matrix for the
slot/element pair of each plain variable and its transpose for each starred
one, landing in the sparse exact matrices of :mod:`gstar.reference`.

The expression grammar accepted by :func:`parse_poly` (a lone '0' is zero):

    poly        := ['+' | '-'] term (('+' | '-') term)*
    term        := [coefficient] factor+
    factor      := 'x' index ':' element-name ['*']
    coefficient := int ['/' nonzero int]

Juxtaposition is the noncommutative product.  A factor (a letter) is one
token.  A text without error whose whitespace-separated chunks are all
whole letters, integers, fractions and signs is parsed straight from
``str.split``, at one dict lookup per letter; any other text is scanned by
one regex.  Whitespace may separate any two tokens and the parts of a
letter, and every malformed input raises :class:`ParseError`; over F_p a
denominator divisible by p raises :class:`FieldError` instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from operator import add, itemgetter
from typing import NamedTuple, Sequence

from .errors import GroupError, ParseError, PreconditionError
from .genmat import closed_form_product, iter_rows
from .gradings import Grading
from .groups import Group
from .reference import CPolynomial, SparseMatrix
from .rings import RATIONALS, SparseSum, add_term, format_coeff, signed_sum


class GVar(NamedTuple):
    """A free variable x_{index,element}, optionally starred."""

    index: int
    element: int
    star: bool = False


_index_element = itemgetter(0, 1)


def star_word(word: Sequence[tuple]) -> tuple:
    """The involution of a word of (index, element, star) letters: reverse
    it and toggle every star flag."""
    return tuple([GVar(index, element, not star) for index, element, star in reversed(word)])


def multidegree(word: Sequence[tuple]) -> tuple:
    """The (index, element) pair of every letter, sorted: starred and plain
    letters pooled, each pair as often as it occurs."""
    return tuple(sorted(map(_index_element, word)))


def render_word(word: Sequence[tuple], group: Group) -> str:
    """The text of a word, such as 'x1:a x2:e*'.  Each letter's text is
    kept in the group's memo, which a letter new to it is rendered into."""
    texts = group.letter_texts
    try:
        return " ".join([texts[v] for v in word])
    except KeyError:
        texts.update((v, _letter_text(v, group)) for v in word)
        return " ".join([texts[v] for v in word])


def _letter_text(letter: tuple, group: Group) -> str:
    index, element, star = letter
    return f"x{index}:{group.name_of(element)}" + ("*" if star else "")


class GPolynomial(SparseSum):
    """A finite sum coeff * word in the free algebra; see :class:`SparseSum`.

    A word is the nonempty tuple of its letters.
    """

    __slots__ = ()
    product = staticmethod(add)  # concatenation
    order = staticmethod(lambda word: (len(word), word))  # by length, then by letters

    def render(self, group: Group) -> str:
        return format_poly(self, group)

    def __repr__(self) -> str:
        return f"GPolynomial({len(self.terms)} terms)"


def variable(index: int, element: int, star: bool = False, one=None) -> GPolynomial:
    """The single-letter polynomial x{index}:{element}, starred if asked."""
    if one is None:
        one = RATIONALS.one
    return GPolynomial({(GVar(index, element, star),): one})


def star_polynomial(f: GPolynomial) -> GPolynomial:
    """The involution: reverse every word, toggle every star."""
    return GPolynomial({star_word(m): c for m, c in f.terms.items()})


def multihomogeneous_components(f: GPolynomial) -> list[GPolynomial]:
    """Split into strongly multi-homogeneous parts.

    Terms are grouped by the counts, per (index, element) pair, of plain
    plus starred occurrences.  The parts sum to f, and f is an identity
    precisely when every part is (scaling one variable family at a time
    over an infinite field separates the parts).
    """
    buckets: dict[tuple, dict] = {}
    for m, c in f.terms.items():
        buckets.setdefault(multidegree(m), {})[m] = c
    return [GPolynomial(buckets[key]) for key in sorted(buckets, key=_pair_counts)]


def _pair_counts(multidegree: tuple) -> tuple:
    """((index, element), count) per distinct pair: the order of the components."""
    return tuple((pair, len(list(run))) for pair, run in groupby(multidegree))


def evaluate_monomial(word: Sequence[tuple], grading: Grading, field=RATIONALS) -> SparseMatrix:
    """The product of generic matrices substituted for the word's letters:
    ``genmat.closed_form_product``, under the name the benchmark spans use."""
    return closed_form_product(word, grading, field)


def evaluate(f: GPolynomial, grading: Grading, field=RATIONALS) -> SparseMatrix:
    """Generic evaluation of a polynomial; zero exactly for identities.  A
    letter outside the group raises the word kernel's ``GradingError``."""
    if () in f.terms:
        raise PreconditionError("cannot evaluate the empty word")
    sums: dict = {}  # position -> {monomial: coefficient}, summed in place
    for mono, coeff in f.terms.items():
        coeff = field.one * coeff
        for start, end, variables in iter_rows(mono, grading):
            add_term(sums.setdefault((start, end), {}), tuple(sorted(variables)), coeff)
    return SparseMatrix(grading.n, {pos: CPolynomial(terms) for pos, terms in sums.items()})


# A letter x<index>:<name>[*] is one token, with whitespace allowed inside it.
# Its element name may start with 'x' unless it is of the reserved form
# x<digits>; a malformed letter does not match and falls through to the var,
# colon and name tokens, whose sequence reports its error.  Any other
# non-space character is a 'bad' token, so finditer skips only whitespace.
_TOKEN = re.compile(r"(?P<letter>x(\d+)\s*:\s*((?!x\d)[A-Za-z_][A-Za-z0-9_]*)(?:\s*(\*))?)"
                    r"|(?P<var>x\d+)|(?P<int>\d+)|(?P<colon>:)|(?P<star>\*)|(?P<plus>\+)"
                    r"|(?P<minus>-)|(?P<slash>/)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S)")


# A chunk between whitespace that _direct_parse reads: a sign, a letter with
# no whitespace inside or an ASCII integer or fraction, or a sign and one of
# those.  _TOKEN finds the same tokens in it, as only a letter token spans
# whitespace and no such chunk ends inside a letter or starts with its star.
_WHOLE = re.compile(r"([+-]?)(?:x([0-9]+):((?!x[0-9])[A-Za-z_][A-Za-z0-9_]*)(\*?)"
                    r"|([0-9]+)(?:/([0-9]+))?)?")


def _chunk_item(chunk: str, group: Group, field):
    """The (sign, coefficient, letter) of a chunk, '' or None where absent;
    None for a chunk that ``_WHOLE`` or the scan rejects."""
    match = _WHOLE.fullmatch(chunk)
    if match is None:
        return None
    sign, index, name, star, num, den = match.groups()
    try:  # ValueError: too many digits, an unknown name (GroupError), p | den (FieldError)
        if index is not None:
            var = GVar(int(index), group.index_of(name), bool(star))
            return (sign, None, var) if var.index else None
        if num is not None:
            return sign, field.coerce(Fraction(int(num), int(den)) if den else int(num)), None
    except (ValueError, ZeroDivisionError):
        return None
    return sign, None, None


def _direct_parse(text: str, group: Group, field):
    """The polynomial of a text of ``_WHOLE`` chunks that parses without
    error, else None; never raises.  Each distinct chunk is read once."""
    letters: dict = {}  # unsigned letter chunk -> GVar
    items: dict = {}  # any other chunk -> its _chunk_item
    terms: dict = {}
    one = field.one
    word, neg, coeff, last = [], False, one, None  # the term being read; last: 'sign' or 'num'
    for chunk in text.split():
        var = letters.get(chunk)
        if var is None:
            item = items.get(chunk) or _chunk_item(chunk, group, field)
            if item is None:
                return None
            s, c, var = item
            if var is not None and not s:
                letters[chunk] = var
            else:
                items[chunk] = item
                if s:
                    if word:
                        add_term(terms, tuple(word), -coeff if neg else coeff)
                        word, coeff = [], one
                    elif last:
                        return None
                    neg, last = s == "-", "sign"
                if c is not None:
                    if word or last == "num":
                        return None
                    coeff, last = c, "num"
                if var is None:
                    continue
        word.append(var)
    if not word:
        return None
    add_term(terms, tuple(word), -coeff if neg else coeff)
    return GPolynomial(terms)


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
    """Parse an expression in the grammar above; see :func:`format_poly`.
    Texts that the direct parse declines go to the scan, which raises."""
    poly = _direct_parse(text, group, field)
    return _scan_parse(text, group, field) if poly is None else poly


def _scan_parse(text: str, group: Group, field) -> GPolynomial:
    """Parse the tokens that ``_TOKEN`` finds in the text."""
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
        add_term(terms, tuple(letters), -coeff if negative else coeff)
        if kind is None:
            return GPolynomial(terms)
        if kind not in ("plus", "minus"):
            raise ParseError("expected '+', '-' or end of expression", pos)
        negative = kind == "minus"
        i += 1


def format_poly(f: GPolynomial, group: Group) -> str:
    """Canonical text form; round-trips through :func:`parse_poly`."""
    return format_sum(f, term_texts(f, group))


def term_texts(f: GPolynomial, group: Group) -> dict:
    """The (word text, coefficient text) of each term, made once for every
    sum of f's terms that :func:`format_sum` writes."""
    return {m: (render_word(m, group), format_coeff(c)) for m, c in f.terms.items()}


def format_sum(f: GPolynomial, texts: dict) -> str:
    """The canonical text of f from the :func:`term_texts` of f or of a sum
    holding f's terms, signed by :func:`rings.signed_sum`."""
    return signed_sum([texts[m] for m in sorted(f.terms, key=f.order)], " ")
