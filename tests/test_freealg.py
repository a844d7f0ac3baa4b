import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gstar import (
    GradingError,
    GVar,
    ParseError,
    evaluate,
    format_poly,
    generic_matrix_signed,
    multihomogeneous_components,
    parse_poly,
    render_word,
    star_polynomial,
    star_word,
    variable,
)
from gstar import freealg
from gstar.errors import GroupError
from gstar.freealg import GPolynomial
from gstar.groups import make_from_table
from gstar.reference import unit_degree
from gstar.rings import RATIONALS, Fp, PrimeField, add_term
from gstar.sampling import random_grading, random_monomial


def test_star_reverses_and_toggles(z6):
    g, h = z6.index_of("a"), z6.index_of("a2")
    m = (GVar(1, g), GVar(2, h))
    assert star_word(m) == (GVar(2, h, True), GVar(1, g, True))
    v = (GVar(1, g, True),)
    assert star_word(v) == (GVar(1, g, False),)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_star_polynomial_is_involutive(seed):
    rng = random.Random(seed)
    grading = random_grading(rng)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[random_monomial(rng, grading, rng.randint(1, 5))] = RATIONALS.coerce(
            rng.choice([1, -1, 2])
        )
    f = GPolynomial(terms)
    assert star_polynomial(star_polynomial(f)) == f


def test_multihomogeneous_components(z2):
    a = z2.index_of("a")
    x1a, x2a = GVar(1, a), GVar(2, a)
    f = GPolynomial(
        {
            (x1a, x2a): RATIONALS.one,
            (x1a, x1a): RATIONALS.one,
        }
    )
    comps = multihomogeneous_components(f)
    assert len(comps) == 2
    assert sum(comps[1:], comps[0]) == f
    # components come in the order of their counts per (index, element)
    # pair: one x1 and one x2 before two of x1
    assert [list(c.terms) for c in comps] == [[(x1a, x2a)], [(x1a, x1a)]]

    g = GPolynomial(
        {
            (GVar(1, a), GVar(1, a, True)): RATIONALS.one,
            (GVar(1, a, True), GVar(1, a)): -RATIONALS.one,
        }
    )
    assert len(multihomogeneous_components(g)) == 1
    assert multihomogeneous_components(GPolynomial({})) == []


def test_components_separate_same_index_distinct_elements(z6):
    # x1:a and x1:a2 are different free variables, so they do not pool
    f = parse_poly("x1:a x1:a2 + x1:a2 x1:a + x1:a x1:a", z6)
    comps = multihomogeneous_components(f)
    assert len(comps) == 2


def test_evaluate_neutral_star_difference_is_zero(gr_z2, z2):
    f = parse_poly("x1:e - x1:e*", z2)
    assert evaluate(f, gr_z2).is_zero


def test_evaluate_z2_product(gr_z2, z2):
    f = parse_poly("x1:a x2:a", z2)
    a = z2.index_of("a")
    expected = generic_matrix_signed(GVar(1, a), gr_z2) @ generic_matrix_signed(GVar(2, a), gr_z2)
    assert evaluate(f, gr_z2) == expected


def test_evaluate_off_support_vanishes(gr_z6, z6):
    f = parse_poly("x1:a3", z6)
    assert evaluate(f, gr_z6).is_zero
    f2 = parse_poly("x1:a x2:a3 x3:a", z6)
    assert evaluate(f2, gr_z6).is_zero


def test_evaluate_rejects_foreign_elements(gr_z2):
    f = GPolynomial({(GVar(1, 5),): RATIONALS.one})
    with pytest.raises(GradingError):
        evaluate(f, gr_z2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_evaluate_is_multiplicative_and_star_compatible(seed):
    rng = random.Random(seed)
    grading = random_grading(rng, max_n=4)
    m1 = random_monomial(rng, grading, rng.randint(1, 3))
    m2 = random_monomial(rng, grading, rng.randint(1, 3))
    f1 = GPolynomial({m1: RATIONALS.one})
    f2 = GPolynomial({m2: RATIONALS.one})
    lhs = evaluate(f1 * f2, grading)
    rhs = evaluate(f1, grading) @ evaluate(f2, grading)
    assert lhs == rhs
    assert evaluate(star_polynomial(f1), grading) == evaluate(f1, grading).transpose()


def test_evaluate_graded_component(gr_z6, z6):
    f = parse_poly("x1:a x2:a", z6)
    m = evaluate(f, gr_z6)
    d = z6.index_of("a2")
    for (r, c), _p in m.entries.items():
        assert unit_degree(gr_z6, r, c) == d


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_simple(z2):
    a = z2.index_of("a")
    f = parse_poly("x1:a x2:a", z2)
    assert f == GPolynomial({(GVar(1, a), GVar(2, a)): RATIONALS.one})


def test_parse_star_and_signs(z2):
    f = parse_poly("x1:e - x1:e*", z2)
    e = z2.identity
    assert f == GPolynomial(
        {
            (GVar(1, e),): RATIONALS.one,
            (GVar(1, e, True),): -RATIONALS.one,
        }
    )


def test_parse_coefficients(z2):
    f = parse_poly("2 x1:a - 3 x2:a x1:a", z2)
    a = z2.index_of("a")
    assert f.terms[(GVar(1, a),)] == 2
    assert f.terms[(GVar(2, a), GVar(1, a))] == -3
    g = parse_poly("3/2 x1:a", z2)
    assert g.terms[(GVar(1, a),)] == RATIONALS.coerce(3) / 2


def test_parse_unknown_element(z2):
    with pytest.raises(ParseError, match="unknown group element"):
        parse_poly("x1:q", z2)


def test_parse_garbage(z2):
    with pytest.raises(ParseError):
        parse_poly("x1:a x2:a^garbage", z2)
    with pytest.raises(ParseError):
        parse_poly("", z2)
    with pytest.raises(ParseError):
        parse_poly("x1", z2)
    with pytest.raises(ParseError):
        parse_poly("x0:a", z2)


def test_parse_error_reports_position(z2):
    with pytest.raises(ParseError) as err:
        parse_poly("x1:a @", z2)
    assert err.value.position == 5


# Every reachable ParseError, as text -> (message, position); position -1 is
# "at end of input".
PARSE_ERRORS = [
    ("x1:a @", "unexpected character '@'", 5),
    ("x1:a x2:a^garbage", "unexpected character '^'", 9),
    ("x1:é", "unexpected character 'é'", 3),
    ("x0:a @", "unexpected character '@'", 5),
    ("", "empty expression", 0),
    (" \t\n", "empty expression", 0),
    ("1/ x1:a", "expected a denominator after '/'", 3),
    ("1/x1:a", "expected a denominator after '/'", 2),
    ("1/", "expected a denominator after '/'", -1),
    ("1/0 x1:a", "a denominator must be nonzero", 2),
    ("x1:a - 3/00 x2:e", "a denominator must be nonzero", 9),
    ("x0:a", "variable indices start at 1", 0),
    ("x1:a + x00:e*", "variable indices start at 1", 7),
    ("x1 a", "expected ':' between index and element name", 3),
    ("x1 + x2:a", "expected ':' between index and element name", 3),
    ("x1", "expected ':' between index and element name", -1),
    ("x1:2", "element names are words, not numbers", 3),
    ("x1:a x2:07", "element names are words, not numbers", 8),
    ("x1:*", "expected a group element name", 3),
    ("x1:x2", "expected a group element name", 3),
    ("x1:", "expected a group element name", -1),
    ("x1:q", "unknown group element 'q'; known: e, a", 3),
    ("x1:e x2:xa", "unknown group element 'xa'; known: e, a", 8),
    ("2 + x1:a", "a term needs at least one variable", 2),
    ("--x1:a", "a term needs at least one variable", 1),
    ("x x1:a", "a term needs at least one variable", 0),
    ("*", "a term needs at least one variable", 0),
    ("x1:a + / x1:a", "a term needs at least one variable", 7),
    ("x1:a +", "a term needs at least one variable", -1),
    ("-", "a term needs at least one variable", -1),
    ("2", "a term needs at least one variable", -1),
    ("00", "a term needs at least one variable", -1),
    ("x1:a x", "expected '+', '-' or end of expression", 5),
    ("x1:a**", "expected '+', '-' or end of expression", 5),
    ("x1:a x2:e 3", "expected '+', '-' or end of expression", 10),
    ("x1:a 1/2 x1:e", "expected '+', '-' or end of expression", 5),
    ("x1:a : x2:a", "expected '+', '-' or end of expression", 5),
    # past the interpreter's limit on converting digits to an int
    pytest.param("1" * 5000 + " x1:a", "too many digits in a number", 0,
                 id="5000-digit-coefficient"),
    pytest.param("x1:a + 1/" + "7" * 5000 + " x2:a", "too many digits in a number", 9,
                 id="5000-digit-denominator"),
    pytest.param("x1:e x" + "2" * 5000 + ":a", "too many digits in a number", 5,
                 id="5000-digit-index"),
]


@pytest.mark.parametrize("text,message,position", PARSE_ERRORS)
def test_parse_error_table(z2, text, message, position):
    where = "at end of input" if position < 0 else f"at position {position}"
    with pytest.raises(ParseError) as err:
        parse_poly(text, z2)
    assert (str(err.value), err.value.position) == (f"{message} ({where})", position)


# single tokens, plus whole factors so that random texts also reach later terms;
# the explicit examples put a zero denominator where the parser reads it
PARSE_PIECES = ["x1", "x0", "x12", "x", ":", "e", "a", "xa", "q", "*", "+", "-", "/",
                "0", "1", "7", " ", "\t", "@", "x1:a", "x2:e*"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PARSE_PIECES), max_size=12).map("".join))
@example("1/0 x1:a")
@example("x1:a - 2/00 x2:e")
def test_parse_returns_polynomial_or_parse_error(z2, text):
    try:
        result = parse_poly(text, z2)
    except ParseError:
        return
    assert isinstance(result, GPolynomial)


def test_format_zero(z2):
    assert format_poly(GPolynomial({}), z2) == "0"
    assert parse_poly("0", z2) == GPolynomial({})


def test_leading_minus(z2):
    f = parse_poly("-x1:a + x2:a", z2)
    a = z2.index_of("a")
    assert f.terms[(GVar(1, a),)] == -1


def test_parse_modp_coefficients(z2):
    field = PrimeField(5)
    f = parse_poly("4 x1:a - x2:a", z2, field)
    a = z2.index_of("a")
    assert f.terms[(GVar(1, a),)] == field.coerce(4)
    assert f.terms[(GVar(2, a),)] == field.coerce(-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_format_parse_roundtrip(seed):
    rng = random.Random(seed)
    grading = random_grading(rng)
    group = grading.group
    terms = {}
    for _ in range(rng.randint(1, 5)):
        m = random_monomial(rng, grading, rng.randint(1, 4), allow_off_support=True)
        terms[m] = RATIONALS.coerce(rng.choice([1, -1, 2, -3, 5]))
    f = GPolynomial(terms)
    assert parse_poly(format_poly(f, group), group) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(["q", "modp:5"]))
def test_format_sum_formats_as_format_poly(seed, ring):
    field = RATIONALS if ring == "q" else PrimeField(5)
    rng = random.Random(seed)
    grading = random_grading(rng)
    group = grading.group
    terms = {}
    for _ in range(rng.randint(0, 8)):
        m = random_monomial(rng, grading, rng.randint(1, 3), allow_off_support=True)
        m = tuple([GVar(rng.randint(1, 2), v.element, v.star) for v in m])
        terms[m] = field.coerce(Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7])))
    f = GPolynomial(terms)
    components = multihomogeneous_components(f)
    texts = freealg.term_texts(f, group)
    assert [freealg.format_sum(g, texts) for g in (f, *components)] == [
        format_poly(g, group) for g in (f, *components)]


def _reference_format(f, group):
    """format_poly by the numeric sign rule: a term is negative when its
    coefficient is a negative rational, and a magnitude of 1 is not written."""
    parts = []
    for m, c in f.terms_sorted():
        neg = not isinstance(c, Fp) and c < 0
        mag = -c if neg else c
        body = render_word(m, group)
        parts.append(("- " if neg else "+ ") + (body if mag == 1 else f"{mag} {body}"))
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


_SIGN_FIELDS = {"q": RATIONALS, "modp:2": PrimeField(2), "modp:5": PrimeField(5)}
_SIGN_COEFFS = {
    "q": st.one_of(
        st.sampled_from([1, -1]),
        st.integers(1, 50).map(lambda n: Fraction(n, n)),
        st.builds(lambda s, n, m: s * Fraction(n, m), st.sampled_from([1, -1]),
                  st.integers(1, 50), st.integers(1, 50)),
        st.integers(-10**6, 10**6).filter(bool)),
    "modp:2": st.just(1),
    "modp:5": st.integers(1, 4),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_SIGN_FIELDS)).flatmap(
    lambda ring: st.tuples(st.just(ring), st.lists(_SIGN_COEFFS[ring], min_size=1, max_size=6))))
@example(("q", [-1, Fraction(2, 2), Fraction(-2, 2), Fraction(4, 2), Fraction(-1, 3), 7]))
@example(("modp:2", [1, -1]))
@example(("modp:5", [1, 2, 3, 4, -1]))
def test_format_sum_sign_and_unit_rule(z2, case):
    ring, coeffs = case
    field = _SIGN_FIELDS[ring]
    a = z2.index_of("a")
    f = GPolynomial({(GVar(k, a),): field.coerce(c) for k, c in enumerate(coeffs, 1)})
    assert freealg.format_sum(f, freealg.term_texts(f, z2)) == _reference_format(f, z2)


def test_variable_builder(z2):
    a = z2.index_of("a")
    assert variable(3, a) == parse_poly("x3:a", z2)
    assert variable(3, a, star=True) == parse_poly("x3:a*", z2)


# ---------------------------------------------------------------------------
# the letter-token parser against the three-token parser it replaced

# the three-token grammar: a letter is a var, a colon, a name and an optional star
_REFERENCE_TOKEN = re.compile(r"(?P<var>x\d+)|(?P<int>\d+)|(?P<colon>:)|(?P<star>\*)|(?P<plus>\+)"
                              r"|(?P<minus>-)|(?P<slash>/)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                              r"|(?P<bad>\S)")


def _reference_int(digits, pos):
    try:
        return int(digits)
    except ValueError:
        raise ParseError("too many digits in a number", pos) from None


def _reference_parse(text, group, field=RATIONALS):
    """The parser as it was before letters became one token: the oracle."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _REFERENCE_TOKEN.finditer(text)]
    for kind, val, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {val!r}", pos)
    if not tokens:
        raise ParseError("empty expression", 0)
    if len(tokens) == 1 and tokens[0][:2] == ("int", "0"):
        return GPolynomial.zero()
    tokens.append((None, None, -1))
    terms = {}
    kind = tokens[0][0]
    negative = kind == "minus"
    i = 1 if kind in ("plus", "minus") else 0
    while True:
        kind, val, pos = tokens[i]
        coeff = field.one
        if kind == "int":
            num = _reference_int(val, pos)
            if tokens[i + 1][0] == "slash":
                kind, den, pos = tokens[i + 2]
                if kind != "int":
                    raise ParseError("expected a denominator after '/'", pos)
                den = _reference_int(den, pos)
                if not den:
                    raise ParseError("a denominator must be nonzero", pos)
                coeff = field.coerce(Fraction(num, den))
                i += 3
            else:
                coeff = field.coerce(num)
                i += 1
        letters = []
        while tokens[i][0] == "var":
            _, val, pos = tokens[i]
            index = _reference_int(val[1:], pos)
            if index < 1:
                raise ParseError("variable indices start at 1", pos)
            kind, _, pos = tokens[i + 1]
            if kind != "colon":
                raise ParseError("expected ':' between index and element name", pos)
            kind, val, pos = tokens[i + 2]
            if kind == "int":
                raise ParseError("element names are words, not numbers", pos)
            if kind != "name":
                raise ParseError("expected a group element name", pos)
            try:
                element = group.index_of(val)
            except GroupError:
                raise ParseError(
                    f"unknown group element {val!r}; known: {', '.join(group.names)}", pos
                ) from None
            star = tokens[i + 3][0] == "star"
            letters.append(GVar(index, element, star))
            i += 4 if star else 3
        kind, _, pos = tokens[i]
        if not letters:
            raise ParseError("a term needs at least one variable", pos)
        add_term(terms, tuple(letters), -coeff if negative else coeff)
        if kind is None:
            return GPolynomial(terms)
        if kind not in ("plus", "minus"):
            raise ParseError("expected '+', '-' or end of expression", pos)
        negative = kind == "minus"
        i += 1


def _outcome(parse, text, group, field):
    """The terms of the parse, or the class, message and position of its error."""
    try:
        return "terms", parse(text, group, field).terms
    except Exception as err:  # the class is part of the outcome
        return "error", type(err).__name__, str(err), getattr(err, "position", None)


# Z4 with element names that start with 'x': 'x' and 'x_2' can be written
# after a colon, 'x2a' cannot, because x<digits> is reserved for indices
X_NAMES = make_from_table(["e", "x", "x_2", "x2a"], [[(i + j) % 4 for j in range(4)] for i in range(4)])
DIFF_PIECES = [
    "x1", "x2", "x12", "x0", "x00", "x007", "x" + "9" * 5000, "x",
    "e", "x_2", "x2a", "xa", "q", ":", "*", "**", "+", "-", "/",
    "0", "00", "1", "3", "5", "10", "25", "@", "^", "é", "(",
    "x1:x", "x2 : x_2*", "x3:e *", "x1:x2a", "x4 :x2", "1/0", "2/5", "3/10",
]
DIFF_SPACES = ["", "", " ", "\t", "\n", " \t "]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DIFF_SPACES), st.sampled_from(DIFF_PIECES)),
                max_size=14).map(lambda pairs: "".join(w + p for w, p in pairs)),
       st.sampled_from(["q", "modp:5"]))
@example("x1:x2a", "q")
@example("x1 : x2", "q")
@example("x1:x_2 x2 :\tx* - 1/5 x1:e", "modp:5")
@example("x" + "0" * 4999 + "1:x", "q")
def test_parse_matches_three_token_parser(text, ring):
    field = RATIONALS if ring == "q" else PrimeField(5)
    assert (_outcome(parse_poly, text, X_NAMES, field)
            == _outcome(_reference_parse, text, X_NAMES, field))


def test_letter_text_is_per_group():
    # the same letter renders with each group's own element names, in either
    # order, so no rendering is shared between groups by the letter alone
    table = [[0, 1], [1, 0]]
    first, second = make_from_table(["e", "a"], table), make_from_table(["e", "t"], table)
    word = (GVar(1, 1), GVar(2, 0, True))
    assert render_word(word, first) == "x1:a x2:e*"
    assert render_word(word, second) == "x1:t x2:e*"
    assert render_word(word, first) == "x1:a x2:e*"
    f = GPolynomial({word: RATIONALS.coerce(-2)})
    assert (format_poly(f, second), format_poly(f, first)) == ("-2 x1:t x2:e*", "-2 x1:a x2:e*")


# ---------------------------------------------------------------------------
# the direct parse against the regex scan

SPLIT_GROUP = make_from_table(["e", "a", "x"], [[(i + j) % 3 for j in range(3)] for i in range(3)])
RINGS = {"q": RATIONALS, "modp:5": PrimeField(5)}

# chunks the direct parse takes, drawn three times as often as the rest
SPLIT_WHOLE = ["x1:a", "x2:e*", "x12:a", "x0:a", "x1:x", "-x1:a", "+", "-", "0", "25", "3/2", "1/0"]
SPLIT_PIECES = SPLIT_WHOLE * 3 + [
    "x1:x2a", "x1:", "x1", ":a", "a", ":", "*", "/", "2/", "/3",
    "\u0663", "\u00b2", "x\u0661:a", "x1:\u00e9",
]
# str.split and the regex's \s take all of these but the last, a zero-width
# space, for whitespace
SPLIT_SEPARATORS = ["", " ", " ", "  ", "\t", "\x1c", "\x85", "\xa0", "\u2003", "\u200b"]
SPLIT_TEXTS = st.tuples(
    st.lists(st.tuples(st.sampled_from(SPLIT_SEPARATORS), st.sampled_from(SPLIT_PIECES)),
             max_size=12).map(lambda pairs: "".join(w + p for w, p in pairs)),
    st.sampled_from(SPLIT_SEPARATORS),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(SPLIT_TEXTS, st.text(max_size=40)), st.sampled_from(sorted(RINGS)))
@example("x1:a - " + "1" * 5000 + " x2:e", "q")
@example("x" + "9" * 5000 + ":a", "q")
def test_direct_parse_never_raises(text, ring):
    poly = freealg._direct_parse(text, SPLIT_GROUP, RINGS[ring])
    assert poly is None or isinstance(poly, GPolynomial)


# the examples include every kind of text that the direct parse declines
@settings(max_examples=600, deadline=None)
@given(SPLIT_TEXTS, st.sampled_from(sorted(RINGS)))
@example("x1:a *", "q")  # a chunk that is no whole token
@example("x1 :a", "q")
@example("\u00b2 x1:a", "q")
@example("x0:a", "q")  # an index below 1
@example("x1:a x00:e", "q")
@example("x1:b", "q")  # an unknown element
@example("x1:a " * 299 + "+ x1:b", "q")
@example("1" * 5000 + " x1:a", "q")  # an oversized number
@example("1/0 x1:a", "q")  # a zero denominator
@example("3/10 x1:a", "modp:5")  # a denominator divisible by p
@example("x1:a 2", "q")  # a number after letters with no sign
@example("2 3 x1:a", "q")  # two numbers
@example("2 - x1:a", "q")  # a sign after a number
@example("- - x1:a", "q")  # two signs
@example("+ x1:a - -x2:e", "q")
@example("-0", "q")  # no letter in a term
@example("x1:a +", "q")
@example("", "q")
@example("0", "q")  # zero, which the scan answers
@example("-3/2 x1:a x2:e*\t+ x1:e - 0 x1:x", "modp:5")
def test_direct_parse_matches_the_scan(text, ring):
    """Wherever the direct parse answers, the scan gives the same terms in
    the same order."""
    field = RINGS[ring]
    poly = freealg._direct_parse(text, SPLIT_GROUP, field)
    if poly is not None:
        scanned = freealg._scan_parse(text, SPLIT_GROUP, field)
        assert list(poly.terms.items()) == list(scanned.terms.items())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(sorted(RINGS)))
def test_direct_parse_takes_format_poly_output(seed, ring):
    field = RINGS[ring]
    rng = random.Random(seed)
    grading = random_grading(rng)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        m = random_monomial(rng, grading, rng.randint(1, 4), allow_off_support=True)
        terms[m] = field.coerce(Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7])))
    f = GPolynomial(terms)
    text = format_poly(f, grading.group)
    poly = freealg._direct_parse(text, grading.group, field)
    if text == "0":  # the lone zero is left to the scan
        assert poly is None and parse_poly(text, grading.group, field) == f
        return
    assert poly == f
    assert list(poly.terms.items()) == list(freealg._scan_parse(text, grading.group, field).terms.items())
