import operator
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gstar.freealg import GPolynomial, GVar
from gstar.reference import CPolynomial
from gstar.rings import (
    PRIME_TEST_LIMIT,
    RATIONALS,
    FieldError,
    Fp,
    PrimeField,
    _is_prime,
    format_coeff,
    parse_field,
)


def test_parse_field():
    assert parse_field("q") is not None
    assert parse_field("q").characteristic == 0
    f5 = parse_field("modp:5")
    assert f5.characteristic == 5
    with pytest.raises(FieldError):
        parse_field("modp:6")
    with pytest.raises(FieldError):
        parse_field("modp:x")
    with pytest.raises(FieldError):
        parse_field("float")


def test_rationals_coerce():
    assert RATIONALS.coerce(3) == Fraction(3)
    assert RATIONALS.one + RATIONALS.one == Fraction(2)
    assert not RATIONALS.zero


def test_fp_arithmetic():
    f = PrimeField(5)
    a, b = f.coerce(3), f.coerce(4)
    assert a + b == f.coerce(2)
    assert a * b == f.coerce(2)
    assert -a == f.coerce(2)
    assert a - b == f.coerce(4)
    assert not f.zero and f.one
    assert f.coerce(7) == 2


def test_fp_mixed_moduli_rejected():
    with pytest.raises(FieldError):
        Fp(1, 2) + Fp(1, 3)
    with pytest.raises(FieldError):
        PrimeField(3).coerce(Fp(1, 5))


@pytest.mark.parametrize("other", [1, Fraction(1)], ids=["int", "Fraction"])
def test_fp_arithmetic_with_a_foreign_operand_is_a_type_error(other):
    x = Fp(1, 5)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)


def test_fp_is_a_frozen_normalised_value():
    x = Fp(12, 5)
    assert (x.value, x.p, repr(x), str(x)) == (2, 5, "Fp(value=2, p=5)", "2")
    assert x == Fp(-3, 5) == 7 and hash(x) == hash(Fp(2, 5))
    for name in ("value", "p", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert x.value == 2


def test_fp_coerces_fractions():
    f = PrimeField(7)
    # 3/2 = 3 * inverse(2) = 3 * 4 = 12 = 5 mod 7
    assert f.coerce(Fraction(3, 2)) == f.coerce(5)
    with pytest.raises(FieldError):
        PrimeField(2).coerce(Fraction(1, 2))


@given(st.integers(), st.integers(), st.sampled_from([2, 3, 5, 7, 11]))
def test_fp_field_laws(x, y, p):
    f = PrimeField(p)
    a, b = f.coerce(x), f.coerce(y)
    assert a + b == b + a
    assert a * b == b * a
    assert a + f.zero == a
    assert a * f.one == a
    assert a + (-a) == f.zero


# sums of terms: the free algebra and the entry-variable ring share one
# implementation, and a monomial is a plain tuple in both.  The longer words
# sort after shorter ones that tuple order puts later, and the longer entry
# monomials sort before shorter ones that length order puts first.
WORDS = [(GVar(i, g, star),) for i in (1, 2) for g in (0, 1) for star in (False, True)] + [
    (GVar(1, 0), GVar(1, 0)), (GVar(1, 1, True), GVar(2, 0)), (GVar(2, 1), GVar(1, 0), GVar(2, 1))]
ENTRY_MONOMIALS = [((slot, 0, c),) for slot in (1, 2) for c in range(4)] + [
    (), ((1, 0, 0), (1, 0, 0)), ((1, 0, 2), (2, 0, 0), (2, 0, 3))]
TERM_DICTS = st.dictionaries(st.integers(0, 10), st.integers(-6, 6), max_size=5)
RINGS = [  # each ring's monomials, product and listing order, spelled out
    (GPolynomial, WORDS, lambda m1, m2: m1 + m2, lambda m: (len(m), m)),
    (CPolynomial, ENTRY_MONOMIALS, lambda m1, m2: tuple(sorted(m1 + m2)), lambda m: m),
]


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(5)], ids=["q", "modp5"])
@given(raw=TERM_DICTS, other=TERM_DICTS)
def test_sparse_sums_of_both_rings(field, raw, other):
    for monomials in (WORDS, ENTRY_MONOMIALS):
        terms = {monomials[k]: field.coerce(c) for k, c in raw.items()}
        # the same term dict in both rings: never equal across the types,
        # though both hold the same plain tuples as keys
        assert GPolynomial(terms).terms == CPolynomial(terms).terms
        assert GPolynomial(terms) != CPolynomial(terms)
        assert CPolynomial(terms) != GPolynomial(terms)
        for cls in (GPolynomial, CPolynomial):
            p = cls(terms)
            q = cls({monomials[k]: field.coerce(c) for k, c in other.items()})
            assert (p - p).terms == {}
            total = p + q
            for k in set(raw) | set(other):
                coeff = field.coerce(raw.get(k, 0) + other.get(k, 0))
                if coeff:
                    assert total.terms[monomials[k]] == coeff
                else:  # the coefficients cancel: the key is dropped
                    assert monomials[k] not in total.terms
            for m, c in p.terms.items():
                assert m not in (p + cls({m: -c})).terms
            # hash agrees with ==, whatever order the terms were added in
            same = cls(dict(reversed(list(terms.items()))))
            assert same == p and hash(same) == hash(p)
            assert total == q + p and hash(total) == hash(q + p)
    for cls, monomials, product, order in RINGS:
        p = cls({monomials[k]: field.coerce(c) for k, c in raw.items()})
        q = cls({monomials[k]: field.coerce(c) for k, c in other.items()})
        assert [m for m, _ in p.terms_sorted()] == sorted(p.terms, key=order)
        for m1 in p.terms:
            for m2 in q.terms:
                # words concatenate; entry monomials merge and stay sorted
                one = cls({m1: field.one}) * cls({m2: field.one})
                assert one.terms == {product(m1, m2): field.one}


def test_format_coeff_and_its_digit_limit():
    assert [format_coeff(c) for c in (Fraction(-3, 4), Fraction(6, 3), Fp(7, 5))] == ["-3/4", "2", "2"]
    assert format_coeff(Fraction(10**4299)) == "1" + "0" * 4299
    with pytest.raises(FieldError, match="too many digits"):
        format_coeff(Fraction(10**4300))
    with pytest.raises(FieldError, match="too many digits"):
        format_coeff(Fraction(1, 10**4300))


def test_is_prime_agrees_with_trial_division():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))

    assert [p for p in range(-3, 10**5) if _is_prime(p)] == [
        p for p in range(-3, 10**5) if trial_division(p)
    ]


def test_is_prime_past_trial_division():
    assert not _is_prime(3_215_031_751)  # a strong pseudoprime to bases 2, 3, 5 and 7
    assert _is_prime(10**18 + 3) and _is_prime(10**18 + 9)
    assert not _is_prime(10**18 + 1) and not _is_prime((10**9 + 7) * (10**9 + 9))
    with pytest.raises(FieldError, match="3,317,044,064,679,887,385,961,981"):
        _is_prime(PRIME_TEST_LIMIT)  # the least strong pseudoprime to all 13 bases



def _filtered(cls, pairs):
    """The sum of (monomial, coefficient) pairs, accumulated plainly and then
    passed through the filtering constructor."""
    total = {}
    for m, c in pairs:
        total[m] = total[m] + c if m in total else c
    return cls(total)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(2), PrimeField(5)],
                         ids=["q", "modp2", "modp5"])
@given(raw=TERM_DICTS, other=TERM_DICTS)
def test_arithmetic_stores_no_zero_unfiltered(field, raw, other):
    """Sums, differences, negations and products skip the constructor's
    zero filter, yet none stores a zero coefficient, and each equals the
    filtering constructor's result on the plainly accumulated terms, with
    cancellations such as (p-1) + 1 among them."""
    last = field.coerce(field.characteristic - 1)  # p - 1 in F_p, -1 in Q
    for cls, monomials, product, _ in RINGS:
        p = cls({monomials[k]: field.coerce(c) for k, c in raw.items()})
        q = cls({monomials[k]: field.coerce(c) for k, c in other.items()})

        def products(a, b):
            return [(product(m1, m2), c1 * c2)
                    for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()]

        def negated(a):
            return [(m, -c) for m, c in a.terms.items()]

        cases = [
            (p + q, _filtered(cls, [*p.terms.items(), *q.terms.items()])),
            (p - q, _filtered(cls, [*p.terms.items(), *negated(q)])),
            (-p, _filtered(cls, negated(p))),
            (p * q, _filtered(cls, products(p, q))),
            (cls({m: last for m in p.terms}) + cls({m: field.one for m in p.terms}), cls({})),
            (p - p, cls({})),
            ((p + q) * (p - q), _filtered(cls, products(p + q, p - q))),
        ]
        for result, expected in cases:
            assert type(result) is cls
            assert all(result.terms.values())
            assert result == expected and result.terms == expected.terms
