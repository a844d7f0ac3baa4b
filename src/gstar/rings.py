"""Exact coefficient fields, and the sparse sums of terms over them.

Polynomial and matrix code stays field-agnostic by duck typing: it only
adds, negates, multiplies and truth-tests coefficients.  The field objects
below exist to coerce integers and rationals at the input boundary and to
name the ring in reports.  ``add_term`` and ``SparseSum`` are the one
implementation of a sum of terms that both polynomial rings (the free
algebra and the commuting entry variables) and the sparse matrices use.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GstarError


class FieldError(GstarError, ValueError):
    pass


class Fp:
    """An element of the field with ``p`` elements, stored as 0 <= value < p.

    Frozen: ``value`` and ``p`` are read-only views of two private slots.
    """

    __slots__ = ("_value", "_p")

    def __init__(self, value: int, p: int):
        self._value = value % p
        self._p = p

    @property
    def value(self) -> int:
        return self._value

    @property
    def p(self) -> int:
        return self._p

    def _same_field(self, other: object) -> bool:
        """Whether ``other`` is an Fp of this modulus; FieldError for another modulus."""
        if not isinstance(other, Fp):
            return False
        if self._p != other._p:
            raise FieldError(f"mixed moduli {self._p} and {other._p}")
        return True

    def __add__(self, other: "Fp") -> "Fp":
        if not self._same_field(other):
            return NotImplemented
        return Fp(self._value + other._value, self._p)

    def __sub__(self, other: "Fp") -> "Fp":
        if not self._same_field(other):
            return NotImplemented
        return Fp(self._value - other._value, self._p)

    def __mul__(self, other: "Fp") -> "Fp":
        if not self._same_field(other):
            return NotImplemented
        return Fp(self._value * other._value, self._p)

    def __neg__(self) -> "Fp":
        return Fp(-self._value, self._p)

    def __bool__(self) -> bool:
        return self._value != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self._p == other._p and self._value == other._value
        if isinstance(other, int):
            return self._value == other % self._p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._value, self._p))

    def __repr__(self) -> str:
        return f"Fp(value={self._value!r}, p={self._p!r})"

    def __str__(self) -> str:
        return str(self._value)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError at or past PRIME_TEST_LIMIT."""
    if p >= PRIME_TEST_LIMIT:
        raise FieldError(f"cannot decide whether a modulus of {PRIME_TEST_LIMIT:,} "
                         "or more is prime")
    if p < 2:
        return False
    for base in _PRIME_BASES:
        if p % base == 0:
            return p == base
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _PRIME_BASES:
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers, backed by :class:`fractions.Fraction`."""

    name = "q"
    characteristic = 0

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def __repr__(self) -> str:
        return "Rationals()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rationals")


class PrimeField:
    """The field F_p for a prime ``p``."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"modp:{p}"
        self.characteristic = p

    @property
    def one(self) -> Fp:
        return Fp(1, self.p)

    @property
    def zero(self) -> Fp:
        return Fp(0, self.p)

    def coerce(self, x) -> Fp:
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldError(f"cannot coerce from F_{x.p} to F_{self.p}")
            return x
        if isinstance(x, Fraction):
            num = Fp(x.numerator, self.p)
            den = Fp(x.denominator, self.p)
            if not den:
                raise FieldError(f"denominator {x.denominator} vanishes mod {self.p}")
            return num * Fp(pow(den.value, self.p - 2, self.p), self.p)
        return Fp(int(x), self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("primefield", self.p))


RATIONALS = Rationals()


def format_coeff(c) -> str:
    """The text of a coefficient, as every report and rendering prints it.

    Raises :class:`FieldError` for a number with more digits than the
    interpreter converts to text; that process-wide limit is left as it is.
    """
    try:
        return str(c)
    except ValueError:  # past the interpreter's limit on digits converted to text
        raise FieldError("a coefficient has too many digits to print") from None


def signed_sum(terms: list, sep: str) -> str:
    """The text of a sum from (term text, coefficient text) pairs, as every
    report prints it.  The sign comes from the coefficient text (a negative
    rational prints a leading '-', an element of F_p never does); a
    magnitude '1' is not written before its term, nor a term '1' after its
    magnitude, and otherwise ``sep`` joins them.  '0' for no terms."""
    parts = []
    for body, coeff in terms:
        sign, coeff = ("- ", coeff[1:]) if coeff[0] == "-" else ("+ ", coeff)
        parts.append(sign + (body if coeff == "1" else coeff if body == "1"
                             else f"{coeff}{sep}{body}"))
    if not parts:
        return "0"
    text = " ".join(parts)  # a leading sign is dropped if '+', else written unspaced
    return text[2:] if text[0] == "+" else "-" + text[2:]


def add_term(terms: dict, key, coeff) -> None:
    """Add ``coeff`` into ``terms[key]`` in place; a sum that cancels drops the key."""
    total = terms[key] + coeff if key in terms else coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


class SparseSum:
    """A finite sum coeff * monomial; zero coefficients are never stored.

    A monomial is a plain tuple.  Each subclass names its ring's monomial
    product ``product(m1, m2)`` and its listing order, the sort key
    ``order(m)`` or None for tuple order, as class attributes.  Sums of
    different subclasses never compare equal, even with the same terms.
    """

    __slots__ = ("terms",)
    product = order = None

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _trusted(cls, terms: dict):
        """Wrap terms that hold no zero coefficient by construction, unfiltered."""
        s = object.__new__(cls)
        s.terms = terms
        return s

    @classmethod
    def zero(cls):
        return cls({})

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return self._trusted(out)  # add_term stores no zero

    def __neg__(self):
        return self._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        product, out = self.product, {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_term(out, product(m1, m2), c1 * c2)
        return self._trusted(out)

    def terms_sorted(self) -> list:
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, key=self.order)]

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def parse_field(text: str):
    """Parse a coefficient-ring name: ``q`` or ``modp:P`` with P prime,
    written in ASCII digits only."""
    if text == "q":
        return RATIONALS
    if text.startswith("modp:"):
        digits = text[5:]
        bad = FieldError(f"bad modulus in {text!r}")
        if not (digits.isascii() and digits.isdigit()):  # int() also takes signs,
            raise bad  # underscores, spaces and non-ASCII digits
        try:
            p = int(digits)
        except ValueError:  # past the interpreter's limit on digits converted from text
            raise bad from None
        return PrimeField(p)
    raise FieldError(f"unknown coefficient ring {text!r}; use 'q' or 'modp:P'")
