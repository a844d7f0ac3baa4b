"""Answers the benchmark checks the program against, from Cayley tables alone.

Nothing here imports gstar.  A grading config is read as plain JSON; a
word is a list of letters (index, element, star).  Row i of an n x n
elementary grading with tuple (t_0..t_{n-1}) moves under a letter of degree
d to the row j with t_i d = t_j, if there is one.  Then:

* a word is an identity iff this row walk dies for every start row;
* the generic evaluation of a word is the map start row -> (end row,
  sorted multiset of entry variables (slot, row, col)), where a plain
  letter contributes the entry at (row before, row after) and a starred one
  the transposed entry;
* a polynomial is an identity iff, grouping its terms by (start, end,
  multiset), every group's coefficients sum to zero.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_LETTER = re.compile(r"x(\d+):([A-Za-z_][A-Za-z0-9_]*)(\*?)$")
_COEFF = re.compile(r"(\d+)(?:/(\d+))?$")


def cyclic_names(order: int) -> list[str]:
    return ["e"] if order == 1 else ["e", "a"] + [f"a{k}" for k in range(2, order)]


class OracleGrading:
    """An elementary grading read from a config: group table plus row steps."""

    def __init__(self, config: dict):
        group = config["group"]
        if "cyclic" in group:
            m = group["cyclic"]
            self.names = cyclic_names(m)
            self.table = [[(i + j) % m for j in range(m)] for i in range(m)]
        else:
            self.names = list(group["elements"])
            self.table = [list(row) for row in group["table"]]
        self.index = {name: i for i, name in enumerate(self.names)}
        order = len(self.names)
        self.identity = next(
            e for e in range(order) if all(self.table[e][j] == j for j in range(order))
        )
        self.inverse = [
            next(b for b in range(order) if self.table[a][b] == self.identity)
            for a in range(order)
        ]
        self.tuple = [self.index[name] for name in config["tuple"]]
        self.n = len(self.tuple)
        row_of = {g: i for i, g in enumerate(self.tuple)}
        # step[d][i]: the row reached from row i by a letter of degree d, or None
        self.step = [
            [row_of.get(self.table[t][d]) for t in self.tuple] for d in range(order)
        ]
        self.support = [d for d in range(order) if any(r is not None for r in self.step[d])]
        self.off_support = [d for d in range(order) if d not in self.support]

    @classmethod
    def load(cls, path) -> "OracleGrading":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def degree(self, element: int, star: bool) -> int:
        return self.inverse[element] if star else element

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    # -- words ---------------------------------------------------------------

    def parse_monomial(self, text: str) -> tuple:
        """'x1:a x2:e*' -> ((1, a, False), (2, e, True))."""
        letters = []
        for token in text.split():
            m = _LETTER.match(token)
            if m is None:
                raise ValueError(f"not a letter: {token!r}")
            letters.append((int(m.group(1)), self.index[m.group(2)], m.group(3) == "*"))
        return tuple(letters)

    def render(self, word) -> str:
        return " ".join(f"x{k}:{self.names[g]}" + ("*" if s else "") for k, g, s in word)

    def walk(self, word, start: int):
        """Rows visited from ``start``, or None if the walk dies."""
        rows = [start]
        for _, g, star in word:
            nxt = self.step[self.degree(g, star)][rows[-1]]
            if nxt is None:
                return None
            rows.append(nxt)
        return rows

    def is_identity(self, word) -> bool:
        return all(self.walk(word, i) is None for i in range(self.n))

    def evaluation(self, word) -> dict:
        """start row -> (end row, sorted entry variables) for each surviving row."""
        out = {}
        for start in range(self.n):
            rows = self.walk(word, start)
            if rows is None:
                continue
            entries = []
            for p, (slot, _, star) in enumerate(word):
                a, b = rows[p], rows[p + 1]
                entries.append((slot, b, a) if star else (slot, a, b))
            out[start] = (rows[-1], tuple(sorted(entries)))
        return out

    def has_identity_subword(self, word) -> bool:
        """Whether some proper contiguous factor of ``word`` is an identity."""
        length = len(word)
        for size in range(1, length):
            for i in range(length - size + 1):
                if self.is_identity(word[i : i + size]):
                    return True
        return False

    # -- polynomials -----------------------------------------------------------

    def parse_poly(self, text: str, modulus: int | None) -> dict:
        """Parse the benchmark's own expression format: 'c w (+|-) c w ...'.

        Coefficients are combined per word; zero sums are dropped.
        """
        terms: dict = {}
        sign = 1
        coeff = None
        letters: list = []

        def flush():
            if letters:
                c = sign * (coeff if coeff is not None else 1)
                word = tuple(letters)
                terms[word] = terms.get(word, 0) + c
                letters.clear()

        for token in text.split():
            if token in "+-":
                flush()
                sign = -1 if token == "-" else 1
                coeff = None
            elif token.startswith("x"):
                letters.extend(self.parse_monomial(token))
            else:
                m = _COEFF.match(token)
                if m is None:
                    raise ValueError(f"bad coefficient {token!r}")
                coeff = Fraction(int(m.group(1)), int(m.group(2) or 1))
        flush()
        return {w: c for w, c in ((w, reduce_coeff(c, modulus)) for w, c in terms.items()) if c}

    def class_sums(self, poly: dict, modulus: int | None) -> dict:
        """(start, end, entries) -> coefficient sum over the polynomial's words."""
        sums: dict = {}
        for word, c in poly.items():
            for start, (end, entries) in self.evaluation(word).items():
                key = (start, end, entries)
                sums[key] = reduce_coeff(sums.get(key, 0) + c, modulus)
        return sums

    def poly_facts(self, poly: dict, modulus: int | None) -> dict:
        """The mathematical answers a check or eval request must agree with."""
        sums = self.class_sums(poly, modulus)
        positions = sorted({(s, e) for (s, e, _), c in sums.items() if c})
        multidegrees = {tuple(sorted((k, g) for k, g, _ in word)) for word in poly}
        return {
            "identity": not positions,
            "positions": [list(p) for p in positions],
            "components": len(multidegrees),
        }

    # -- enumeration -----------------------------------------------------------

    def letters(self) -> list:
        """Signed support letters as (element, star), in the program's order."""
        return [(g, s) for g in self.support for s in (False, True)]

    def count_identities(self, max_degree: int, minimal: bool) -> int:
        """Index-free identity words up to max_degree, as ``enumerate`` lists them.

        Plain off-support letters count as degree-one identities.  Words are
        counted, not listed, by dynamic programming over the row states they
        reach (None for a dead row).  For ``minimal`` the key also holds the
        states of every proper suffix: a word is dropped once a proper factor
        has died, and counted, not extended, once the whole word dies.
        """
        steps = [tuple(self.step[self.degree(g, s)]) for g, s in self.letters()]
        dead = (None,) * self.n

        def apply(state, step):
            return tuple(step[r] if r is not None else None for r in state)

        count = len(self.off_support)
        words = {(tuple(range(self.n)), frozenset()): 1}
        for length in range(1, max_degree + 1):
            nxt: dict = {}
            for (state, suffixes), k in words.items():
                for step in steps:
                    new = apply(state, step)
                    new_suffixes = frozenset()
                    if minimal:
                        new_suffixes = frozenset(apply(s, step) for s in suffixes)
                        if length > 1:
                            new_suffixes |= {step}
                        if dead in new_suffixes:
                            continue
                    if new == dead:
                        count += k
                        if minimal:
                            continue
                    key = (new, new_suffixes)
                    nxt[key] = nxt.get(key, 0) + k
            words = nxt
        return count


def reduce_coeff(c, modulus: int | None):
    """Exact rational, or its residue mod a prime when ``modulus`` is given."""
    if modulus is None:
        return c
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, modulus) % modulus


def block_certificate_holds(grading: OracleGrading, word, bounds) -> bool:
    """Whether ``bounds`` split a factor of ``word`` into at most 2n-1 blocks
    whose block degrees, read as a word, form an identity."""
    if len(bounds) < 2 or len(bounds) - 1 > 2 * grading.n - 1:
        return False
    if list(bounds) != sorted(set(bounds)) or bounds[0] < 0 or bounds[-1] > len(word):
        return False
    blocks = []
    for i, j in zip(bounds, bounds[1:]):
        d = grading.identity
        for _, g, star in word[i:j]:
            d = grading.mul(d, grading.degree(g, star))
        blocks.append((1, d, False))
    return grading.is_identity(tuple(blocks))
