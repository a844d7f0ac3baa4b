"""Finite groups given by an explicit Cayley table.

Elements are dense indices 0..order-1 internally; names exist only at the
input/output boundary.  Construction validates the axioms (Latin square,
identity, and associativity by Light's test over a generating set) and
reads the inverses off the table; the checks are quadratic in the order or
worse, which is why the order is capped at desk scale.
"""

from __future__ import annotations

from typing import Sequence

from .errors import GroupError

MAX_GROUP_ORDER = 64


class Group:
    """A validated group; build one with :func:`make_from_table`.

    Frozen: the fields cannot be reassigned.  Equality and hashing use the
    four fields, not the two caches.
    """

    __slots__ = ("names", "table", "identity", "inverse", "_index", "letter_texts")

    def __init__(self, names: tuple[str, ...], table: tuple[tuple[int, ...], ...],
                 identity: int, inverse: tuple[int, ...]):
        _set = object.__setattr__
        _set(self, "names", names)
        _set(self, "table", table)
        _set(self, "identity", identity)
        _set(self, "inverse", inverse)
        _set(self, "_index", {name: i for i, name in enumerate(names)})
        # the text of each rendered letter, filled by freealg.render_word
        _set(self, "letter_texts", {})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.names, self.table, self.identity, self.inverse)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Group:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def order(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def name_of(self, a: int) -> str:
        return self.names[a]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GroupError(
                f"unknown element {name!r}; known: {', '.join(self.names)}"
            ) from None

    def __repr__(self) -> str:
        return f"Group({', '.join(self.names)})"


def is_plain_int(v) -> bool:
    """An int in the JSON sense: JSON's true and false are bools, not 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


def _validate(names: Sequence[str], table: Sequence[Sequence[int]]):
    n = len(names)
    if n == 0:
        raise GroupError("a group needs at least the identity element")
    if n > MAX_GROUP_ORDER:
        raise GroupError(f"order {n} exceeds the configured cap {MAX_GROUP_ORDER}")
    if not all(isinstance(name, str) for name in names):
        raise GroupError("element names must be strings")
    if len(set(names)) != n:
        raise GroupError("element names must be pairwise distinct")
    if len(table) != n or any(
        not isinstance(row, (list, tuple)) or len(row) != n for row in table
    ):
        raise GroupError(f"table must be {n}x{n} to match the element list")
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not is_plain_int(v) or not 0 <= v < n:
                raise GroupError(f"table[{i}][{j}] = {v!r} is not an element index")

    # Latin square: each row and each column is a permutation.
    full = set(range(n))
    for i, row in enumerate(table):
        if set(row) != full:
            raise GroupError(f"row {i} ({names[i]}) is not a permutation: Latin-square violation")
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            raise GroupError(f"column {j} ({names[j]}) is not a permutation: Latin-square violation")

    identity = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupError("no two-sided identity element found")

    if not _light_associative(table, identity):  # the full scan names the first failing triple
        a, b, c = next((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                       if table[table[a][b]][c] != table[a][table[b][c]])
        raise GroupError(
            "not associative: "
            f"({names[a]}*{names[b]})*{names[c]} != {names[a]}*({names[b]}*{names[c]})"
        )

    # Row a is a permutation, so a*b = e has exactly one solution b; with
    # associativity, checked above, that right inverse is also a left inverse.
    return identity, tuple(row.index(identity) for row in table)


def _light_associative(table: Sequence[Sequence[int]], identity: int) -> bool:
    """Light's associativity test on a Latin square with an identity.

    (a*b)*c = a*(b*c) for all a and c exactly when row a*b is row a after
    row b, and the b for which that holds for every a are closed under
    products; so it suffices to test the elements of a set that generates
    the table from the identity under right multiplication.
    """
    rows = [tuple(row) for row in table]
    reached, generators = {identity}, []
    for g in range(len(rows)):
        if g in reached:
            continue
        generators.append(g)
        todo = list(reached)
        while todo:
            row = rows[todo.pop()]
            for s in generators:
                if row[s] not in reached:
                    reached.add(row[s])
                    todo.append(row[s])
    return all(rows[row[b]] == tuple(map(row.__getitem__, rows[b]))
               for b in generators for row in rows)


def make_from_table(
    names: Sequence[str], table: Sequence[Sequence[int]]
) -> Group:
    """Build a validated group from element names and a Cayley table of indices."""
    identity, inverse = _validate(names, table)
    return Group(tuple(names), tuple(tuple(row) for row in table), identity, inverse)


def cyclic_names(order: int) -> list[str]:
    if order == 1:
        return ["e"]
    return ["e", "a"] + [f"a{k}" for k in range(2, order)]


def make_cyclic(order: int) -> Group:
    """The cyclic group of the given order, elements named e, a, a2, ..."""
    if order < 1:
        raise GroupError(f"order must be a positive integer, got {order}")
    if order > MAX_GROUP_ORDER:
        # before the table is built: its size is quadratic in the order
        raise GroupError(f"order {order} exceeds the configured cap {MAX_GROUP_ORDER}")
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    return make_from_table(cyclic_names(order), table)


def group_from_json(obj: dict) -> Group:
    """Load a group from its JSON form: {"cyclic": m} or {"elements", "table"}."""
    if not isinstance(obj, dict):
        raise GroupError(f"group description must be an object, got {type(obj).__name__}")
    if "cyclic" in obj:
        m = obj["cyclic"]
        if not is_plain_int(m):
            raise GroupError(f"cyclic order must be an integer, got {m!r}")
        return make_cyclic(m)
    if "elements" in obj and "table" in obj:
        names, table = obj["elements"], obj["table"]
        if not isinstance(names, list) or not isinstance(table, list):
            raise GroupError('"elements" and "table" must be lists')
        return make_from_table(names, table)
    raise GroupError('group description needs either "cyclic" or "elements"+"table"')
