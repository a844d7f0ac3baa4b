"""Elementary gradings of n x n matrices and their partial-injection calculus.

An elementary grading is induced by an n-tuple (g_0, ..., g_{n-1}) of
pairwise distinct group elements: the matrix unit e_ij is homogeneous of
degree g_i^{-1} g_j.  Distinctness is exactly what makes the neutral
component the diagonal, and everything downstream assumes it.

For a group element g, sending each row i whose label g_i stays inside the
tuple after right multiplication by g to the unique j with g_i g = g_j
defines an injective partial self-map of the rows, ``hat(g)``.  Products
of homogeneous matrix units are governed by composition of these maps, so
the identity tests reduce to partial injection arithmetic, checked against
the definitions in :mod:`gstar.reference`.  Rows and columns are 0-based.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .errors import GradingError, PreconditionError
from .groups import Group, group_from_json, is_plain_int
from .reference import PartialInjection


def signed_degree(element: int, star: bool, group: Group) -> int:
    """The graded degree of a letter: g for the letter g, g^{-1} for g*."""
    return group.inv(element) if star else element


def letter_degrees(word: Sequence[tuple], group: Group) -> list[int]:
    """The degree of each (slot, element, star) letter, range-checked as in ``iter_rows``."""
    order, inverse = group.order, group.inverse
    degrees = []
    for _, element, star in word:
        if not 0 <= element < order:
            raise GradingError(f"element index {element} outside the group")
        degrees.append(inverse[element] if star else element)
    return degrees


class CompositionGraph:
    """The monoid of hat-map compositions, each map interned as an int.

    ``states[s]`` is the target tuple of state s; state 0 is the identity
    map and state ``empty`` (1) the empty map, interned whether or not a
    composition reaches it.  ``step[s][g]`` is the state of s followed by
    hat(g), for every group element g, so a signed letter reads the column
    of its degree and so does a block of letters.  The monoid can be far
    larger than any search needs, so it is explored lazily: a row of
    ``step`` is composed the first time it is read, and only the states a
    search steps from are ever expanded.  Searches charge the growth of
    ``states`` against their budgets.
    """

    def __init__(self, hats: Sequence[tuple[Optional[int], ...]], n: int):
        self.hats = hats
        self.states: list[tuple[Optional[int], ...]] = []
        self._ids: dict[tuple[Optional[int], ...], int] = {}
        self.step = _LazyRows(self._compose_row)
        self._intern(tuple(range(n)))
        self.empty = self._intern((None,) * n)

    def _intern(self, target: tuple[Optional[int], ...]) -> int:
        sid = self._ids.get(target)
        if sid is None:
            sid = self._ids[target] = len(self.states)
            self.states.append(target)
        return sid

    def _compose_row(self, s: int) -> tuple[int, ...]:
        state, intern = self.states[s], self._intern
        return tuple(intern(tuple(hat[x] if x is not None else None for x in state))
                     for hat in self.hats)


class _LazyRows(dict):
    """State id -> its row of successors, composed on the first lookup."""

    def __init__(self, compose_row):
        super().__init__()
        self._compose_row = compose_row

    def __missing__(self, s: int) -> tuple[int, ...]:
        row = self[s] = self._compose_row(s)
        return row


class Grading:
    """An elementary grading, with support and hat maps precomputed.

    Immutable after construction, except that two memos grow as they are
    read: the composition graph, created on first use and cached, as
    compositions and searches step it, and the generic matrices of the
    grading in :mod:`gstar.reference`, one per letter and field that
    ``honest_product`` has multiplied, which are dropped with the grading.
    Share a grading across threads only behind a lock.
    """

    def __init__(self, group: Group, defining_tuple: tuple[int, ...]):
        self.group = group
        self.defining_tuple = defining_tuple
        self.n = len(defining_tuple)
        pos = {g: i for i, g in enumerate(defining_tuple)}
        # hats[g] is the target tuple of hat(g), all None off the support;
        # each is validated as an injection here, once
        self.hats = tuple(
            PartialInjection(pos.get(group.mul(gi, g)) for gi in defining_tuple).targets
            for g in group.elements()
        )
        self.support = frozenset(
            g for g, targets in enumerate(self.hats) if any(x is not None for x in targets)
        )

    def support_sorted(self) -> list[int]:
        return sorted(self.support)

    def off_support(self) -> list[int]:
        return [g for g in self.group.elements() if g not in self.support]

    def hat(self, g: int) -> PartialInjection:
        """The partial injection i -> j with g_i g = g_j; empty off support."""
        if not 0 <= g < self.group.order:
            raise GradingError(f"element index {g} outside the group")
        return PartialInjection._trusted(self.hats[g])

    def compose_signed(self, word: Sequence[tuple]) -> PartialInjection:
        """Left-to-right composition of a word's hats: the first letter acts first."""
        if not word:
            raise PreconditionError("compose_signed needs a nonempty word")
        graph, state = self.composition_graph, 0
        for degree in letter_degrees(word, self.group):
            state = graph.step[state][degree]
        return PartialInjection._trusted(graph.states[state])

    @cached_property
    def composition_graph(self) -> CompositionGraph:
        """The composition monoid of the hat maps, explored as it is read."""
        return CompositionGraph(self.hats, self.n)

    def signed_alphabet(self) -> list[tuple[int, bool]]:
        """The (element, star) pair of each support letter g and g*, in canonical order."""
        return [(g, star) for g in self.support_sorted() for star in (False, True)]

    def __repr__(self) -> str:
        names = ", ".join(self.group.name_of(g) for g in self.defining_tuple)
        return f"Grading({names})"


def build_grading(group: Group, entries: Sequence[int | str]) -> Grading:
    """Validate the defining tuple (nonempty, distinct) and build the grading."""
    if not entries:
        raise GradingError("the defining tuple must be nonempty")
    indices = []
    for x in entries:
        if isinstance(x, str):
            indices.append(group.index_of(x))
        elif is_plain_int(x):
            indices.append(x)
        else:
            raise GradingError(f"tuple entry {x!r} must be an element name or index")
    for g in indices:
        if not 0 <= g < group.order:
            raise GradingError(f"tuple entry {g} is not an element index")
    if len(set(indices)) != len(indices):
        raise GradingError(
            "tuple entries must be pairwise distinct; otherwise the neutral "
            "component is larger than the diagonal"
        )
    return Grading(group, tuple(indices))


def grading_from_json(obj: dict) -> Grading:
    """Load a grading config: {"group": <group JSON>, "tuple": [names...]}."""
    if not isinstance(obj, dict) or "group" not in obj or "tuple" not in obj:
        raise GradingError('grading config needs "group" and "tuple" fields')
    group = group_from_json(obj["group"])
    if not isinstance(obj["tuple"], list):
        raise GradingError('"tuple" must be a list of element names or indices')
    return build_grading(group, obj["tuple"])
