import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstar import GroupError, GVar, group_from_json, groups, make_cyclic, make_from_table, render_word
from gstar.sampling import standard_gradings

ROOT = Path(__file__).resolve().parents[1]


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.mul(0, 0) == 0 == g.identity


def test_cyclic_inverse_law():
    g = make_cyclic(4)
    a, a3 = g.index_of("a"), g.index_of("a3")
    assert g.mul(a, a3) == g.identity
    assert g.inv(g.index_of("a2")) == g.index_of("a2")


def test_order_two_element_is_self_inverse():
    g = make_cyclic(2)
    assert g.inv(g.index_of("a")) == g.index_of("a")


def test_z6_exponent_arithmetic():
    g = make_cyclic(6)
    assert g.mul(g.index_of("a2"), g.index_of("a5")) == g.index_of("a")


def test_identity_law_everywhere():
    g = make_cyclic(5)
    for x in g.elements():
        assert g.mul(g.identity, x) == x == g.mul(x, g.identity)


def test_klein_table():
    table = [[i ^ j for j in range(4)] for i in range(4)]
    g = make_from_table(["e", "a", "b", "c"], table)
    assert g.order == 4
    assert all(g.inv(x) == x for x in g.elements())


def test_s3_transpositions_are_involutions():
    from gstar.sampling import symmetric_group3

    g = symmetric_group3()
    assert g.order == 6
    for name in ("a", "b", "c"):
        x = g.index_of(name)
        assert g.inv(x) == x
    r = g.index_of("r")
    assert g.inv(r) == g.index_of("rr")
    # noncommutative witness
    a = g.index_of("a")
    assert g.mul(r, a) != g.mul(a, r)


def test_zero_order_rejected():
    with pytest.raises(GroupError):
        make_cyclic(0)


def test_order_cap():
    with pytest.raises(GroupError):
        make_cyclic(65)
    make_cyclic(64)  # at the cap is fine


def test_cyclic_order_cap_checked_before_the_table_is_built(monkeypatch):
    # {"cyclic": 100000} would otherwise build a table of 10^10 entries
    import gstar.groups

    def unreachable(names, table):
        raise AssertionError("a table was built past the cap")

    monkeypatch.setattr(gstar.groups, "make_from_table", unreachable)
    with pytest.raises(GroupError, match="cap"):
        make_cyclic(65)


def test_latin_square_violation_names_row():
    with pytest.raises(GroupError, match="row 0"):
        make_from_table(["e", "a"], [[0, 0], [1, 0]])


def test_non_associative_rejected():
    # a Latin square with two-sided identity that is not a group (order 5
    # quasigroup); the error message names a failing triple
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match="not associative"):
        make_from_table(list("eabcd"), table)


def _random_loop(n, rng):
    """A random Latin square of order n with a two-sided identity: a square
    with first row and column 0..n-1, filled cell by cell with backtracking,
    then relabelled by a random permutation."""
    table = [[i + j if i * j == 0 else None for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        choices = [v for v in range(n) if v not in table[i][:j] and v not in [r[j] for r in table[:i]]]
        rng.shuffle(choices)
        for v in choices:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    label = rng.sample(range(n), n)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[label[i]][label[j]] = label[table[i][j]]
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_light_test_agrees_with_the_full_scan(n, rng):
    table = _random_loop(n, rng)
    names = [f"g{i}" for i in range(n)]
    failing = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
               if table[table[a][b]][c] != table[a][table[b][c]]]
    identity = next(e for e in range(n) if table[e] == list(range(n)))
    assert groups._light_associative(table, identity) == (not failing)
    if not failing:
        assert make_from_table(names, table).identity == identity
        return
    a, b, c = (names[x] for x in failing[0])
    with pytest.raises(GroupError) as err:
        make_from_table(names, table)
    assert str(err.value) == f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})"


def test_no_identity_rejected():
    # Latin square without a two-sided identity row/column
    table = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    with pytest.raises(GroupError, match="identity"):
        make_from_table(["x", "y", "z"], table)


def test_duplicate_names_rejected():
    with pytest.raises(GroupError, match="distinct"):
        make_from_table(["e", "e"], [[0, 1], [1, 0]])


def test_bad_dimensions_rejected():
    with pytest.raises(GroupError, match="table"):
        make_from_table(["e", "a"], [[0, 1]])


def test_json_loader_cyclic_and_table():
    g = group_from_json({"cyclic": 6})
    assert g.order == 6
    h = group_from_json({"elements": ["e", "a"], "table": [[0, 1], [1, 0]]})
    assert h.order == 2
    with pytest.raises(GroupError):
        group_from_json({"nope": 1})


def test_unknown_element_name():
    g = make_cyclic(3)
    with pytest.raises(GroupError, match="unknown element"):
        g.index_of("b")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20))
def test_cyclic_axioms_exhaustive(order):
    g = make_cyclic(order)
    e = g.identity
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == e
        assert g.mul(g.inv(a), a) == e
    if order <= 8:
        for a in g.elements():
            for b in g.elements():
                for c in g.elements():
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def suite_groups():
    """Every group the suite builds: the standard family and the config files."""
    groups = {name: grading.group for name, grading in standard_gradings().items()}
    for path in sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("bench/configs/*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        groups[str(path.relative_to(ROOT))] = group_from_json(obj["group"])
    return groups


SUITE_GROUPS = suite_groups()


@pytest.mark.parametrize("name", sorted(SUITE_GROUPS))
def test_inverse_read_off_table_is_two_sided(name):
    group = SUITE_GROUPS[name]
    for a in group.elements():
        assert group.mul(a, group.inv(a)) == group.mul(group.inv(a), a) == group.identity


def test_group_is_frozen_and_compares_without_its_caches():
    g, h = make_cyclic(3), make_cyclic(3)
    render_word((GVar(1, 1, True),), g)  # fills g.letter_texts
    assert g.letter_texts and not h.letter_texts
    assert g == h and hash(g) == hash(h) and g != make_cyclic(4)
    assert repr(g) == "Group(e, a, a2)"
    for name in ("names", "table", "identity", "inverse", "letter_texts", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    assert g.names == ("e", "a", "a2") and g.index_of("a2") == 2
