import pytest

from gstar import build_grading, grading_from_json, make_cyclic, parse_poly
from gstar.sampling import klein_group, standard_gradings, symmetric_group3


@pytest.fixture(scope="session")
def z2():
    return make_cyclic(2)


@pytest.fixture(scope="session")
def z4():
    return make_cyclic(4)


@pytest.fixture(scope="session")
def z6():
    return make_cyclic(6)


@pytest.fixture(scope="session")
def klein():
    return klein_group()


@pytest.fixture(scope="session")
def s3():
    return symmetric_group3()


@pytest.fixture(scope="session")
def gr_z2(z2):
    return build_grading(z2, ["e", "a"])


@pytest.fixture(scope="session")
def gr_z4(z4):
    return build_grading(z4, ["e", "a", "a2"])


@pytest.fixture(scope="session")
def gr_z6(z6):
    return build_grading(z6, ["e", "a", "a2"])


@pytest.fixture(scope="session")
def gr_klein(klein):
    return build_grading(klein, ["e", "a", "b"])


@pytest.fixture(scope="session")
def gradings():
    return standard_gradings()


@pytest.fixture(scope="session")
def mono():
    """Parse a single monic monomial from its text form."""

    def build(text, group):
        terms = parse_poly(text, group).terms_sorted()
        assert len(terms) == 1 and terms[0][1] == 1
        return terms[0][0]

    return build


@pytest.fixture(scope="session")
def corrupted():
    """Build a grading from config data and corrupt one hat consistently.

    Swap two targets of the first non-neutral support hat with two or more,
    give its inverse's hat the inverse map and drop the composition graph,
    built first: the tables the fast path reads stay consistent with each
    other, but not with the unit degrees.  Returns (grading, element).
    """

    def build(config):
        grading = grading_from_json(config)
        grading.composition_graph  # built, so that the corruption must drop it
        group = grading.group
        g = next(x for x in grading.support_sorted()
                 if x != group.identity and sum(t is not None for t in grading.hats[x]) >= 2)
        targets = list(grading.hats[g])
        i, j = [k for k, t in enumerate(targets) if t is not None][:2]
        targets[i], targets[j] = targets[j], targets[i]
        inverse = [None] * grading.n
        for k, t in enumerate(targets):
            if t is not None:
                inverse[t] = k
        hats = list(grading.hats)
        hats[g], hats[group.inv(g)] = tuple(targets), tuple(inverse)
        grading.hats = tuple(hats)
        del grading.composition_graph
        return grading, g

    return build


@pytest.fixture(scope="session")
def conjugated():
    """Build a grading from config data and conjugate every hat by a row
    permutation sigma: each hat sends sigma(i) to sigma(j) where it sent i
    to j.  The composition graph, built first, is dropped.  The hats keep
    their inverse and composition laws, and where sigma maps each domain
    and image onto itself, those too."""

    def build(config, sigma):
        grading = grading_from_json(config)
        grading.composition_graph  # built, so that the conjugation must drop it
        hats = []
        for targets in grading.hats:
            moved = [None] * grading.n
            for i, t in enumerate(targets):
                if t is not None:
                    moved[sigma[i]] = sigma[t]
            hats.append(tuple(moved))
        grading.hats = tuple(hats)
        del grading.composition_graph
        return grading

    return build
