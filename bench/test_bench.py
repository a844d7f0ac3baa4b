"""Tests of the benchmark's own code: generator, oracle and pinned answers.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import random

import pytest

import gen
from oracle import OracleGrading, block_certificate_holds


def oracle(name):
    return OracleGrading.load(gen.ROOT / gen.GRADINGS[name])


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_request_lists_follow_the_seed(workload):
    first, digest = gen.build(workload, 7)
    again, digest_again = gen.build(workload, 7)
    other, digest_other = gen.build(workload, 8)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert digest == digest_again
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)
    assert digest != digest_other


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_operands_follow_the_option_separator(workload):
    for request in gen.build(workload, 3)[0]:
        argv = request.get("argv")
        if argv and argv[0] in ("check", "eval", "congruent"):
            operands = 2 if argv[0] == "congruent" else 1
            assert argv.index("--") == len(argv) - 1 - operands


def test_every_expression_has_terms():
    # seed 26 once produced a component whose rewrites all led back to its word
    for request in gen.build("check", 26)[0]:
        assert gen.operands(request["argv"])[0].strip()


def test_oracle_on_the_readme_examples():
    z2 = oracle("z2")
    facts = z2.poly_facts(z2.parse_poly("x1:e x2:e - x2:e x1:e", None), None)
    assert facts["identity"] and facts["components"] == 1
    facts = z2.poly_facts(z2.parse_poly("x1:a x1:a* - x1:a* x1:a", None), None)
    assert not facts["identity"]
    z4 = oracle("z4")
    padded = z4.parse_monomial("x1:a x2:e x3:e x4:e x5:a x6:a")
    assert z4.is_identity(padded)
    assert not z4.has_identity_subword(padded)
    assert block_certificate_holds(z4, padded, (0, 1, 4, 5, 6))


def test_oracle_coefficients_modulo_p():
    z2 = oracle("z2")
    text = "x1:e x2:e + 4 x2:e x1:e"
    assert not z2.poly_facts(z2.parse_poly(text, None), None)["identity"]
    assert z2.poly_facts(z2.parse_poly(text, 5), 5)["identity"]


def test_rewrites_preserve_the_generic_evaluation():
    rng = random.Random(0)
    for name in gen.GRADINGS:
        g = oracle(name)
        for _ in range(20):
            word = gen.alive_word(rng, g, rng.randint(2, 7), pool=4)
            image = gen.rewrite_walk(rng, g, word, 3)
            assert g.evaluation(image) == g.evaluation(word)
            for neighbour in gen.neighbours(g, word):
                assert g.evaluation(neighbour) == g.evaluation(word)


def test_search_stratum_does_the_same_work_for_every_seed():
    # all-neutral words of distinct variables: same search cost whatever the labels
    g = oracle("klein")
    costs = set()
    for seed in range(4):
        rng = random.Random(seed)
        start = tuple((k, g.identity, rng.random() < 0.5)
                      for k in rng.sample(range(1, 10), gen.HEAVY_DEGREE))
        target, _ = gen.rewrite_search(g, start, rank=gen.HEAVY_RANKS[0])
        costs.add(gen.rewrite_search(g, start, target=target)[1])
    assert len(costs) == 1


@pytest.mark.parametrize("cell", sorted(gen.PINNED_COUNTS), ids=str)
def test_pinned_enumeration_counts(cell):
    name, degree, minimal = cell
    assert oracle(name).count_identities(degree, minimal) == gen.PINNED_COUNTS[cell]


def test_counts_quoted_in_the_notes():
    assert gen.PINNED_COUNTS[("klein", 6, False)] == 147888
    assert gen.PINNED_COUNTS[("z6", 6, True)] == 5705
    assert gen.PINNED_COUNTS[("z2", 8, True)] == 0
    assert gen.PINNED_COUNTS[("s3_rot", 8, True)] == 3


@pytest.mark.parametrize("name", sorted(gen.PINNED_PROBE_LENGTHS))
def test_pinned_probe_lengths_up_to_six(name):
    g = oracle(name)
    counts = [0] + [g.count_identities(d, True) for d in range(1, 7)]
    lengths = [d for d in range(1, 7) if counts[d] > counts[d - 1]]
    assert lengths == [d for d in gen.PINNED_PROBE_LENGTHS[name] if d <= 6]
