"""Seeded request lists for the four workloads, labelled by the oracle.

Everything here depends only on the standard library, the grading configs
and ``oracle``; nothing calls into gstar, so a change to the package cannot
change the inputs.  Each workload's list is one "pass": the runner repeats
whole passes.  Proportions inside a pass (commands, coefficient rings,
gradings, sizes) are fixed counts, shuffled by the seed, so that two seeds
give different requests of the same mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from oracle import OracleGrading

GRADINGS = {
    "z2": "configs/z2.json",
    "z4": "configs/z4_3tuple.json",
    "z6": "configs/z6_3tuple.json",
    "klein": "configs/klein.json",
    "s3_rot": "configs/s3_rot.json",
    "s3_mixed": "configs/s3_mixed.json",
    "z8_4": "bench/configs/z8_4tuple.json",
    "z10_5": "bench/configs/z10_5tuple.json",
    "s3_4": "bench/configs/s3_4tuple.json",
    "z5_full": "bench/configs/z5_full.json",
}
MODULUS = 5
ROOT = Path(__file__).resolve().parent.parent  # config paths are relative to it

# Identity-word counts of ``enumerate`` (grading, max degree, minimal).  These
# are facts about the gradings; test_bench.py re-derives each one with the
# oracle.
PINNED_COUNTS = {
    ("z2", 5, False): 0, ("z2", 8, True): 0,
    ("s3_rot", 5, False): 3, ("s3_rot", 8, True): 3,
    ("z5_full", 5, False): 0, ("z5_full", 8, True): 0,
    ("z4", 3, False): 48, ("z4", 3, True): 48, ("z4", 4, False): 1008, ("z4", 4, True): 336,
    ("z4", 5, False): 13488, ("z4", 5, True): 1680, ("z4", 6, False): 147888,
    ("klein", 3, False): 48, ("klein", 3, True): 48, ("klein", 4, False): 1008,
    ("klein", 4, True): 336, ("klein", 5, False): 13488, ("klein", 5, True): 1680,
    ("klein", 6, False): 147888,
    ("z6", 3, False): 505, ("z6", 3, True): 105, ("z6", 4, False): 7129, ("z6", 4, True): 393,
    ("z6", 6, True): 5705,
    ("s3_mixed", 3, False): 505, ("s3_mixed", 3, True): 105, ("s3_mixed", 4, True): 393,
    ("s3_4", 3, False): 800, ("s3_4", 3, True): 160, ("s3_4", 4, True): 672,
    ("z8_4", 3, False): 1393, ("z8_4", 3, True): 273, ("z8_4", 4, True): 1425,
    ("z10_5", 3, True): 561,
}

# Lengths of the minimal identity words up to 2(2n-1), as the degree-bound
# probe finds them: the profile search is complete at the level of lengths.
PINNED_PROBE_LENGTHS = {
    "z2": [],
    "s3_rot": [1],
    "z5_full": [],
    "z4": [3, 4, 5, 6, 7, 8, 9, 10],
    "klein": [3, 4, 5, 6, 7, 8, 9, 10],
    "z6": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    "s3_mixed": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    "s3_4": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
}


def load_oracles(names) -> dict:
    return {name: OracleGrading.load(ROOT / GRADINGS[name]) for name in names}


def digest(requests: list) -> str:
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def spread(rng: random.Random, items: list, count: int) -> list:
    """``count`` items in equal shares of ``items``, in a seeded order.

    When ``count`` is a multiple of ``len(items)`` the multiset is fixed and
    only the order depends on the seed; otherwise the seed also picks which
    items get the extra share.
    """
    pool = list(items)
    rng.shuffle(pool)
    out = [pool[k % len(pool)] for k in range(count)]
    rng.shuffle(out)
    return out


def cli_argv(op: str, grading: str, *flags: str, operands=()) -> list:
    argv = [op, "--config", GRADINGS[grading], "--json", *flags]
    # "--" keeps an operand that starts with "-" from being read as an option
    return argv + ["--", *operands] if operands else argv


# ---------------------------------------------------------------------------
# words


def alive_word(rng: random.Random, g: OracleGrading, degree: int, pool: int,
               max_neutral: int | None = None) -> tuple:
    """A random non-identity word: a row walk that never dies.

    Variable indices come from 1..pool, so variables repeat.  The neutral
    letter is favoured, because neutral factors are what the rewrites of the
    neutral ideal act on; every word gets at least one, and at most
    ``max_neutral`` unless no other letter continues the walk.
    """
    row = rng.randrange(g.n)
    forced = rng.randrange(degree)
    spare = (degree if max_neutral is None else max_neutral) - 1
    word = []
    for p in range(degree):
        choices = [
            (e, s) for e in g.support if e != g.identity for s in (False, True)
            if g.step[g.degree(e, s)][row] is not None
        ]
        neutral = p == forced or not choices
        if not neutral and spare and rng.random() < 0.3:
            neutral, spare = True, spare - 1
        e, s = (g.identity, rng.random() < 0.5) if neutral else rng.choice(choices)
        word.append((rng.randint(1, pool), e, s))
        row = g.step[g.degree(e, s)][row]
    return tuple(word)


def prefix_degrees(g: OracleGrading, word: tuple) -> list:
    """Graded degree of every prefix; [i, j) is neutral iff entries i and j agree."""
    pref = [g.identity]
    for _, e, s in word:
        pref.append(g.mul(pref[-1], g.degree(e, s)))
    return pref


def rewrite(rng: random.Random, g: OracleGrading, word: tuple) -> tuple:
    """One random rewrite by a neutral-ideal generator.

    'star' replaces a neutral factor [i, j) by its involution image; 'swap'
    exchanges it with an adjacent neutral factor [j, k).
    """
    pref = prefix_degrees(g, word)
    length = len(word)
    factors = [(i, j) for i in range(length) for j in range(i + 1, length + 1) if pref[i] == pref[j]]
    if not factors:
        return word
    i, j = rng.choice(factors)
    ends = [k for k in range(j + 1, length + 1) if pref[k] == pref[j]]
    if ends and rng.random() < 0.5:
        k = rng.choice(ends)
        return word[:i] + word[j:k] + word[i:j] + word[k:]
    return word[:i] + tuple((x, e, not s) for x, e, s in reversed(word[i:j])) + word[j:]


def neighbours(g: OracleGrading, word: tuple):
    """Every single rewrite of ``word``, in a fixed positional order."""
    pref = prefix_degrees(g, word)
    length = len(word)
    for i in range(length):
        for j in range(i + 1, length + 1):
            if pref[i] != pref[j]:
                continue
            yield word[:i] + tuple((x, e, not s) for x, e, s in reversed(word[i:j])) + word[j:]
            for k in range(j + 1, length + 1):
                if pref[k] == pref[j]:
                    yield word[:i] + word[j:k] + word[i:j] + word[k:]


def rewrite_search(g: OracleGrading, start: tuple, target=None, rank=None, cap=None):
    """Breadth-first search over single rewrites from ``start``.

    Stops at ``target`` or at the ``rank``-th new word found, and returns it
    with the number of rewritten words generated on the way; returns None
    instead once more than ``cap`` words have been generated.
    """
    if start == target:
        return start, 0
    seen = {start}
    frontier = [start]
    generated = 0
    while frontier:
        nxt = []
        for current in frontier:
            for word in neighbours(g, current):
                generated += 1
                if cap is not None and generated > cap:
                    return None, generated
                if word in seen:
                    continue
                seen.add(word)
                if word == target or len(seen) - 1 == rank:
                    return word, generated
                nxt.append(word)
        frontier = nxt
    return None, generated


def rewrite_walk(rng: random.Random, g: OracleGrading, word: tuple, steps: int) -> tuple:
    for _ in range(steps):
        word = rewrite(rng, g, word)
    return word


def shuffled(rng: random.Random, word: tuple) -> tuple:
    """Same variables in a random order, each with a random star."""
    letters = [(k, e, rng.random() < 0.5) for k, e, _ in word]
    rng.shuffle(letters)
    return tuple(letters)


# ---------------------------------------------------------------------------
# polynomials


def coefficient(rng: random.Random, modp: bool):
    if modp or rng.random() < 0.8:
        return rng.choice([1, 1, 2, 3, 4, 7])
    return f"{rng.choice([1, 3, 5, 7])}/{rng.choice([2, 3, 4])}"


def negate(c):
    if isinstance(c, str):
        return "-" + c
    return -c


def component(rng, g, degree: int, size: int, identity: bool, modp: bool) -> list:
    """One strongly multi-homogeneous component of about ``size`` terms.

    Identity by construction: pairs c*m - c*m' with m' a rewrite-walk
    image of a non-identity m, plus monomial identities with any
    coefficient.  A non-identity keeps one pair uncancelled.
    """
    base = alive_word(rng, g, degree, pool=max(2, degree - 1))
    if g.off_support and rng.random() < 0.1:
        k, _, s = base[0]
        base = ((k, rng.choice(g.off_support), s),) + base[1:]
    terms: dict = {}
    for _ in range(size * 4):
        if len(terms) >= size:
            break
        m = shuffled(rng, base) if rng.random() < 0.5 else rewrite_walk(rng, g, base, 2)
        if m in terms:
            continue
        c = coefficient(rng, modp)
        if g.is_identity(m):
            terms[m] = c
            continue
        partner = rewrite_walk(rng, g, m, rng.randint(1, 4))
        if partner == m or partner in terms:
            continue
        terms[m] = c
        terms[partner] = negate(c)
    if not terms:  # every rewrite led back to its word: keep the base word alone
        terms[base] = 1
    if not identity:
        for m in terms:
            if not g.is_identity(m):
                terms[m] = rng.choice([1, 2]) if isinstance(terms[m], str) else terms[m] + 1
                break
    return list(terms.items())


def to_fraction_text(c) -> tuple:
    """(sign, magnitude text) of an int or an 'a/b' string."""
    if isinstance(c, str):
        neg = c.startswith("-")
        return (-1 if neg else 1), c.lstrip("-")
    return (-1 if c < 0 else 1), str(abs(c))


def poly_text(g: OracleGrading, terms: list) -> str:
    chunks = []
    for k, (word, c) in enumerate(terms):
        sign, mag = to_fraction_text(c)
        if mag == "0":
            continue
        body = g.render(word) if mag == "1" else f"{mag} {g.render(word)}"
        if not chunks:
            chunks.append(f"- {body}" if sign < 0 else body)
        else:
            chunks.append(f"{'-' if sign < 0 else '+'} {body}")
    return " ".join(chunks)


def gen_check(rng: random.Random, oracles: dict, size: int = 1000) -> list:
    """80% check and 20% eval; a quarter over F_5; 1-40 terms, and 3% with
    200-400 terms.  The large ones set the tail, so each of them has a fixed
    size, command, ring, grading and number of components, and only its
    polynomial depends on the seed."""
    heavy = size * 3 // 100
    light = size - heavy
    sizes = [1 + (40 * k) // light for k in range(light)]
    rng.shuffle(sizes)
    plan = list(zip(
        spread(rng, ["eval"] + ["check"] * 4, light),
        spread(rng, [True, False, False, False], light),
        spread(rng, list(GRADINGS), light),
        spread(rng, [True, False], light),
        spread(rng, [1, 2, 3, 4], light),
        sizes,
    ))
    names = list(GRADINGS)
    plan += [
        ("eval" if k % 5 == 0 else "check", k % 4 == 1, names[k % len(names)], k % 2 == 0,
         1 + k % 4, 200 + (200 * k) // (heavy - 1))
        for k in range(heavy)
    ]
    rng.shuffle(plan)
    requests = []
    for op, modp, name, ident, parts, total in plan:
        g = oracles[name]
        parts = min(parts, total)
        terms: list = []
        for p in range(parts):
            share = total // parts + (1 if p < total % parts else 0)
            degree = rng.randint(max(2, min(10, share.bit_length() + 1)), 10)
            terms += component(rng, g, degree, share, ident, modp)
        rng.shuffle(terms)
        flags = ("--coeff", f"modp:{MODULUS}") if modp else ()
        requests.append({
            "op": op,
            "grading": name,
            "argv": cli_argv(op, name, *flags, operands=[poly_text(g, terms)]),
        })
    return requests


# The derivation search costs about the number of rewritten words it
# generates, which grows steeply with the neutral factors of a word: an
# all-neutral pair of degree 8 took over a minute.  Sampled pairs therefore
# get at most MAX_NEUTRAL neutral letters, and a congruent one is kept only
# if a search like the program's reaches it within SAMPLED_SEARCH_CAP words.
# The tail is a stratum of its own: all-neutral words of HEAVY_DEGREE
# distinct variables, paired with the word a breadth-first search finds at
# each of HEAVY_RANKS.  Their rewrite graph looks the same from every such
# word, so these searches do the same work whatever the seed.
MAX_NEUTRAL = 2
SAMPLED_SEARCH_CAP = 2000
HEAVY_DEGREE = 5
HEAVY_RANKS = range(1500, 3500, 100)


def sampled_pair(rng: random.Random, g: OracleGrading, kind: str, degree: int) -> tuple:
    """(first, second) of one kind: a rewrite walk, a shuffle, or a shuffle
    with an off-support letter, which makes it an identity."""
    for _ in range(100):
        first = alive_word(rng, g, degree, pool=degree, max_neutral=MAX_NEUTRAL)
        if kind == "walk":
            second = rewrite_walk(rng, g, first, rng.randint(1, 6))
        else:
            second = shuffled(rng, first)
        if kind == "identity":
            p = rng.randrange(degree)
            k, _, s = second[p]
            return first, second[:p] + ((k, rng.choice(g.off_support), s),) + second[p + 1:]
        if second == first or g.is_identity(second):
            continue
        if g.evaluation(first) != g.evaluation(second):
            return first, second
        if rewrite_search(g, second, target=first, cap=SAMPLED_SEARCH_CAP)[0] is not None:
            return first, second
    raise RuntimeError(f"no {kind} pair of degree {degree} found in {g.names}")


def gen_congruent(rng: random.Random, oracles: dict, size: int = 600) -> list:
    """Pairs of degree 3-8: half rewrite walks (congruent), half shuffles
    (mostly not), a few identities, and the search stratum above."""
    heavy = len(HEAVY_RANKS)
    identities = 10
    halves = (size - heavy - identities) // 2
    with_off_support = [name for name in GRADINGS if oracles[name].off_support]
    kinds = ["walk"] * halves + ["shuffle"] * halves
    names = spread(rng, list(GRADINGS), 2 * halves)
    kinds += ["identity"] * identities
    names += spread(rng, with_off_support, identities)
    degrees = spread(rng, [3, 4, 5, 6, 7, 8], len(kinds))
    plan = [(kind, name, degree, None) for kind, name, degree in zip(kinds, names, degrees)]
    heavy_names = spread(rng, list(GRADINGS), heavy)
    plan += [("heavy", name, HEAVY_DEGREE, rank)
             for name, rank in zip(heavy_names, spread(rng, list(HEAVY_RANKS), heavy))]
    rings = spread(rng, [True, False, False, False], len(plan))
    requests = []
    for (kind, name, degree, rank), modp in zip(plan, rings):
        g = oracles[name]
        if kind == "heavy":
            indices = rng.sample(range(1, 10), degree)
            second = tuple((k, g.identity, rng.random() < 0.5) for k in indices)
            first = rewrite_search(g, second, rank=rank)[0]
        else:
            first, second = sampled_pair(rng, g, kind, degree)
        flags = ("--coeff", f"modp:{MODULUS}") if modp else ()
        requests.append({
            "op": "congruent",
            "grading": name,
            "argv": cli_argv("congruent", name, *flags, operands=[g.render(first), g.render(second)]),
        })
    rng.shuffle(requests)
    return requests


# Rows of (count, cells); a cell is (grading, max degree, minimal, rendering).
# One pass takes ``count`` cells from each row in equal shares, so the seed
# picks the order and, where cells cost the same (Z4 and Klein have equal
# counts), which of them runs.  The middle of a pass is a block of 24 searches
# of 50-70 ms, so the median sits inside a block of like requests instead of
# on a gap between unlike ones; the top is a band of 0.2-0.3 s requests for
# the same reason.
ENUMERATE_MENU = [
    # no identities within reach: the reachability pre-check ends the search
    (3, [("z2", 5, False, "json"), ("s3_rot", 8, True, "json"), ("z5_full", 8, True, "json")]),
    (3, [("z2", 8, True, "text"), ("s3_rot", 5, False, "text"), ("z5_full", 5, False, "text")]),
    # small searches
    (8, [("z4", 3, False, "json"), ("z4", 3, True, "json"), ("klein", 3, False, "json"),
         ("klein", 3, True, "json"), ("z6", 3, False, "json"), ("z6", 3, True, "json"),
         ("s3_mixed", 3, True, "json"), ("s3_4", 3, True, "json")]),
    (2, [("z4", 3, False, "text"), ("klein", 3, True, "text")]),
    # the middle block
    (16, [("z4", 4, False, "json"), ("z4", 4, True, "json"), ("klein", 4, False, "json"),
          ("klein", 4, True, "json")]),
    (8, [("s3_mixed", 4, True, "json"), ("z6", 4, True, "json"), ("z8_4", 3, False, "json"),
         ("z10_5", 3, True, "json")]),
    # n = 4 searches and a large search-bound listing
    (6, [("s3_4", 4, True, "json"), ("z8_4", 4, True, "json"), ("z6", 4, False, "json")]),
    # minimal words at degree 5; output-bound full listings of 13488 words
    (2, [("z4", 5, True, "json"), ("klein", 5, True, "json")]),
    (4, [("z4", 5, False, "json"), ("klein", 5, False, "json")]),
]


def gen_enumerate(rng: random.Random, oracles: dict) -> list:
    """The menu above, plus one degree-bound probe per probe grading."""
    requests = []
    for count, cells in ENUMERATE_MENU:
        for name, degree, minimal, rendering in spread(rng, cells, count):
            flags = ["--max-deg", str(degree)] + (["--minimal"] if minimal else [])
            argv = cli_argv("enumerate", name, *flags)
            if rendering == "text":
                argv.remove("--json")
            requests.append({"op": "enumerate", "grading": name, "argv": argv})
    for name in sorted(PINNED_PROBE_LENGTHS):
        requests.append({"op": "probe", "grading": name})
    rng.shuffle(requests)
    return requests


# S3 with the rotation tuple is left out: its selftest costs fall between
# two groups of gradings, and the median of the pass sat on that gap.
SELFTEST_GRADINGS = [name for name in GRADINGS if name != "s3_rot"]


def gen_selftest(rng: random.Random, oracles: dict, seeds: int = 2) -> list:
    """Every selftest grading, both rings, ``seeds`` selftest seeds each."""
    requests = []
    for name in SELFTEST_GRADINGS:
        for ring in ("q", f"modp:{MODULUS}"):
            for _ in range(seeds):
                argv = cli_argv("selftest", name, "--coeff", ring, "--seed",
                                str(rng.randrange(1, 10**6)))
                requests.append({"op": "selftest", "grading": name, "argv": argv})
    rng.shuffle(requests)
    return requests


GENERATORS = {
    "check": gen_check,
    "enumerate": gen_enumerate,
    "congruent": gen_congruent,
    "selftest": gen_selftest,
}


# ---------------------------------------------------------------------------
# labels


def operands(argv: list) -> list:
    return argv[argv.index("--") + 1:]


def modulus_of(argv: list):
    return MODULUS if f"modp:{MODULUS}" in argv else None


def label(request: dict, oracles: dict) -> dict:
    """The answer the program must give, from the oracle alone."""
    g = oracles[request["grading"]]
    op = request["op"]
    argv = request.get("argv", [])
    if op in ("check", "eval"):
        modulus = modulus_of(argv)
        facts = g.poly_facts(g.parse_poly(operands(argv)[0], modulus), modulus)
        if op == "check":
            return {"identity": facts["identity"], "components": facts["components"]}
        return {"zero": facts["identity"], "positions": facts["positions"]}
    if op == "congruent":
        first, second = (g.parse_monomial(t) for t in operands(argv))
        if g.is_identity(first) or g.is_identity(second):
            return {"congruent": None}
        return {"congruent": g.evaluation(first) == g.evaluation(second)}
    if op == "enumerate":
        degree = int(argv[argv.index("--max-deg") + 1])
        minimal = "--minimal" in argv
        return {"count": PINNED_COUNTS[(request["grading"], degree, minimal)],
                "minimal": minimal}
    if op == "probe":
        return {"lengths": PINNED_PROBE_LENGTHS[request["grading"]]}
    if op == "selftest":
        return {"pass": True}
    raise ValueError(f"unknown op {op!r}")


def build(workload: str, seed: int) -> tuple[list, str]:
    """The labelled request list of one pass, and its digest."""
    rng = random.Random(f"{workload}:{seed}")
    oracles = load_oracles(GRADINGS)
    requests = GENERATORS[workload](rng, oracles)
    for request in requests:
        request["expect"] = label(request, oracles)
    return requests, digest(requests)
