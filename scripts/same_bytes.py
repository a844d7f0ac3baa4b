#!/usr/bin/env python3
"""Check that the CLI answers every benchmark request and info as REV does.

    python3 scripts/same_bytes.py REV [--seed N ...] [--workload W ...]

The package source ``src/`` at the git revision REV is extracted with
``git archive`` into a temporary directory.  The request lists of
``bench/gen.build(workload, seed)`` (seeds 21 and 53 and all four workloads
by default, which between them run check, eval, congruent, enumerate and
selftest), ``info --json`` on every config in ``configs/`` and
``bench/configs/``, the degree-6 listings of z4 and Klein (147,888 words
each), the minimal listings of z8_4tuple to degree 6 and z10_5tuple to
degree 5 (the minimal search's largest node spaces on the bench configs)
and of Klein to degree 8 (19 MB of JSON, whose blocks reuse each node's
rendered suffixes under many prefixes),
``info`` and ``enumerate --max-deg 4`` on a grading whose element
names need escaping, ``selftest`` over both rings and the three
``SELFTEST_SEEDS`` on that grading and on ``configs/s3_rot.json`` (the
two gradings the bench's selftest requests leave out), ``congruent`` on
the seven pairs of ``CONGRUENT_PAIRS``, ``eval`` and ``check`` on the long words of
``long_word`` on z4 and Klein, and ``eval`` and ``check`` on the malformed
and whitespace-heavy ``ODD_EXPRESSIONS`` (most exit 2, so their stderr is
compared) and the sign and unit ``SIGN_EXPRESSIONS`` (over ``q``,
``modp:2`` and ``modp:5``), both on z2 and Klein, are run twice, once with
``--json`` as given and once toggled; the usage, help and error runs of ``error_runs``, which reach the
parser and the error boundary of ``main``, are run once.  All go through
``gstar.cli.main`` in one child process per tree: this checkout's ``src/``
and REV's.  The exit code, stdout and stderr of every
run are compared.  Degree-bound probe requests call library functions
rather than the CLI, so they are counted and skipped.  ``bench/`` is only
read.

Prints the number of runs compared and of differing runs, in all and per
subcommand, and on a difference the first differing argv; exits 1 on any
difference.
Each child runs with the interpreter's usual random hash seed, so output
that depends on it would show as a difference too.
"""

import argparse
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("check", "enumerate", "congruent", "selftest")
COMMANDS = ("info", "check", "eval", "congruent", "enumerate", "selftest")

# Z5 with element names that JSON escapes and that text mode quotes
ESCAPED_NAMES = ["e", 'a"b', "c\\d", "\u00e9", "f'g"]
ESCAPED_GRADING = {
    "group": {"elements": ESCAPED_NAMES,
              "table": [[(i + j) % 5 for j in range(5)] for i in range(5)]},
    "tuple": ESCAPED_NAMES[:3],
}

# Seeds of the selftest runs on the escaped-name grading and on S3 with the
# rotation tuple, each over both rings
SELFTEST_SEEDS = (1, 2, 3)
SELFTEST_RINGS = ("q", "modp:5")

# Pairs of degree 6 and 7 whose derivations need four steps or more: the
# all-neutral reversals on Z2 and two mostly neutral pairs; the all-neutral
# reversal of degree 10 (the bench requests reach degree 5 on all-neutral
# words, where the chains are shorter); an equal pair, whose chain is empty;
# and a pair of degree 10 with the same multidegree and the same start and
# end rows that is not congruent.
CONGRUENT_PAIRS = [
    ("configs/z2.json", "x1:e x2:e x3:e x4:e x5:e x6:e", "x6:e x5:e x4:e x3:e x2:e x1:e"),
    ("configs/z2.json", "x1:e x2:e x3:e x4:e x5:e x6:e x7:e", "x7:e x6:e x5:e x4:e x3:e x2:e x1:e"),
    ("configs/klein.json", "x1:e x2:a x3:a x4:e x5:e x6:e x7:e",
     "x6:e* x3:a* x2:a* x1:e x5:e* x7:e* x4:e"),
    ("configs/s3_mixed.json", "x1:rr x2:r x3:e x4:e x5:e x6:e x7:e",
     "x4:e x6:e x1:rr x2:r x7:e* x3:e x5:e*"),
    ("configs/z2.json", " ".join(f"x{i}:e" for i in range(1, 11)),
     " ".join(f"x{i}:e" for i in range(10, 0, -1))),
    ("configs/klein.json", "x1:e x2:a x3:a* x4:e", "x1:e x2:a x3:a* x4:e"),
    ("configs/z2.json", "x1:a x2:a* x3:e x4:e* x5:e x6:a x7:e x8:a* x9:e x10:e",
     "x2:a* x1:a x3:e x4:e* x5:e x6:a x7:e x8:a* x9:e x10:e"),
]

# Expressions that stress the tokenizer: whitespace inside and between
# letters, element names that start with 'x', and every kind of parse error,
# each with the coefficient ring it is read over.  Element 'b' exists on
# Klein only, so those expressions fail on z2 alone.
ODD_CONFIGS = ("configs/z2.json", "configs/klein.json")
ODD_EXPRESSIONS = [
    ("q", "x1 : a *"),
    ("q", " x1\t:\na*x2 :e  -  3/4   x2:e x1 :a"),
    ("q", "x1:a* x2:b *+x2:b*x1:a"),
    ("q", "x1:x2"),
    ("q", "x1:x"),
    ("q", "x1:x_2"),
    ("q", "x1:x2a"),
    ("q", "x1:xa x2:e"),
    ("q", "x0:a"),
    ("q", "x007:a - x7:a"),
    ("q", "x1:a @"),
    ("q", "x1:a**"),
    ("q", "x1:a x2"),
    ("q", "x1 x2:a"),
    ("q", "x1:2"),
    ("q", "1/0 x1:a"),
    ("q", "2/ x1:a"),
    ("q", "x1:a +"),
    ("q", "x1:zz"),
    ("q", "x1:e x" + "3" * 5000 + ":a"),
    ("q", "1" * 5000 + " x1:a"),
    ("modp:5", "1/5 x1:a + x2:e"),
    ("modp:5", "2/3 x1:a - 4 x1 : a"),
    # at the edge of the direct parse: a chunk that is no whole token,
    # a separator that str.split and the regex both take for whitespace,
    # and unicode digits, which only the regex reads
    ("q", "x1:a *"),
    ("q", "x1 :a"),
    ("q", "2x1:a"),
    ("q", "3/2x1:a"),
    ("q", "x1:a x2:e"),
    ("q", "x1:a\x1cx2:e"),
    ("q", "\u0663 x1:a"),
    ("q", "x\u0661:a"),
    # texts that the direct parse declines at a later step: a number after
    # letters, two numbers, two signs, a term with no letter, an unknown
    # element after 299 good terms, a denominator divisible by p
    ("q", "x1:a 2"),
    ("q", "2 3 x1:a"),
    ("q", "- - x1:a"),
    ("q", "-0"),
    ("q", "+ x1:a - -x2:e"),
    ("q", " + ".join(f"{k} x{k}:a x1:e*" for k in range(1, 300)) + " - x1:zz"),
    ("modp:5", "3/10 x1:a"),
]

# Expressions that pin the sign and unit rule of the printed terms, each with
# the ring it is read over: several components; the coefficients -1, p-1,
# 2/2, -2/2, 4/2 and -1/3; and two 4,300-digit coefficients of congruent
# words, whose class sum (and evaluation) has too many digits to print.
SIGN_EXPRESSIONS = [
    ("q", "-x1:a x2:a + 2/2 x2:a x1:a - 2/2 x1:e + 4/2 x1:e* - 1/3 x2:a* x1:a*"),
    ("q", "-2/2 x1:e x2:e + 4/2 x2:e x1:e - 1/3 x1:a + x1:a*"),
    ("modp:5", "-x1:a x2:a + 4 x2:a x1:a + 2/2 x1:e - 2/2 x1:e* + 4/2 x3:a - 1/3 x3:e"),
    ("modp:5", "-2/2 x1:e x2:e - 1/3 x2:e x1:e + 4 x1:a*"),
    ("modp:2", "-x1:a x2:a + x2:a x1:a - 1/3 x1:e + 1/3 x1:e* + x3:a x3:a*"),
    ("modp:2", "-1/3 x1:e x2:e - x2:e x1:e + x1:a"),
    ("q", f"{'9' * 4300} x1:e x2:e + {'9' * 4300} x2:e x1:e"),
]

# Degrees of the long words checked with eval and check on z4 and Klein;
# the bench's words stop at degree 10.
LONG_DEGREES = (50, 200)
LONG_CONFIGS = ("configs/z4_3tuple.json", "configs/klein.json")


def long_word(degree: int) -> list:
    """A neutral-heavy word of the given degree, from a seeded generator.

    Every x:a is closed by an x:a* later on, with only neutral letters in
    between, so the rows in the domain of a's hat (rows 0 and 1 on both
    gradings) survive the whole word.  The first two letters are neutral.
    """
    rng = random.Random(degree)
    letters, bracket = ["x1:e", "x2:e*"], False
    while len(letters) < degree - 1:
        if rng.random() < 0.2:
            letters.append(f"x{rng.randint(1, 6)}:a" + ("*" if bracket else ""))
            bracket = not bracket
        else:
            letters.append(f"x{rng.randint(1, 6)}:e" + ("*" if rng.random() < 0.5 else ""))
    letters.append("x3:a*" if bracket else "x3:e")
    return letters


def error_runs(tmp: str) -> list:
    """Argv that exit at the parser or at main's error boundary, or that give
    congruent's note; a config that is not JSON is written to tmp."""
    not_json = Path(tmp) / "not_json.json"
    not_json.write_text("{not json", encoding="utf-8")
    z2, z6 = "configs/z2.json", "configs/z6_3tuple.json"
    return [
        [], ["--help"], *([command, "--help"] for command in COMMANDS),
        ["bogus", "--config", z2],
        ["check", "--config", z2],
        ["check", "--config", z2, "--seed", "3", "x1:a"],
        ["check", "--config", z2, "-x1:a"],
        ["enumerate", "--config", z2, "--max-deg", "x"],
        # refused: the node budget (exit 3), the degree cap (exit 3) and a
        # degree below 1 (exit 2)
        ["enumerate", "--config", "configs/klein.json", "--json", "--max-deg", "8"],
        ["enumerate", "--config", z2, "--max-deg", "13"],
        ["enumerate", "--config", z2, "--max-deg", "0"],
        ["info", "--config", z2, "--coeff", "modp:4"],
        ["info", "--config", z2, "--coeff", "zz"],
        ["info", "--config", "no/such/config.json"],
        ["info", "--config", "no/such/config.json", "--coeff", "zz"],
        ["info", "--config", str(not_json)],
        ["info", "--config", z2, "extra"],
        # x1:a3 is a monomial identity on z6_3tuple
        ["congruent", "--config", z6, "x1:a3", "x1:a"],
        ["congruent", "--config", z6, "--json", "x1:a3", "x1:a"],
        ["congruent", "--config", z6, "x1:a", "x1:a3"],
        ["congruent", "--config", z6, "--json", "x1:a", "x1:a3"],
    ]


# Reads a JSON list of argv lists on stdin and prints one line per argv:
# the exit code and the sha256 of stdout and of stderr.  An exception that
# escapes main is recorded in place of the exit code.
CHILD = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from gstar.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    digests = [hashlib.sha256(f.getvalue().encode()).hexdigest() for f in (out, err)]
    print(json.dumps([code, *digests]))
"""


def toggled(argv: list) -> list:
    """The same request with ``--json`` removed, or added after the config."""
    if "--json" in argv:
        return [a for a in argv if a != "--json"]
    return argv[:3] + ["--json"] + argv[3:]


def requests(workloads, seeds, tmp: str) -> tuple[list, int]:
    """The error runs once, every CLI argv of the given passes, of info and of
    the extra listings twice; and the probes skipped.  The escaped-name
    grading is written to tmp."""
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    escaped = Path(tmp) / "escaped.json"
    escaped.write_text(json.dumps(ESCAPED_GRADING), encoding="utf-8")
    argvs, probes = error_runs(tmp), 0
    for config in sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("bench/configs/*.json")):
        argv = ["info", "--config", str(config.relative_to(ROOT)), "--json"]
        argvs += [argv, toggled(argv)]
    for argv in (
        ["enumerate", "--config", "configs/z4_3tuple.json", "--json", "--max-deg", "6"],
        ["enumerate", "--config", "configs/klein.json", "--json", "--max-deg", "6"],
        ["enumerate", "--config", "bench/configs/z8_4tuple.json", "--json", "--max-deg", "6",
         "--minimal"],
        ["enumerate", "--config", "bench/configs/z10_5tuple.json", "--json", "--max-deg", "5",
         "--minimal"],
        ["enumerate", "--config", "configs/klein.json", "--json", "--max-deg", "8", "--minimal"],
        ["info", "--config", str(escaped), "--json"],
        ["enumerate", "--config", str(escaped), "--json", "--max-deg", "4"],
    ):
        argvs += [argv, toggled(argv)]
    for config in ("configs/s3_rot.json", str(escaped)):
        for ring in SELFTEST_RINGS:
            for seed in SELFTEST_SEEDS:
                argv = ["selftest", "--config", config, "--json", "--coeff", ring,
                        "--seed", str(seed)]
                argvs += [argv, toggled(argv)]
    for config, first, second in CONGRUENT_PAIRS:
        argv = ["congruent", "--config", config, "--json", first, second]
        argvs += [argv, toggled(argv)]
    for config in LONG_CONFIGS:
        for degree in LONG_DEGREES:
            word = long_word(degree)
            # the first two letters swapped: an identity by the neutral commutator
            swapped = " ".join([word[1], word[0], *word[2:]])
            for argv in (["eval", "--config", config, "--json", " ".join(word)],
                         ["check", "--config", config, "--json", f"{' '.join(word)} - {swapped}"]):
                argvs += [argv, toggled(argv)]
    for config in ODD_CONFIGS:
        for coeff, text in ODD_EXPRESSIONS + SIGN_EXPRESSIONS:
            for command in ("eval", "check"):
                argv = [command, "--config", config, "--json", "--coeff", coeff, "--", text]
                argvs += [argv, toggled(argv)]
    for workload in workloads:
        for seed in seeds:
            for request in gen.build(workload, seed)[0]:
                if "argv" not in request:
                    probes += 1
                    continue
                argvs += [request["argv"], toggled(request["argv"])]
    return argvs, probes


def subcommand(argv: list) -> str:
    return argv[0] if argv and argv[0] in COMMANDS else "(no subcommand)"


def extract_src(rev: str, into: str) -> Path:
    blob = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return Path(into) / "src"


def start(src: Path, argvs: list, result: Path) -> subprocess.Popen:
    """A child that runs every argv on the package in ``src``, writing to ``result``."""
    with open(result, "w", encoding="utf-8") as out:
        child = subprocess.Popen([sys.executable, "-c", CHILD, str(src)], cwd=ROOT,
                                 stdin=subprocess.PIPE, stdout=out, text=True)
    child.stdin.write(json.dumps(argvs))
    child.stdin.close()
    return child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--seed", type=int, action="append", help="bench seed (21, 53)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="bench workload (all four)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        argvs, probes = requests(args.workload or WORKLOADS, args.seed or [21, 53], tmp)
        trees = [ROOT / "src", extract_src(args.rev, tmp)]
        results = [Path(tmp) / "ours.jsonl", Path(tmp) / "theirs.jsonl"]
        children = [start(src, argvs, result) for src, result in zip(trees, results)]
        failed = [child.wait() for child in children]
        ours, theirs = (result.read_text(encoding="utf-8").splitlines() for result in results)
        if any(failed) or not len(ours) == len(theirs) == len(argvs):
            print("same_bytes: a child process failed", file=sys.stderr)
            return 1
    differing = [a for a, x, y in zip(argvs, ours, theirs) if x != y]
    print(f"{len(argvs)} CLI runs compared against {args.rev}; {probes} probe requests "
          f"skipped (not CLI requests); {len(differing)} differ")
    for name in sorted(set(map(subcommand, argvs))):
        runs = sum(subcommand(a) == name for a in argvs)
        print(f"  {name}: {runs} runs, {sum(subcommand(a) == name for a in differing)} differ")
    if differing:
        print("first differing argv: " + json.dumps(differing[0]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
