"""Command-line front end.

Subcommands: info, check, eval, congruent, enumerate, selftest.  Exit codes:
0 success (verdicts are payload, never exit codes), 2 input error, 3 resource
cap exceeded, 4 internal invariant or selftest failure.  JSON output is
canonical: identical inputs and seed produce byte-identical reports.

The handlers only compose library calls.  ``_emit`` adds ``schema`` and
``command`` to every report and writes its JSON through ``_json_pieces``;
``enumerate``, which writes its report itself, writes the same two keys.
``congruent`` makes one library call, ``derivation_mod_neutral``, which
decides congruence too: ``congruent`` is whether a chain came back, and the
``note`` given for an identity input is the library's precondition message.
``check`` makes each term's word and coefficient text once per request
(``freealg.term_texts``); the expression, each component and each class or
identity term of the report are written from them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .errors import (ConfigError, GstarError, InternalCheckError, ParseError, PreconditionError,
                     ResourceCapError)
from .freealg import (format_poly, format_sum, multihomogeneous_components, parse_poly,
                      render_word, term_texts)
from .freealg import evaluate as evaluate_poly
from .gradings import Grading, grading_from_json
from .identities import IdentityListing, basis_reduce, derivation_mod_neutral
from .rings import parse_field
from .selftest import run_selftest

SCHEMA = "gstar-report/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _emit(payload: dict, args, out) -> None:
    """Write the report: the payload with the schema tag and the command name.

    In JSON mode the bytes are those of ``json.dumps(payload,
    sort_keys=True, indent=2)`` and a newline, written by ``_json_pieces``.
    """
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    if args.json:
        pieces: list = []
        _json_pieces(payload, pieces, "\n")
        pieces.append("\n")
        out.write("".join(pieces))
    else:
        _print_text(payload, out)


def _json_pieces(value, pieces: list, newline: str) -> None:
    """Append the JSON text of ``value`` with sorted keys and an indent of
    two spaces; ``newline`` is a newline and the indentation of the
    enclosing container.

    Any ``indent`` makes ``json.dumps`` use its pure-Python encoder, so the
    indentation is written here and strings go through the C escaper.  A
    value holds dicts with str keys, lists, tuples, str, int, bool and None;
    anything else raises TypeError.
    """
    if isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pieces.append(sep + encode_basestring_ascii(key) + ": ")
            _json_pieces(value[key], pieces, inner)
            sep = "," + inner
        pieces.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            pieces.append(sep)
            _json_pieces(item, pieces, inner)
            sep = "," + inner
        pieces.append(newline + "]")
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _print_text(payload: dict, out, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:", file=out)
            _print_text(value, out, indent + 1)
        elif isinstance(value, list):
            print(f"{pad}{key}:", file=out)
            for item in value:
                if isinstance(item, dict):
                    print(f"{pad}  -", file=out)
                    _print_text(item, out, indent + 2)
                else:
                    print(f"{pad}  {item}", file=out)
        else:
            print(f"{pad}{key}: {value}", file=out)


def cmd_info(args, grading, field, out) -> int:
    group = grading.group
    support = grading.support_sorted()
    payload = {
        "group": {"order": group.order, "elements": list(group.names)},
        "tuple": [group.name_of(g) for g in grading.defining_tuple],
        "n": grading.n,
        "support": [group.name_of(g) for g in support],
        "off_support": [group.name_of(g) for g in grading.off_support()],
        "hats": [
            {
                "element": group.name_of(g),
                "d_set": list(hat.domain()),
                "im_set": list(hat.image()),
                "map": {str(i): j for i, j in hat.as_dict().items()},
            }
            for g, hat in zip(support, map(grading.hat, support))
        ],
    }
    _emit(payload, args, out)
    return EXIT_OK


def cmd_check(args, grading, field, out) -> int:
    poly = parse_poly(args.expression, grading.group, field)
    components = multihomogeneous_components(poly)
    reductions = [basis_reduce(comp, grading) for comp in components]
    identity = all(red.is_identity for red in reductions)
    texts = term_texts(poly, grading.group)
    payload = {
        "expression": format_sum(poly, texts),
        "coefficients": field.name,
        "identity": identity,
        "fully_certified": identity and all(red.fully_certified for red in reductions),
        "components": [
            {**red.to_json(texts), "component": format_sum(comp, texts)}
            for comp, red in zip(components, reductions)
        ],
    }
    _emit(payload, args, out)
    return EXIT_OK


def cmd_eval(args, grading, field, out) -> int:
    poly = parse_poly(args.expression, grading.group, field)
    matrix = evaluate_poly(poly, grading, field)
    payload = {
        "expression": format_poly(poly, grading.group),
        "coefficients": field.name,
        "n": grading.n,
        "zero": matrix.is_zero,
        "entries": [
            {"row": r, "col": c, "value": p.render()} for (r, c), p in matrix.nonzero_items()
        ],
    }
    _emit(payload, args, out)
    return EXIT_OK


def _single_monomial(text: str, grading: Grading, field):
    poly = parse_poly(text, grading.group, field)
    terms = poly.terms_sorted()
    if len(terms) != 1 or terms[0][1] != field.one:
        raise ParseError(f"expected a single monic monomial, got {text!r}", 0)
    return terms[0][0]


def cmd_congruent(args, grading, field, out) -> int:
    m1 = _single_monomial(args.first, grading, field)
    m2 = _single_monomial(args.second, grading, field)
    group = grading.group
    payload: dict = {"first": render_word(m1, group), "second": render_word(m2, group)}
    try:
        chain = derivation_mod_neutral(m1, m2, grading)
    except PreconditionError as err:  # an identity input: congruence is undefined
        payload["congruent"], payload["note"] = None, str(err)
    else:
        payload["congruent"] = chain is not None
        if chain is not None:
            payload["derivation"] = [step.to_json(group) for step in chain]
    _emit(payload, args, out)
    return EXIT_OK


def cmd_enumerate(args, grading, field, out) -> int:
    """List the monomial identities, streaming each section from the counts.

    The bytes are those that ``_emit`` gives the payload {command, count,
    max_degree, max_identity_degree, minimal_only, monomials, schema,
    words}, but no payload and no word list is built.  ``count`` and
    ``max_identity_degree`` come from the count pass of
    ``IdentityListing``, which charges the whole budget before the first
    byte is written.  Each letter's name and its token ``x<p>:<name>`` at
    each position are rendered (in JSON, also escaped) once, and each
    section is written one block of ``IdentityListing.blocks`` at a time:
    the block's suffixes joined under its prefix, with no string per word.
    """
    max_deg = args.max_deg if args.max_deg is not None else 2 * grading.n - 1
    listing = IdentityListing(grading, max_deg, minimal_only=args.minimal)
    top = listing.max_identity_degree
    group = grading.group
    # a letter is the code 2g + star
    names = [group.name_of(g) + ("*" if star else "")
             for g in group.elements() for star in (False, True)]
    tokens = [[f"x{p}:{name}" for name in names] for p in range(1, top + 1)]
    head = {
        "command": args.command,
        "count": listing.count,
        "max_degree": max_deg,
        "max_identity_degree": top,
        "minimal_only": args.minimal,
    }
    if args.json:
        # escaping works character by character, so escaped pieces join unchanged
        def escape(text: str) -> str:
            return encode_basestring_ascii(text)[1:-1]

        names = [escape(name) for name in names]
        tokens = [[escape(token) for token in row] for row in tokens]
        opening = "{\n" + "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n" for k, v in head.items())
        closing = "\n}\n"
        first, sep, last, empty = "[\n    ", ",\n    ", "\n  ]", "[]"
        sections = (
            ('  "monomials": ', tokens, " ", '"', '"'),
            (f',\n  "schema": {json.dumps(SCHEMA)},\n  "words": ', [names] * top,
             '",\n      "', '[\n      "', '"\n    ]'),
        )
    else:
        names = [repr(name) for name in names]
        opening = "".join(f"{k}: {v}\n" for k, v in head.items())
        closing = "\n"
        first = sep = "\n  "
        last = empty = ""
        sections = (
            ("monomials:", tokens, " ", "", ""),
            (f"\nschema: {SCHEMA}\nwords:", [names] * top, ", ", "[", "]"),
        )

    # a section is its key, the letter table of each position, the text
    # between two letters and the text around each item
    out.write(opening)
    for key, tables, joiner, start, end in sections:
        lead, between = key + first + start, end + sep + start
        for length in range(1, top + 1):
            for prefix, suffixes in listing.blocks(length, tables, joiner):
                out.write(lead + prefix + (between + prefix).join(suffixes))
                lead = between
        out.write(end + last if top else key + empty)
    out.write(closing)
    return EXIT_OK


def cmd_selftest(args, grading, field, out) -> int:
    report = run_selftest(grading, field, seed=args.seed)
    _emit(report.to_json(), args, out)
    return EXIT_OK if report.passed else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstar",
        description="Decide and certify graded polynomial identities of matrix "
        "algebras with the transpose involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="grading config JSON")
    common.add_argument("--coeff", default="q", help="coefficient ring: q or modp:P")
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("info", parents=[common], help="describe the grading: support, patterns")
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("check", parents=[common], help="identity test with a basis certificate")
    p.add_argument("expression")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "eval", parents=[common], help="print the generic evaluation of an expression"
    )
    p.add_argument("expression")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser(
        "congruent", parents=[common], help="congruence of two monomials, with derivation"
    )
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_congruent)

    p = sub.add_parser("enumerate", parents=[common], help="monomial identities up to a degree")
    p.add_argument("--max-deg", type=int, default=None, help="degree bound (default 2n-1)")
    p.add_argument("--minimal", action="store_true", help="only subword-minimal words")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("selftest", parents=[common], help="run every module's invariant suite")
    p.add_argument("--seed", type=int, default=1, help="seed for randomized suites")
    p.set_defaults(handler=cmd_selftest)

    return parser


def _read_config(path: str):
    """The JSON value in the config file.

    Text that is not UTF-8 or not JSON, an integer past the interpreter's
    limit on digits and nesting past its recursion limit raise ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as err:  # JSONDecodeError, UnicodeDecodeError included
        raise ConfigError(str(err)) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:  # argparse exits after --help (0) and on usage errors
        return EXIT_INPUT if err.code else EXIT_OK
    try:
        field = parse_field(args.coeff)
        return args.handler(args, grading_from_json(_read_config(args.config)), field, sys.stdout)
    except ResourceCapError as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalCheckError as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GstarError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
