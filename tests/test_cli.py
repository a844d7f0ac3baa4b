import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gstar.cli import SCHEMA, _emit, _json_pieces, _print_text, main
from gstar.errors import PreconditionError
from gstar.freealg import evaluate_monomial, parse_poly, render_word, star_word
from gstar.gradings import grading_from_json
from gstar.identities import congruent_mod_neutral, enumerate_monomial_identities
from gstar.sampling import random_grading

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    return code, (json.loads(out) if out else None), err


def test_info_z6(capsys):
    code, payload, _ = run_json(
        ["info", "--config", str(CONFIGS / "z6_3tuple.json")], capsys
    )
    assert code == 0
    assert payload["support"] == ["e", "a", "a2", "a4", "a5"]
    assert payload["off_support"] == ["a3"]
    hat_a = next(h for h in payload["hats"] if h["element"] == "a")
    assert hat_a["map"] == {"0": 1, "1": 2}


def test_info_z2_support(capsys):
    code, payload, _ = run_json(["info", "--config", str(CONFIGS / "z2.json")], capsys)
    assert code == 0
    assert payload["support"] == ["e", "a"]


def test_missing_config_is_input_error(capsys):
    code, out, err = run(["info", "--config", "no/such/file.json"], capsys)
    assert code == 2
    assert "error" in err


def test_empty_config_path_names_the_path_as_given(capsys):
    # argparse keeps the path a str: Path("") would be "." and read as a directory
    assert run(["info", "--config", ""], capsys) == (
        2, "", "error: [Errno 2] No such file or directory: ''\n")


def test_corrupt_config_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["info", "--config", str(bad)], capsys)
    assert code == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"group": {"cyclic": 4}, "tuple": ["e", "e"]}))
    code, _, err = run(["info", "--config", str(bad2)], capsys)
    assert code == 2
    assert "distinct" in err


Z2_TABLE = [[0, 1], [1, 0]]
MALFORMED_CONFIGS = {
    "float-tuple-entry": {"group": {"cyclic": 3}, "tuple": ["e", 1.0]},
    "null-tuple-entry": {"group": {"cyclic": 3}, "tuple": ["e", None]},
    "list-tuple-entry": {"group": {"cyclic": 3}, "tuple": [["e"]]},
    "bool-tuple-entry": {"group": {"cyclic": 2}, "tuple": [0, True]},
    "string-tuple": {"group": {"cyclic": 3}, "tuple": "ea"},
    "object-tuple": {"group": {"cyclic": 3}, "tuple": {"e": 1}},
    "int-name-unknown-entry": {"group": {"elements": ["e", 7], "table": Z2_TABLE},
                               "tuple": ["e", "b"]},
    "int-name-index-tuple": {"group": {"elements": ["e", 7], "table": Z2_TABLE},
                             "tuple": [0, 1]},
    "string-elements": {"group": {"elements": "ea", "table": Z2_TABLE}, "tuple": ["e"]},
    "bool-cyclic-order": {"group": {"cyclic": True}, "tuple": ["e"]},
    "bool-table-entries": {"group": {"elements": ["e", "a"], "table": [[0, True], [True, 0]]},
                           "tuple": ["e", "a"]},
    "number-table-row": {"group": {"elements": ["e"], "table": [0]}, "tuple": ["e"]},
    # files that do not decode to JSON values, given as their bytes
    "not-utf8": b'{"group": {"cyclic": 2}, "tuple": ["\xff"]}',
    "5000-digit-int": b'{"group": {"cyclic": 1' + b"0" * 5000 + b'}, "tuple": ["e"]}',
    "100000-nested-lists": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["info", "enumerate"])
@pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_is_one_line_input_error(config, command, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    code, out, err = run([command, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_check_identity_reports_certificate(capsys):
    code, payload, _ = run_json(
        ["check", "--config", str(CONFIGS / "z2.json"), "x1:e x2:e - x2:e x1:e"],
        capsys,
    )
    assert code == 0
    assert payload["identity"] is True
    assert payload["fully_certified"] is True
    (component,) = payload["components"]
    (cls,) = component["classes"]
    assert cls["sum"] == "0"
    assert sorted(cls["monomials"]) == ["x1:e x2:e", "x2:e x1:e"]


def test_check_non_identity_exit_zero(capsys):
    code, payload, _ = run_json(
        ["check", "--config", str(CONFIGS / "z2.json"), "x1:a x1:a* - x1:a* x1:a"],
        capsys,
    )
    assert code == 0
    assert payload["identity"] is False


def test_check_parse_error(capsys):
    code, _, err = run(
        ["check", "--config", str(CONFIGS / "z2.json"), "x1:a x2:a^garbage"], capsys
    )
    assert code == 2
    assert "error" in err


def test_check_zero_denominator_is_input_error(capsys):
    code, out, err = run(["check", "--config", str(CONFIGS / "z2.json"), "1/0 x1:a"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: a denominator must be nonzero (at position 2)"]


def test_eval_reports_entries(capsys):
    code, payload, _ = run_json(
        ["eval", "--config", str(CONFIGS / "z2.json"), "x1:a x1:a* - x1:a* x1:a"],
        capsys,
    )
    assert code == 0
    assert payload["zero"] is False
    first = payload["entries"][0]
    assert first == {"row": 0, "col": 0, "value": "y[1,0,1]^2 - y[1,1,0]^2"}


def test_eval_modp_entries_sign_as_the_expression(capsys):
    # an element of F_p prints 0..p-1 in the entries as in the expression:
    # -1 is 4 in F_5, never a sign
    code, payload, _ = run_json(
        ["eval", "--config", str(CONFIGS / "z2.json"), "--coeff", "modp:5",
         "x1:a x2:a - x2:a x1:a"],
        capsys,
    )
    assert code == 0
    assert payload["expression"] == "x1:a x2:a + 4 x2:a x1:a"
    assert payload["entries"] == [
        {"row": 0, "col": 0, "value": "y[1,0,1]*y[2,1,0] + 4*y[1,1,0]*y[2,0,1]"},
        {"row": 1, "col": 1, "value": "4*y[1,0,1]*y[2,1,0] + y[1,1,0]*y[2,0,1]"},
    ]


def _assert_derivation_replays(report, config):
    """Each step of a congruent report stars the factor [i,j) of the word
    before it and keeps its generic evaluation, and the last step gives
    the first word."""
    grading = grading_from_json(json.loads((CONFIGS / config).read_text()))
    group = grading.group
    word = parse_poly(report["second"], group).terms_sorted()[0][0]
    ref = evaluate_monomial(word, grading)
    for step in report["derivation"]:
        assert step["kind"] == "star" and set(step) == {"kind", "i", "j", "result"}
        i, j = step["i"], step["j"]
        word = word[:i] + star_word(word[i:j]) + word[j:]
        assert render_word(word, group) == step["result"]
        assert evaluate_monomial(word, grading) == ref
    assert render_word(word, group) == report["first"]


def test_congruent_with_derivation(capsys):
    # the neutral commutator is three stars: [0,2), then each letter
    code, payload, _ = run_json(
        ["congruent", "--config", str(CONFIGS / "z2.json"), "x1:e x2:e", "x2:e x1:e"],
        capsys,
    )
    assert code == 0
    assert payload["congruent"] is True
    assert [(step["i"], step["j"]) for step in payload["derivation"]] == [(0, 2), (0, 1), (1, 2)]
    _assert_derivation_replays(payload, "z2.json")


def test_congruent_negative(capsys):
    code, payload, _ = run_json(
        ["congruent", "--config", str(CONFIGS / "z2.json"), "x1:a x1:a*", "x1:a* x1:a"],
        capsys,
    )
    assert code == 0
    assert payload["congruent"] is False


# x1:a3 is a monomial identity on z6_3tuple (a3 is off the support), x1:a is not
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("first, second", [("x1:a3", "x1:a"), ("x1:a", "x1:a3"),
                                           ("x1:a3", "x1:a3")],
                         ids=["identity-first", "identity-second", "both-identities"])
def test_congruent_identity_inputs_yield_note(first, second, as_json, capsys):
    config = CONFIGS / "z6_3tuple.json"
    grading = grading_from_json(json.loads(config.read_text(encoding="utf-8")))
    m1, m2 = (parse_poly(text, grading.group).terms_sorted()[0][0] for text in (first, second))
    with pytest.raises(PreconditionError) as raised:
        congruent_mod_neutral(m1, m2, grading)
    argv = ["congruent", "--config", str(config), first, second]
    code, out, err = run(argv + ["--json"] * as_json, capsys)
    assert code == 0 and err == ""
    if as_json:
        payload = json.loads(out)
        assert payload["congruent"] is None and "derivation" not in payload
        assert payload["note"] == str(raised.value)
    else:
        lines = out.splitlines()
        assert "congruent: None" in lines and f"note: {raised.value}" in lines
        assert not any(line.startswith("derivation") for line in lines)


# iter_rows walks per request: congruence is decided from one walk of each
# word, and a congruent pair's derivation reuses those walks
@pytest.mark.parametrize("first, second, congruent, walks",
                         [("x1:e x2:e x3:a", "x2:e x1:e x3:a", True, 2),
                          ("x1:a x1:a*", "x1:a* x1:a", False, 2)],
                         ids=["congruent", "not-congruent"])
def test_congruent_walks_each_word_no_more_than_the_library_does(
        first, second, congruent, walks, capsys, monkeypatch):
    import gstar.genmat
    import gstar.identities

    calls = []

    def counting(word, grading, _inner=gstar.genmat.iter_rows):
        calls.append(word)
        return _inner(word, grading)

    for module in (gstar.genmat, gstar.identities):
        monkeypatch.setattr(module, "iter_rows", counting)
    code, payload, _ = run_json(
        ["congruent", "--config", str(CONFIGS / "z2.json"), first, second], capsys)
    assert code == 0 and payload["congruent"] is congruent
    assert len(calls) <= walks


# four components on z4: a class of two members, two classes of one member
# and two identity terms, with unit and non-unit coefficients of both signs
CHECK_ONCE = ("2 x1:a x2:a x3:a - x1:e x2:e + 3 x2:e x1:e - 1/2 x1:a x2:a* + x2:a* x1:a"
              " - x1:a2 x2:a x3:a2")


# the expression, a component and a class or identity term share each
# term's word text and coefficient text; only a class sum is formatted apart
@pytest.mark.parametrize("ring", ["q", "modp:5"])
def test_check_formats_each_term_once(ring, capsys, monkeypatch):
    import gstar.cli
    import gstar.freealg
    import gstar.identities

    calls = {"render_word": [], "format_coeff": []}

    def counting(name, inner):
        def wrapped(*args):
            calls[name].append(args[0])
            return inner(*args)
        return wrapped

    for name in calls:
        inner = getattr(gstar.freealg, name)
        for module in (gstar.freealg, gstar.identities, gstar.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, inner))
    code, payload, _ = run_json(["check", "--config", str(CONFIGS / "z4_3tuple.json"),
                                 "--coeff", ring, CHECK_ONCE], capsys)
    assert code == 0
    components = payload["components"]
    terms = sum(len(c["identity_terms"]) + sum(len(k["monomials"]) for k in c["classes"])
                for c in components)
    classes = sum(len(c["classes"]) for c in components)
    assert (len(components), terms, classes) == (4, 6, 3)
    assert len(calls["render_word"]) == len(set(calls["render_word"])) == terms
    assert len(calls["format_coeff"]) == terms + classes


def test_enumerate_defaults_to_basis_bound(capsys):
    code, payload, _ = run_json(
        ["enumerate", "--config", str(CONFIGS / "z2.json")], capsys
    )
    assert code == 0
    assert payload["max_degree"] == 3
    assert payload["count"] == 0


def test_enumerate_z6(capsys):
    code, payload, _ = run_json(
        [
            "enumerate",
            "--config",
            str(CONFIGS / "z6_3tuple.json"),
            "--max-deg",
            "5",
            "--minimal",
        ],
        capsys,
    )
    assert code == 0
    assert ["a3"] in payload["words"]
    assert ["a", "a", "a"] in payload["words"]
    assert payload["count"] == len(payload["words"])


def test_enumerate_cap_exceeded(capsys):
    # the degree cap, and the node budget, which the count pass charges in
    # full before the first byte is written
    for config, max_deg in (("z6_3tuple.json", "99"), ("klein.json", "8")):
        code, out, err = run(
            ["enumerate", "--config", str(CONFIGS / config), "--max-deg", max_deg, "--json"],
            capsys,
        )
        assert code == 3
        assert "cap" in err
        assert out == ""


def test_selftest_z2(capsys):
    code, payload, _ = run_json(
        ["selftest", "--config", str(CONFIGS / "z2.json"), "--seed", "1"], capsys
    )
    assert code == 0
    assert payload["pass"] is True
    assert {s["suite"] for s in payload["suites"]} >= {
        "group-axioms",
        "hat-maps",
        "product-oracle",
        "monomial-threeway",
        "congruence",
        "basis-identities",
        "basis-reduce",
    }


def test_selftest_deterministic_bytes(capsys):
    args = ["selftest", "--config", str(CONFIGS / "z2.json"), "--seed", "7", "--json"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_deterministic_bytes(capsys):
    args = [
        "enumerate",
        "--config",
        str(CONFIGS / "z6_3tuple.json"),
        "--max-deg",
        "4",
        "--json",
    ]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_bad_coefficient_ring(capsys):
    code, _, err = run(
        ["info", "--config", str(CONFIGS / "z2.json"), "--coeff", "modp:6"], capsys
    )
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("coeff", ["modp:1_1", "modp:+7", "modp: 7", "modp:7 ", "modp:\u0667"])
def test_modulus_is_ascii_digits_only(coeff, capsys):
    # int() alone reads each of these as 11 or 7
    code, out, err = run(["check", "--config", str(CONFIGS / "z2.json"), "--coeff", coeff,
                          "x1:e x2:e - x2:e x1:e"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad modulus") and err.count("\n") == 1


def test_modp_coefficients_accepted(capsys):
    code, payload, _ = run_json(
        [
            "check",
            "--config",
            str(CONFIGS / "z2.json"),
            "x1:e x2:e - x2:e x1:e",
            "--coeff",
            "modp:2",
        ],
        capsys,
    )
    assert code == 0
    assert payload["identity"] is True
    assert payload["coefficients"] == "modp:2"


def test_large_prime_modulus(capsys):
    # deterministic Miller-Rabin: instant where trial division took minutes
    code, _, _ = run(["info", "--config", str(CONFIGS / "z2.json"),
                      "--coeff", "modp:1000000000000000003"], capsys)
    assert code == 0
    code, out, err = run(["info", "--config", str(CONFIGS / "z2.json"),
                          "--coeff", "modp:3317044064679887385961981"], capsys)
    assert (code, out) == (2, "")
    assert "3,317,044,064,679,887,385,961,981" in err


def test_console_entry_point_matches_module():
    from gstar import cli

    parser = cli.build_parser()
    assert parser.prog == "gstar"


def test_eval_identity_reports_zero(capsys):
    code, payload, _ = run_json(
        ["eval", "--config", str(CONFIGS / "z2.json"), "x1:e - x1:e*"], capsys
    )
    assert code == 0
    assert payload["zero"] is True
    assert payload["entries"] == []


def test_check_zero_polynomial(capsys):
    code, payload, _ = run_json(
        ["check", "--config", str(CONFIGS / "z2.json"), "0"], capsys
    )
    assert code == 0
    assert payload["identity"] is True
    assert payload["components"] == []


def test_check_splits_components(capsys):
    code, payload, _ = run_json(
        [
            "check",
            "--config",
            str(CONFIGS / "z2.json"),
            "x1:e x2:e - x2:e x1:e + x1:a x2:a + x2:a x1:a",
        ],
        capsys,
    )
    assert code == 0
    assert len(payload["components"]) == 2
    assert payload["identity"] is False
    verdicts = sorted(c["verdict"] for c in payload["components"])
    assert verdicts == ["identity", "not-identity"]


def test_check_flags_uncertified_identity(capsys):
    code, payload, _ = run_json(
        [
            "check",
            "--config",
            str(CONFIGS / "z4_3tuple.json"),
            "x1:a x2:e x3:e x4:e x5:a x6:a",
        ],
        capsys,
    )
    assert code == 0
    assert payload["identity"] is True
    assert payload["fully_certified"] is False
    (component,) = payload["components"]
    assert component["identity_terms"][0]["subword"] is None


def test_letter_names_come_from_each_call_config(tmp_path, capsys):
    # two configs with one table and different element names, run in one
    # process: each report names the letters by its own config
    reports = []
    for names in (["e", "a"], ["e", "t"]):
        config = tmp_path / f"z2_{names[1]}.json"
        config.write_text(json.dumps({"group": {"elements": names, "table": [[0, 1], [1, 0]]},
                                      "tuple": names}))
        text = f"x1:{names[1]} x2:e - x2:e x1:{names[1]}"
        code, payload, _ = run_json(["check", "--config", str(config), text], capsys)
        assert code == 0
        reports.append(payload["expression"])
    assert reports == ["x1:a x2:e - x2:e x1:a", "x1:t x2:e - x2:e x1:t"]


def test_leading_dash_operand_returns_usage_error(capsys):
    # argparse reads "-x1:a" as an option; main returns 2 instead of exiting
    code, out, err = run(["check", "--config", str(CONFIGS / "z2.json"), "-x1:a"], capsys)
    assert code == 2
    assert out == ""
    assert "usage" in err


@pytest.mark.parametrize("expression", ["1" * 5000 + " x1:a", "x" + "1" * 5000 + ":a"],
                         ids=["coefficient", "index"])
def test_number_past_digit_limit_is_input_error(expression, capsys):
    code, out, err = run(["check", "--config", str(CONFIGS / "z2.json"), expression], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


NINES = "9" * 4300  # the most digits Python converts to text by default


@pytest.mark.parametrize("argv", [
    # like terms sum to a 4,301-digit coefficient: the expression cannot print
    ["check", "--config", str(CONFIGS / "z2.json"), f"{NINES} x1:a + {NINES} x1:a"],
    ["eval", "--config", str(CONFIGS / "z2.json"), f"{NINES} x1:a + {NINES} x1:a"],
    # the expression prints, but a generic entry sums to 4,301 digits
    ["eval", "--config", str(CONFIGS / "z2.json"), f"{NINES} x1:e + {NINES} x1:e*"],
    # the expression prints, but a congruence class sums to 4,301 digits
    ["check", "--config", str(CONFIGS / "z2.json"), f"{NINES} x1:e x2:e + {NINES} x2:e x1:e"],
], ids=["check", "eval", "eval-entry", "check-class-sum"])
def test_coefficient_past_digit_limit_is_input_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: a coefficient has too many digits to print"]


def test_seed_belongs_to_selftest_only(capsys):
    code, out, err = run(["check", "--config", str(CONFIGS / "z2.json"), "--seed", "1", "x1:a"],
                         capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed" in err


def test_congruent_degree_10_reversal_answers_with_stars(capsys):
    # the derivation is built, not searched for: the degree-10 all-neutral
    # reversal answers with exit 0, one star reversing the word and one
    # unstarring each letter
    first = " ".join(f"x{i}:e" for i in range(1, 11))
    second = " ".join(f"x{i}:e" for i in range(10, 0, -1))
    code, out, err = run(["congruent", "--config", str(CONFIGS / "z2.json"), "--json",
                          first, second], capsys)
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert "note" not in report
    assert report["congruent"] is True
    assert len(report["derivation"]) == 11
    _assert_derivation_replays(report, "z2.json")


def test_help_returns_zero(capsys):
    code, out, _ = run(["check", "--help"], capsys)
    assert code == 0
    assert "expression" in out


# sha256 of the --json stdout of check, eval and congruent over all six
# configs: (command, config, [flags...], operands...).  Any change to these
# reports, to their key order or to number formatting shows here.
GOLDEN_REPORTS = [
    (["check", "z2.json", "x1:e x2:e - x2:e x1:e"],
     "bd3ffa6832c4cf15cd4df728c41cb59ad72cbf70ad9e78b1c420049e65c0b31f"),
    (["check", "z2.json", "x1:a x1:a* - x1:a* x1:a + x2:e - x2:e*"],
     "ef268771063245a3f87fa23b40b3ee64ed0fc0ad696384eeb476dfd31f9dd669"),
    (["check", "z4_3tuple.json", "x1:a x2:e x3:e x4:e x5:a x6:a"],
     "017c60e0ba1271b9bb3faa882c94f6086c92ec088041de2bf4b70d9aea345133"),
    (["check", "z4_3tuple.json", "x1:a x2:a x3:a - x3:a x2:a x1:a + 2 x1:a2 x2:a2"],
     "d427a68a0d7b3bf83437b475bfe11351fbcf1948706421b5b1b810673ad9caae"),
    (["check", "z6_3tuple.json", "x1:a3 + x1:a x2:a x3:a + x1:e x2:a - x2:a x1:e"],
     "4fdfbbb8bed7922ca17aacd2417d40c7b6b5e1c69041d634a12772fc580bbc7a"),
    (["check", "z6_3tuple.json", "--coeff", "modp:5", "3 x1:a x2:a4 x3:a - 3 x3:a x2:a4 x1:a + 2 x1:a2 x2:e"],
     "6d4a5b708b0eef8f190927253597af78b686031ce6c6e0ccfcdd4696e1c6edf5"),
    (["check", "klein.json", "x1:a x2:b x3:a x4:b - x3:a x2:b x1:a x4:b + 1/2 x1:c"],
     "56436b040a6bb163d016bacbf0f0cb6bd6872f445725b18bec88326c8c4839e4"),
    (["check", "s3_mixed.json", "x1:r x2:a x3:r - x1:r x2:a x3:r* + x1:e x2:e"],
     "a6ffc5f04cf5d0c9fad26e8808d543a65788f4e8fdd50eb7ab80f1f163bb65a0"),
    (["check", "s3_rot.json", "x1:r x2:rr - x2:rr x1:r + x1:a - x1:e* x2:e"],
     "8cba87469c31aeacc86876c40e7b6ce6695ed05952d2e7d605f8a8830334774a"),
    (["check", "klein.json", "--", "-x1:e x2:e + x2:e x1:e"],
     "80cc77351ae292d16fc366d81d484a096b0101e321b4fde83aadae7f1c9c6a3d"),
    (["eval", "z2.json", "x1:a x1:a* - x1:a* x1:a"],
     "a4c9b99d8cc626a1e0e919dea1653f9c07508fc05a034b75507f7423411ec676"),
    (["eval", "z4_3tuple.json", "x1:a x2:a* x1:a + 2/3 x2:a2 x1:a2*"],
     "c01f4c0302acfed0eb81152e084fd2536f1a1d70bcf772aafd01586b57723511"),
    (["eval", "z6_3tuple.json", "--coeff", "modp:5", "x1:a x2:a x3:a + x1:a5 x2:a + 4 x1:e"],
     "127fa13c0c696b59a92a1c750b576356c213be51e608f93c2b528e923e328777"),
    (["eval", "klein.json", "x1:a x2:b x3:c - x1:e x2:e x3:e*"],
     "4ba38c5ea5be5ecea3cad225da893b497023650929a1648cd89b1df8c0b6e8ec"),
    (["eval", "s3_mixed.json", "x1:r x2:a - x2:a x1:rr + x1:b*"],
     "051bf2fb4b6a704639be3188a5e6a8f1d7f94b8614eefcf8af5cbe0bbb603a18"),
    (["eval", "s3_rot.json", "x1:r x1:r x1:r + x2:rr* x1:r"],
     "77f5eac767a8dbe3c086f740126dc63a129295ed1b143c4639050634c9384b37"),
    (["congruent", "z2.json", "x1:e x2:a x3:e", "x3:e x2:a x1:e"],
     "d2c218f995ded09b4f278ef94add4dcebae52440ea7af4c308cec652f39b96e9"),
    (["congruent", "z4_3tuple.json", "x1:a x2:a3 x3:e", "x3:e x1:a x2:a3"],
     "4a7a6e9471de2f5456f55d7440351fed66b98de00ad7edc7171b54a672445605"),
    (["congruent", "z6_3tuple.json", "x1:a x2:a5 x3:a", "x3:a x2:a5 x1:a"],
     "dc6801a41e0c76489ddcc48bdd006571e34e54e9944834c64bdff44d69e02faf"),
    (["congruent", "klein.json", "x1:a x2:a", "x2:a x1:a"],
     "a611492c136e5263ebbb362297a19efba80dfe35672ba4ff5284e291acaf973b"),
    (["congruent", "s3_mixed.json", "--coeff", "modp:5", "x1:a x2:e x3:e", "x1:a x3:e x2:e"],
     "718628fb38275260ce047d3e0892b09b7cb898e4ef70c75b53c2139be669819f"),
    (["congruent", "s3_rot.json", "x1:e x2:r", "x2:r x1:e*"],
     "75453f629f44240eaa68f0420bc4182cd080e34e5205c5fd7d2a7d9c2f1125dd"),
    (["congruent", "z6_3tuple.json", "x1:a x2:a", "x1:a3"],
     "cddc11fa936e0c4cbddb370eedc1e8857cda41cba4971ca648c7723b3962f497"),
    # derivations of three to six stars, built position by position
    (["congruent", "z2.json", "x1:e x2:e x3:e x4:e x5:e", "x5:e x4:e x3:e x2:e x1:e"],
     "ef0fe8621248a96d30966fca8a04bcc3f54a80043594297e759567ce0b0d82c4"),
    (["congruent", "z6_3tuple.json", "x1:a x2:a5 x3:e x4:a2 x5:a4", "x4:a2 x5:a4 x3:e x2:a5* x1:a*"],
     "b03dd54f501186872f8e72f239c0b8f37fa594654b2efcbe1339553ecb718b14"),
    (["congruent", "s3_mixed.json", "x1:r x2:rr x3:e x4:a x5:a", "x4:a x5:a x3:e* x1:r x2:rr"],
     "95c11f67f78210fe8610e7ccc4eba0ab1aa71f1a3f577a4263579f591838eb70"),
    (["congruent", "klein.json", "x1:b x2:b x3:e x4:c x5:a", "x3:e* x4:c x5:a x2:b x1:b"],
     "39e96bdff98b4b12ba1cadf36994324056f59e66363fd2a434bf9a6ca6fdebdf"),
    (["congruent", "z4_3tuple.json", "--coeff", "modp:5", "x1:a2 x2:a2 x3:e x4:a3 x5:a",
      "x4:a3 x5:a x3:e x2:a2* x1:a2*"],
     "122ec0e5c2d5bb160eeceac8d73bb5d18f26f19bb43d688e0fae391f945572f0"),
]


@pytest.mark.parametrize(
    "case, digest", GOLDEN_REPORTS,
    ids=[f"{i:02d}-{case[0]}-{case[1][:-5]}" for i, (case, _) in enumerate(GOLDEN_REPORTS)],
)
def test_json_report_bytes_pinned(case, digest, capsys):
    command, config, *rest = case
    code, out, _ = run([command, "--config", str(CONFIGS / config), "--json", *rest], capsys)
    assert code == 0
    report = json.loads(out)
    if "derivation" in report:
        _assert_derivation_replays(report, config)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the congruent --json stdout on pairs of degree 6 and 7.  The
# constructed chains take seven and eight stars on the reversals, one
# reversing the word and one unstarring each letter, and seven and eight
# on the mixed pairs; (config, first, second).
GOLDEN_DEEP_DERIVATIONS = [
    (("z2.json", "x1:e x2:e x3:e x4:e x5:e x6:e", "x6:e x5:e x4:e x3:e x2:e x1:e"),
     "ba9456307443e14bf3f73a3cc6742dc50262166c414fffd2a1c8edbafd06a10b"),
    (("z2.json", "x1:e x2:e x3:e x4:e x5:e x6:e x7:e", "x7:e x6:e x5:e x4:e x3:e x2:e x1:e"),
     "55a5e9f2e10088fbb34e58207b2f6df4c9e2e99c2f352d3616c7952907183c55"),
    (("klein.json", "x1:e x2:a x3:a x4:e x5:e x6:e x7:e", "x6:e* x3:a* x2:a* x1:e x5:e* x7:e* x4:e"),
     "ab28ac07185683e608c59a47787b336deac8a72afb219ad8aa34587eccbc6e3a"),
    (("s3_mixed.json", "x1:rr x2:r x3:e x4:e x5:e x6:e x7:e",
      "x4:e x6:e x1:rr x2:r x7:e* x3:e x5:e*"),
     "504cc7ede6487ae933b314de4625d326c15e9e4329f134e133766499a1ea11f8"),
]


@pytest.mark.parametrize(
    "case, digest", GOLDEN_DEEP_DERIVATIONS,
    ids=[f"{c[:-5]}-{len(first.split())}" for (c, first, _), _ in GOLDEN_DEEP_DERIVATIONS],
)
def test_deep_derivation_bytes_pinned(case, digest, capsys):
    config, first, second = case
    code, out, _ = run(["congruent", "--config", str(CONFIGS / config), "--json", first, second],
                       capsys)
    assert code == 0
    _assert_derivation_replays(json.loads(out), config)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


BENCH_CONFIGS = CONFIGS.parent / "bench" / "configs"

# sha256 of the selftest --json stdout: (config path, seed, ring).  The
# report holds suite names, verdicts and counts, not the pairs the
# congruence suite draws; test_identities pins those draws.  Both rings,
# and n = 4 from the bench configs.
GOLDEN_SELFTESTS = [
    ((CONFIGS / "z2.json", "3", "q"),
     "659b205b684bf8cb99456e4a9596f2c8d77dc23e7fe664b912b29b7d65feb716"),
    ((CONFIGS / "z2.json", "11", "q"),
     "645a0b8b2c4ecc9e3b595fd6ca4a9065f898236cc61d2a6a776e51259176b093"),
    ((CONFIGS / "z6_3tuple.json", "3", "q"),
     "4d2ab2971d61891f703a237c7e870423232e1184f88164b4d1674b90765fbb1d"),
    ((CONFIGS / "z6_3tuple.json", "11", "q"),
     "57202ba8aa0f867acdde6b446a833c10a8c833f97fc5356e3d6e6302e2b3ffe3"),
    ((CONFIGS / "z2.json", "3", "modp:5"),
     "659b205b684bf8cb99456e4a9596f2c8d77dc23e7fe664b912b29b7d65feb716"),
    ((CONFIGS / "z6_3tuple.json", "11", "modp:5"),
     "57202ba8aa0f867acdde6b446a833c10a8c833f97fc5356e3d6e6302e2b3ffe3"),
    ((CONFIGS / "s3_mixed.json", "3", "modp:5"),
     "518c5aa199cd881f27d82b0c059acd76200c51ffa6908af9db5addd9dd501a6b"),
    ((BENCH_CONFIGS / "s3_4tuple.json", "3", "q"),
     "d1665bfaeac6a7c608e9711ee7b1953a49450d35a741351ff4c734310997b5d5"),
    ((BENCH_CONFIGS / "s3_4tuple.json", "5", "modp:5"),
     "8e9ad3e848cdc52e70971249824d19ae6bc40efe9413a4b026b3006e69edd423"),
]


@pytest.mark.parametrize(
    "case, digest", GOLDEN_SELFTESTS,
    ids=[f"{c.stem}-{s}" + ("" if r == "q" else f"-{r.replace(':', '')}")
         for (c, s, r), _ in GOLDEN_SELFTESTS],
)
def test_selftest_bytes_pinned(case, digest, capsys):
    config, seed, ring = case
    code, out, _ = run(["selftest", "--config", str(config), "--seed", seed, "--coeff", ring,
                        "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the enumerate stdout: (config path, flags...).  Full and minimal
# listings, off-support letters, a grading without identities at the
# default degree, n = 4, 5 gradings and text-mode reports.  The last two
# are deep enough that each node's rendered two-letter suffixes are written
# under many prefixes.
GOLDEN_ENUMERATIONS = [
    ([CONFIGS / "z4_3tuple.json", "--max-deg", "5", "--json"],
     "bdcb2810cbd7aa54db4eb63a3cae8f06e6cf229b92b2b138830e6c985f668f59"),
    ([CONFIGS / "klein.json", "--max-deg", "5", "--minimal", "--json"],
     "c268735ca9f7b7c4bdb99f1fb7aeffe65fa6c2db12e052bf505a3fa45bcbf3a2"),
    ([CONFIGS / "z6_3tuple.json", "--max-deg", "4", "--json"],
     "316e10bc3385f84819bbdd8a62ea9d031eee43ecabe775b89e188f1736db68c5"),
    ([CONFIGS / "z6_3tuple.json", "--max-deg", "4", "--minimal", "--json"],
     "f26a4cbd6db4e5602c2432816e14423d1ec84ad3d8827ac7f56270f3260759b7"),
    ([CONFIGS / "s3_rot.json", "--max-deg", "5", "--json"],
     "87f24ae18403e3fa16fde5b31440959608a5ac134c2c2cbfe05f8fa43ae34767"),
    ([CONFIGS / "z2.json", "--json"],
     "f5853c692b83b920f43f6de346a5df85d4ef030524ff4351147079d1de684681"),
    ([BENCH_CONFIGS / "s3_4tuple.json", "--max-deg", "4", "--minimal", "--json"],
     "fd10b1095337b3bccf01685c896f8e121d9062da00f0b48091a3f44b15aef237"),
    ([BENCH_CONFIGS / "z8_4tuple.json", "--max-deg", "3", "--json"],
     "e84833b618f54449b0f3b63b29fe5f58490068ac7760f6471c452884b1906aac"),
    ([BENCH_CONFIGS / "z10_5tuple.json", "--max-deg", "3", "--minimal", "--json"],
     "8e54658980e6581130270fab6ae250c9d18dfcd434d8078bd56da5c90846440f"),
    ([CONFIGS / "s3_mixed.json", "--max-deg", "4", "--minimal"],
     "284d6ec9b16824fac2eeb75023fb22474b9416f7b4d71bce568ec2d91db1dc70"),
    ([CONFIGS / "z2.json"],
     "d52a5f813f3aabcbed02a63e4f0ec7f6f63330201cdaaa835fe92ec38959d0c4"),
    ([CONFIGS / "z4_3tuple.json", "--max-deg", "6"],
     "71caf96527cc305d2e456e3e134c95777c6fa81f10bc4294696093be8dac639b"),
    ([CONFIGS / "klein.json", "--max-deg", "8", "--minimal", "--json"],
     "1b4b77d4ae3b73be5c25131585ea72ba132ebfdbe5bdad9fb93aa818e04b9eb0"),
]


@pytest.mark.parametrize(
    "case, digest", GOLDEN_ENUMERATIONS,
    ids=[f"{i:02d}-{case[0].stem}" for i, (case, _) in enumerate(GOLDEN_ENUMERATIONS)],
)
def test_enumerate_bytes_pinned(case, digest, capsys):
    config, *flags = case
    code, out, _ = run(["enumerate", "--config", str(config), *flags], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_large_grading_bytes_pinned(tmp_path, capsys):
    # Z64 with 32 entries has about 10^5 reachable compositions of hat
    # maps; a degree-3 listing (31,104 words) reads only the few thousand
    # it steps through.  Digest captured before the graph was interned.
    rng = random.Random(7)
    names = ["e", "a"] + [f"a{k}" for k in range(2, 64)]
    config = tmp_path / "z64_32.json"
    config.write_text(json.dumps({
        "group": {"cyclic": 64},
        "tuple": [names[i] for i in sorted(rng.sample(range(64), 32))],
    }))
    code, out, _ = run(["enumerate", "--config", str(config), "--max-deg", "3", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0c521aab7a7335d5b133f495f4b30a98ac0fdc438a46de05aed3771040e1f7c2"
    )


# Runs main on argv in sys.argv[2:] with stdout hashed as it is written,
# under a 1 GiB address-space limit, and prints the exit code, the byte
# count, the sha256 and the peak RSS in kB of this process.  The peak is
# VmHWM, not ru_maxrss: on Linux ru_maxrss keeps the high-water mark of the
# process that started this one, here the test runner at over 100 MB.
STREAM_CHILD = """
import hashlib, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from gstar.cli import main

class Sink:
    def __init__(self):
        self.digest, self.size = hashlib.sha256(), 0
    def write(self, text):
        data = text.encode()
        self.digest.update(data)
        self.size += len(data)

sink, real = Sink(), sys.stdout
sys.stdout = sink
code = main(sys.argv[2:])
sys.stdout = real
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, sink.size, sink.digest.hexdigest(), peak_kb)
"""


def test_enumerate_streams_a_large_listing_in_bounded_memory():
    # Klein at degree 7: 1,454,256 words, 198 MB of JSON.  Holding every
    # word took 539 MB and holding one first-letter subtree 95 MB; the
    # stream holds the count memo and one first-letter subtree's memo of
    # two-letter suffixes, and peaks near 19 MB.
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["enumerate", "--config", str(CONFIGS / "klein.json"), "--max-deg", "7", "--json"]
    done = subprocess.run([sys.executable, "-c", STREAM_CHILD, str(src), *argv],
                          capture_output=True, text=True, timeout=300, check=True)
    code, size, digest, peak_kb = done.stdout.split()
    assert (code, size) == ("0", "197926173")
    assert digest == "770d60af477a893495db7d7ac2e822a109a28966ed4d1d2090535f31b84e160a"
    assert int(peak_kb) < 40 * 1024


def test_enumerate_writes_are_bounded(monkeypatch):
    # Klein minimal to degree 8: 19,149,883 characters in 32,008 writes.
    # A write is one block of words sharing a prefix, at most 856
    # characters here; a whole first-letter subtree would be 1,685,376.
    sizes: list = []

    class Sink:
        def write(self, text):
            sizes.append(len(text))

    monkeypatch.setattr(sys, "stdout", Sink())
    code = main(["enumerate", "--config", str(CONFIGS / "klein.json"), "--max-deg", "8",
                 "--minimal", "--json"])
    monkeypatch.undo()
    assert code == 0
    assert sum(sizes) == 19_149_883
    assert max(sizes) <= 64 * 1024


def write_escaped_config(directory: Path) -> Path:
    """Z5 with element names that JSON escapes (a quote, a backslash, a
    non-ASCII letter) and that text mode quotes with double quotes (an
    apostrophe); the tuple is the first three elements."""
    names = ["e", 'a"b', "c\\d", "\u00e9", "f'g"]
    config = directory / "escaped.json"
    config.write_text(json.dumps({
        "group": {"elements": names, "table": [[(i + j) % 5 for j in range(5)] for i in range(5)]},
        "tuple": names[:3],
    }))
    return config


# sha256 of the enumerate stdout on the escaped-name grading: flags.
GOLDEN_ESCAPED_ENUMERATIONS = [
    (["--max-deg", "4", "--json"],
     "bdfa87581c0908d870638da3218c54e6d5505992439a5ff4448cbe5a067cb96f"),
    (["--max-deg", "4"],
     "88da434e8e29fde6cea5cf25cd0c0629e28b8a95e61501ee46530762960f5672"),
    (["--max-deg", "4", "--minimal", "--json"],
     "5207583c2d35a7b37c0c4759ac414e7fbc545a41fa410f66d123ee46c6a8a2e6"),
]


@pytest.mark.parametrize("flags, digest", GOLDEN_ESCAPED_ENUMERATIONS,
                         ids=[" ".join(f) for f, _ in GOLDEN_ESCAPED_ENUMERATIONS])
def test_enumerate_escaped_names_bytes_pinned(flags, digest, tmp_path, capsys):
    config = write_escaped_config(tmp_path)
    code, out, _ = run(["enumerate", "--config", str(config), *flags], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def reference_enumeration(config: Path, max_deg: int, minimal: bool) -> dict:
    """The enumerate payload as a dict, rendered word by word."""
    grading = grading_from_json(json.loads(config.read_text(encoding="utf-8")))
    words = enumerate_monomial_identities(grading, max_deg, minimal_only=minimal)
    group = grading.group
    names = [[group.name_of(element) + ("*" if star else "") for _, element, star in w]
             for w in words]
    return {
        "schema": "gstar-report/1",
        "command": "enumerate",
        "max_degree": max_deg,
        "minimal_only": minimal,
        "count": len(words),
        "max_identity_degree": max((len(w) for w in words), default=0),
        "words": names,
        "monomials": [
            " ".join(f"x{p}:{name}" for p, name in enumerate(w, 1)) for w in names
        ],
    }


def assert_same_report(out: str, expected: str) -> None:
    """Fail on the first differing line: pytest's own diff of two long
    reports takes minutes."""
    if out != expected:
        pairs = zip(out.splitlines(), expected.splitlines())
        diff = next(((n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b), None)
        pytest.fail(f"first difference (line, got, expected): {diff}; "
                    f"lengths {len(out)} and {len(expected)}")


def write_random_config(directory: Path, seed: int) -> Path:
    """The config of ``random_grading(random.Random(seed), max_n=4)``."""
    grading = random_grading(random.Random(seed), max_n=4)
    group = grading.group
    config = directory / f"random-{seed}.json"
    config.write_text(json.dumps({
        "group": {"elements": list(group.names), "table": [list(row) for row in group.table]},
        "tuple": [group.names[g] for g in grading.defining_tuple],
    }))
    return config


# random_grading seeds: Z6 with the tuple (e); S3 with (c, rr, e); Z5 with
# (a2, a3, e, a); Z7 with (a4, a6), whose tuple leaves out the identity.
# Three of them list off-support letters at length 1.
RANDOM_GRADING_SEEDS = (1, 5, 21, 28)


@pytest.mark.parametrize("minimal", [False, True], ids=["full", "minimal"])
@pytest.mark.parametrize("max_deg", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "config",
    [*sorted(CONFIGS.glob("*.json")), "escaped", *(f"random-{s}" for s in RANDOM_GRADING_SEEDS)],
    ids=lambda c: getattr(c, "stem", c),
)
def test_enumerate_matches_dumped_payload(config, max_deg, minimal, tmp_path, capsys):
    # json.dumps and _print_text of the whole payload are the reference
    # for the report that cmd_enumerate streams block by block.
    if config == "escaped":
        config = write_escaped_config(tmp_path)
    elif isinstance(config, str):
        config = write_random_config(tmp_path, int(config.split("-")[1]))
    payload = reference_enumeration(config, max_deg, minimal)
    argv = ["enumerate", "--config", str(config), "--max-deg", str(max_deg)]
    argv += ["--minimal"] * minimal
    code, out, _ = run(argv + ["--json"], capsys)
    assert code == 0
    assert_same_report(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    text = io.StringIO()
    _print_text(payload, text)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert_same_report(out, text.getvalue())


# sha256 of the info --json stdout of every config: the support, and the
# domain, image and map of each hat.
GOLDEN_INFOS = [
    (CONFIGS / "klein.json", "4020326cb471571ed2c1d63ec3c23f1160b66c22e81861dd00078aacf25056b4"),
    (CONFIGS / "s3_mixed.json", "231312b44a042234191dc6d49c7589ec11e813644ea9569af3422fa9a9cb9e13"),
    (CONFIGS / "s3_rot.json", "7440e80c00c57c2444ddacb48ec57cc1b9c42cd8dbf6320e86c1a4f59abae3d4"),
    (CONFIGS / "z2.json", "df17a63c31674d5e3347e0d95c0534b855b68c2d6ad885115f337f74040e3122"),
    (CONFIGS / "z4_3tuple.json", "4cc65e7bd1cace04395feb488e5a1139783ad94e8f347c99e23fbd705b053079"),
    (CONFIGS / "z6_3tuple.json", "5342c99b7bd12a23be6f8e1c72bd6abe75b1a622a09369fe7aa8a03b3c698363"),
    (BENCH_CONFIGS / "s3_4tuple.json", "b3333a2977dd2e1baa485122a32b714c0d418a20cfb25cd7c5a534d261b26706"),
    (BENCH_CONFIGS / "z10_5tuple.json", "930e63bb39facd12b687e06a3ef68e7c0b9fe14d3d8b75f9b5d28f602eb34812"),
    (BENCH_CONFIGS / "z5_full.json", "b39234ac7c21377c19aa5f342570ea39435c645274a504d88f0733108975afac"),
    (BENCH_CONFIGS / "z8_4tuple.json", "04a74aa02d475078775815c51cbf5b0b47db30a54673f90fb7c54a18b3e9d0ca"),
]


@pytest.mark.parametrize("config, digest", GOLDEN_INFOS, ids=[c.stem for c, _ in GOLDEN_INFOS])
def test_info_bytes_pinned(config, digest, capsys):
    code, out, _ = run(["info", "--config", str(config), "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the JSON report writer

WRITER_PAYLOAD = {
    "empty_dict": {},
    "empty_list": [],
    "empty_tuple": (),
    "nested": {"b": [{"y": [], "x": {}}, ("t", 1, [[]])], "a": {"z": {"deep": [None]}}},
    "caf\u00e9 \u2603 \U0001d11e": "\u00e9\u2603\U0001d11e\x00\x1f\x7f\"\\/\n\t ",
    "\x01\t\"key\"\\": ["\x85", "\ud800", ""],
    "flags": [True, False, None],
    "ints": [0, -1, 2**64, -(2**64) - 1, 10**40],
    "": "empty key",
}


def test_json_writer_matches_json_dumps():
    """_emit writes the bytes of json.dumps(sort_keys=True, indent=2) and a
    newline, past the escapes, nestings and ints json.dumps handles itself."""
    args = type("Args", (), {"json": True, "command": "check"})()
    out = io.StringIO()
    _emit(dict(WRITER_PAYLOAD), args, out)
    expected = {"schema": SCHEMA, "command": "check", **WRITER_PAYLOAD}
    assert out.getvalue() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: "int key"}, {"a": {1, 2}}, b"bytes"])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json_pieces(value, [], "\n")
