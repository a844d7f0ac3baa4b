"""Package-level contracts: the public names, what importing the CLI loads,
and what the reference module may import."""

import ast
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import gstar
from gstar.sampling import standard_gradings

SRC = Path(__file__).resolve().parents[1] / "src"

# Lists the modules of sys.argv[2:] that a fresh import of gstar.cli from
# sys.argv[1] leaves in sys.modules.
IMPORT_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import gstar.cli
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


def test_every_public_name_resolves():
    assert {"Group", "Fp", "BasisReduction", "IdentityTerm", "run_selftest"} <= set(gstar.__all__)
    for name in gstar.__all__:
        getattr(gstar, name)


def test_public_names_are_no_modules_and_no_monomial_classes():
    assert [name for name in gstar.__all__ if isinstance(getattr(gstar, name), ModuleType)] == []
    # a word and an entry monomial are plain tuples, with functions but no class
    assert not {"GMonomial", "CMonomial"} & set(dir(gstar))
    assert {"render_word", "star_word", "multidegree"} <= set(gstar.__all__)


def test_one_letter_form_in_both_listings():
    # a letter is the plain (slot, element, star) triple: no class names a
    # signed letter, the only signed names of a grading compose a word of
    # triples and list the support pairs, and an index-free word has slot p
    # at position p
    assert [name for name in dir(gstar) + dir(gstar.gradings) if "Signed" in name] == []
    assert [name for name in dir(gstar.Grading) if "signed" in name] == [
        "compose_signed", "signed_alphabet"]
    grading = standard_gradings()["Z6:(e,a,a2)"]
    listings = (
        gstar.enumerate_monomial_identities(grading, 4),
        gstar.enumerate_monomial_identities(grading, 4, minimal_only=True),
        gstar.minimal_identities_up_to(grading, 10),
    )
    for words in listings:
        assert words
        for w in words:
            assert type(w) is tuple
            assert [(type(v), len(v), v[0]) for v in w] == [
                (gstar.GVar, 3, p) for p in range(1, len(w) + 1)]
            assert gstar.word_monomial(w) == w


def test_cli_import_loads_no_dataclass_machinery():
    # dataclasses imports inspect, which imports ast, dis and tokenize: more
    # than gstar's own module bodies cost to run
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_CHILD, str(SRC), "dataclasses", "inspect", "ast"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []


def test_reference_imports_only_groups_rings_and_errors():
    """The independent references stay apart from the fast path: their
    module imports no gstar module but the group, ring and error ones, and
    never names the hat table, the composition graph or the word kernel."""
    source = (SRC / "gstar" / "reference.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gstar")):
            imported.add((node.module or "").removeprefix("gstar").lstrip("."))
        elif isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("gstar")]
    assert imported and imported <= {"groups", "rings", "errors"}
    for name in ("hats", ".hat(", "composition_graph", "iter_rows"):
        assert name not in source, name
