"""Package-level contracts: the public names, and what importing the CLI loads."""

import subprocess
import sys
from pathlib import Path
from types import ModuleType

import gstar

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


def test_cli_import_loads_no_dataclass_machinery():
    # dataclasses imports inspect, which imports ast, dis and tokenize: more
    # than gstar's own module bodies cost to run
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_CHILD, str(SRC), "dataclasses", "inspect", "ast"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []
