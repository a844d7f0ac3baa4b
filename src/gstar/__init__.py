"""Graded polynomial identities of matrix algebras with the transpose involution.

The package decides whether a polynomial in graded, starred variables is an
identity of the n x n matrices under an elementary group grading whose
neutral component is the diagonal, and certifies identities by reduction
against the canonical basis: the neutral star relation, the off-support
variables, and the monomial identities of degree at most 2n-1.  The neutral
commutator follows from the star relation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    GradingError,
    GroupError,
    GstarError,
    InternalCheckError,
    ParseError,
    PreconditionError,
    ResourceCapError,
    ShapeError,
)
from .freealg import (
    GPolynomial,
    GVar,
    evaluate,
    evaluate_monomial,
    format_poly,
    multidegree,
    multihomogeneous_components,
    parse_poly,
    render_word,
    star_polynomial,
    star_word,
    variable,
)
from .genmat import closed_form_product, evaluation_key, iter_rows
from .gradings import Grading, build_grading, grading_from_json
from .groups import Group, group_from_json, make_cyclic, make_from_table
from .identities import (
    BASIS_FAMILIES,
    BasisReduction,
    CongruenceClass,
    DerivationStep,
    IdentityListing,
    IdentityTerm,
    basis_polynomials,
    basis_reduce,
    congruent_mod_neutral,
    derivation_mod_neutral,
    enumerate_monomial_identities,
    is_identity,
    is_monomial_identity,
    minimal_identities_up_to,
    subword_identity_certificate,
    verify_basis,
    word_monomial,
)
from .reference import (
    CPolynomial,
    PartialInjection,
    SparseMatrix,
    generic_matrix_signed,
    honest_product,
    render_entry_monomial,
)
from .rings import RATIONALS, Fp, PrimeField, Rationals, parse_field
from .selftest import exhaustive_word_scan, run_selftest

__version__ = "0.1.0"

# the submodules are bound here too, by the imports above; they are not public names
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
