"""toposkit: exact computation over finite categories.

Presheaves, sites and sheafification, functor extensions along the
representable embedding with their right adjoints, flatness and continuity
tests, and executable verification suites for the structural facts the
package is built on.
"""

from .errors import (
    ConstructionRefused,
    FactorizationError,
    ResourceBudgetError,
    StructureError,
    ToposkitError,
    WorkspaceParseError,
)
from .fincat import FinCategory, FinFunctor, HandleFunctor, make_category
from .presheaf import (
    Presheaf,
    PresheafCategory,
    PresheafMorphism,
    enumerate_presheaf_morphisms,
    find_presheaf_iso,
    finset_category,
    is_presheaf_iso,
    make_presheaf,
    yoneda_embed,
)
from .site import (
    SheafCategory,
    Site,
    canonical_pretopology,
    epsilon,
    generate_topology,
    is_continuous,
    is_sheaf,
    is_subcanonical,
    sheafify,
)
from .kan import (
    adjunction_phi,
    build_ell,
    is_flat_bounded,
    is_flat_setvalued,
    right_adjoint_hp,
    tilde_extend,
)
from .verify import Budget, corpus_generate, run_theorem_suite, suite_all
from .workspace import Workspace, parse_workspace, parse_workspace_text, print_workspace

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "ConstructionRefused",
    "FactorizationError",
    "FinCategory",
    "FinFunctor",
    "HandleFunctor",
    "Presheaf",
    "PresheafCategory",
    "PresheafMorphism",
    "ResourceBudgetError",
    "SheafCategory",
    "Site",
    "StructureError",
    "ToposkitError",
    "Workspace",
    "WorkspaceParseError",
    "adjunction_phi",
    "build_ell",
    "canonical_pretopology",
    "corpus_generate",
    "enumerate_presheaf_morphisms",
    "epsilon",
    "find_presheaf_iso",
    "finset_category",
    "generate_topology",
    "is_continuous",
    "is_flat_bounded",
    "is_flat_setvalued",
    "is_presheaf_iso",
    "is_sheaf",
    "is_subcanonical",
    "make_category",
    "make_presheaf",
    "parse_workspace",
    "parse_workspace_text",
    "print_workspace",
    "right_adjoint_hp",
    "run_theorem_suite",
    "sheafify",
    "suite_all",
    "tilde_extend",
    "yoneda_embed",
]
