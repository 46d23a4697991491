"""Exact topological entropy of continuous endomorphisms of Lie groups.

The entropy of such an endomorphism is carried entirely by the induced
action on the maximal torus in the center of the eventual image, where it is
the classical eigenvalue formula.  This package mechanizes that reduction
over exact rational arithmetic and pairs it with a numerical spanning-set
estimator that can falsify (never certify) the exact pipeline.

Records that hold plain values are `typing.NamedTuple`s: immutable, equal
and hashed by value, changed with `_replace`.  A record is a frozen
dataclass only when it caches derived state with `cached_property`, which
needs an instance dict, or checks an invariant in `__post_init__`.
"""

from .exactlinalg import Lattice, Subspace, char_poly, lattice_intersect_subspace, min_poly
from .mahler import EntropyValue, cyclotomic_part, log_mahler
from .liealgebra import LieAlgebra, center, killing_form, nilradical, solvable_radical, validate_algebra
from .torus import TorusEndo, entropy, finite_order
from .groups import (
    AnalysisReport,
    GroupEndomorphism,
    PresentedGroup,
    analyze,
    check_toral_induced_finite_order,
    eventual_image,
    li_yorke_report,
    quotient_by_torus,
    topological_entropy,
    toral_lattice,
    validate_endomorphism,
    validate_presentation,
)
from .estimator import GridDynamics, SpanningEstimate, bundle_inequality_check, li_yorke_search, spanning_entropy_estimate
from .catalog import builtin_catalog

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "EntropyValue",
    "GridDynamics",
    "GroupEndomorphism",
    "Lattice",
    "LieAlgebra",
    "PresentedGroup",
    "SpanningEstimate",
    "Subspace",
    "TorusEndo",
    "analyze",
    "builtin_catalog",
    "bundle_inequality_check",
    "center",
    "char_poly",
    "check_toral_induced_finite_order",
    "cyclotomic_part",
    "entropy",
    "eventual_image",
    "finite_order",
    "killing_form",
    "lattice_intersect_subspace",
    "li_yorke_report",
    "li_yorke_search",
    "log_mahler",
    "min_poly",
    "nilradical",
    "quotient_by_torus",
    "solvable_radical",
    "spanning_entropy_estimate",
    "topological_entropy",
    "toral_lattice",
    "validate_algebra",
    "validate_endomorphism",
    "validate_presentation",
]
