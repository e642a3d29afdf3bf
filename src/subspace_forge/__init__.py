"""Toolkit for almost-affinely-disjoint and almost-sparse subspace families.

Builds exact finite-field linear algebra from scratch (GF(p^m), RREF,
canonical subspaces), verifies partial spreads and the exact AAD / AS
parameters of subspace families with witnesses, constructs families
(Reed-Solomon based, code-column based, seeded random), evaluates the
closed-form size bounds, searches for maximal families at tiny
parameters, and demonstrates the batch-code application.
"""

__version__ = "0.1.0"

from .gf import Field, SizeGuardError, field_from_order, make_field
from .matgf import kernel_basis, rank_of_stack, rref
from .subspace import Subspace, enumerate_subspaces, gaussian_binomial
from .family import (
    Family,
    NotAPartialSpread,
    VerificationReport,
    build_report,
    check_partial_spread,
    check_relations,
    compute_L_aad,
    compute_L_as,
    coset_hits,
    coset_hits_bruteforce,
)
from .constructions import (
    max_family_size_bound,
    max_family_size_bound_no_spread,
    bounds_table,
    build_code_based_family,
    build_random_family,
    build_rs_family,
    growth_diagnostic,
    rs_guaranteed_L,
)
from .search import SearchResult, exhaustive_max_family, greedy_max_family
from .batch import BatchCode, RecoveryPlan, batch_s, verify_batch

__all__ = [
    "Field",
    "SizeGuardError",
    "make_field",
    "field_from_order",
    "rref",
    "kernel_basis",
    "rank_of_stack",
    "Subspace",
    "enumerate_subspaces",
    "gaussian_binomial",
    "Family",
    "VerificationReport",
    "NotAPartialSpread",
    "check_partial_spread",
    "coset_hits",
    "coset_hits_bruteforce",
    "compute_L_aad",
    "compute_L_as",
    "check_relations",
    "build_report",
    "build_rs_family",
    "build_code_based_family",
    "build_random_family",
    "max_family_size_bound",
    "max_family_size_bound_no_spread",
    "rs_guaranteed_L",
    "bounds_table",
    "growth_diagnostic",
    "SearchResult",
    "exhaustive_max_family",
    "greedy_max_family",
    "BatchCode",
    "RecoveryPlan",
    "batch_s",
    "verify_batch",
]
