"""Finite principal bundles and their Frobenius adjunctions, verified
exhaustively at desk scale."""

from .finset import (
    FinSet,
    FinFn,
    IsoCertificate,
    coequalizer,
    product,
    pullback,
)
from .algebra import (
    ActionObject,
    EquivariantMap,
    FinGroupoid,
    action_product,
    sigma,
    trivial_action,
    untwist_iso,
    validate_action,
    validate_group,
    validate_groupoid,
)
from .torsor import (
    Bundle,
    DescentDatum,
    TorsorWitness,
    division_map,
    enumerate_torsors,
    glue_descent_data,
    is_principal_bundle,
    trivial_torsor,
)
from .adjunction import (
    AdjunctionPresentation,
    adjunction_to_bundle,
    bundle_to_adjunction,
    check_frobenius,
    check_stably_frobenius,
    corollary_slice_criterion,
    frobenius_canonical_map,
    presentation,
    slice_adjunction,
    slice_groupoid_equivalence,
    tensor,
)

from . import adjunction, algebra

__version__ = "0.1.0"

# Every module-level cache.  They are unbounded; suites.theorem_torsor_checks
# empties them after each torsor instance, and the caches of a
# presentation's components live and die with the presentation.  These
# references are taken at import, so clearing still works when a tracer
# has replaced the module attributes by wrappers without cache_clear.
# finset's FinSet and FinFn pools are not caches: equality there is
# identity, so they are never emptied.
_MODULE_CACHES = (algebra.sigma, algebra.action_product)


def clear_caches() -> None:
    """Empty every module-level cache, so that the next run or torsor
    instance starts cold."""
    for memo in _MODULE_CACHES:
        memo.cache_clear()
    adjunction._tensor_cache.clear()
