"""Rank-k graphs: factorization calculus, periodicity, ideals, simplicity.

A graph is built from a colored skeleton and a table of commuting squares
(`KGraph(skeleton, squares)` validates everything or refuses).  On top of
the path calculus sit the exact local periodicity decision, the vertex-set
ideal lattice, and bounded-scan analyses with re-validating certificates.
"""

from .analysis import (
    RepElement,
    all_ideals_gauge_invariant,
    analyze,
    annihilates,
    is_simple,
    rep_apply,
    rep_apply_adjoint,
    sample_family,
    verify_annihilation,
)
from .degrees import add, join, leq, ones, positive_part, subtract, zero
from .documents import (
    canonical_json,
    dump_graph_document,
    graph_from_json,
    load_graph_document,
    parse_graph_document,
)
from .errors import (
    CompositionError,
    ContractViolationError,
    DegreeError,
    DocumentError,
    LimitExceededError,
    ValidationError,
)
from .factorization import KGraph, Path, SquareTable, compose, factor, segment
from .fixtures import fixture_parts
from .ideals import (
    enumerate_sat_her,
    is_cofinal,
    is_hereditary,
    is_saturated,
    quotient,
    sat_her_closure,
)
from .infinite import (
    EventuallyPeriodicPath,
    ep_compose,
    ep_equal,
    ep_samples,
)
from .periodicity import (
    AperiodicityWitness,
    PeriodicityTuple,
    local_periodicity_at,
    scan_aperiodicity,
)
from .skeleton import Edge, Skeleton

__version__ = "0.1.0"

__all__ = [
    "AperiodicityWitness",
    "CompositionError",
    "ContractViolationError",
    "DegreeError",
    "DocumentError",
    "Edge",
    "EventuallyPeriodicPath",
    "KGraph",
    "LimitExceededError",
    "Path",
    "PeriodicityTuple",
    "RepElement",
    "Skeleton",
    "SquareTable",
    "ValidationError",
    "add",
    "all_ideals_gauge_invariant",
    "analyze",
    "annihilates",
    "canonical_json",
    "compose",
    "dump_graph_document",
    "enumerate_sat_her",
    "ep_compose",
    "ep_equal",
    "ep_samples",
    "factor",
    "fixture_parts",
    "graph_from_json",
    "is_cofinal",
    "is_hereditary",
    "is_saturated",
    "is_simple",
    "join",
    "leq",
    "load_graph_document",
    "local_periodicity_at",
    "ones",
    "parse_graph_document",
    "positive_part",
    "quotient",
    "rep_apply",
    "rep_apply_adjoint",
    "sample_family",
    "sat_her_closure",
    "scan_aperiodicity",
    "segment",
    "subtract",
    "verify_annihilation",
    "zero",
]
