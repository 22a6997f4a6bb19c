"""crnkit: exact structural analysis of chemical reaction networks.

Parses a plain-text reaction DSL, computes the molecularity / incidence /
stoichiometric matrices over exact rationals, decides whether a nontrivial
independent decomposition exists via coordinate-graph connectivity (and
constructs the finest one when it does), reports network numbers and
deficiency-theorem verdicts, and evaluates mass-action / power-law kinetics
at a point.
"""

from .analysis import (
    CONCLUSION_AT_MOST_ONE,
    CONCLUSION_EXACTLY_ONE,
    CONCLUSION_NO_POSITIVE_STEADY_STATE,
    CONCLUSION_NOT_APPLICABLE,
    DeficiencyVerdict,
    DimensionError,
    EmptySubsetError,
    Kinetics,
    NetworkNumbers,
    NonPositivePointError,
    deficiency_one_check,
    deficiency_zero_check,
    is_steady_state,
    linkage_classes,
    network_numbers,
    sfrf,
    strong_linkage_classes,
    subnetwork,
    terminal_strong_linkage_classes,
)
from .decomposition import (
    CoordinateGraph,
    Decomposition,
    IndependenceReport,
    InternalError,
    MismatchedReactionSetError,
    PartitionError,
    build_coordinate_graph,
    connected_components,
    find_independent_decomposition,
    refine_or_coarsen_check,
    verify_decomposition,
)
from .linalg import (
    BasisSelection,
    NotInSpanError,
    RationalMatrix,
    coordinates,
    rank,
    rank_of_rows,
    rref,
    select_basis_rows,
)
from .model import (
    Complex,
    DuplicateLabelError,
    DuplicateReactionError,
    EmptyNetworkError,
    Network,
    NetworkError,
    Reaction,
    SelfLoopError,
    Species,
    incidence_matrix,
    molecularity_matrix,
    stoichiometric_matrix,
)
from .parser import DslSyntaxError, parse_file, parse_network, to_dsl
from .report import AnalysisReport, build_report, json_dumps, render_text

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: `Rational` (`fractions.Fraction`) resolves on first access, as in `linalg`.
    if name == "Rational":
        from .linalg import Rational

        return Rational
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisReport",
    "BasisSelection",
    "CONCLUSION_AT_MOST_ONE",
    "CONCLUSION_EXACTLY_ONE",
    "CONCLUSION_NO_POSITIVE_STEADY_STATE",
    "CONCLUSION_NOT_APPLICABLE",
    "Complex",
    "CoordinateGraph",
    "Decomposition",
    "DeficiencyVerdict",
    "DimensionError",
    "DslSyntaxError",
    "DuplicateLabelError",
    "DuplicateReactionError",
    "EmptyNetworkError",
    "EmptySubsetError",
    "IndependenceReport",
    "InternalError",
    "Kinetics",
    "MismatchedReactionSetError",
    "Network",
    "NetworkError",
    "NetworkNumbers",
    "NonPositivePointError",
    "NotInSpanError",
    "PartitionError",
    "Rational",
    "RationalMatrix",
    "Reaction",
    "SelfLoopError",
    "Species",
    "build_coordinate_graph",
    "build_report",
    "connected_components",
    "coordinates",
    "deficiency_one_check",
    "deficiency_zero_check",
    "find_independent_decomposition",
    "incidence_matrix",
    "is_steady_state",
    "json_dumps",
    "linkage_classes",
    "molecularity_matrix",
    "network_numbers",
    "parse_file",
    "parse_network",
    "rank",
    "rank_of_rows",
    "refine_or_coarsen_check",
    "render_text",
    "rref",
    "select_basis_rows",
    "sfrf",
    "stoichiometric_matrix",
    "strong_linkage_classes",
    "subnetwork",
    "terminal_strong_linkage_classes",
    "to_dsl",
    "verify_decomposition",
]
