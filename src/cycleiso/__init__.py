"""Cycle-isolation numbers of small graphs.

A set D of vertices k-cycle-isolates a graph G when G - N[D] has no
k-cycle subgraph; the isolation number is the least size of such a set.
This package computes isolation numbers exactly, builds 4-cycle isolating
sets within the (m+1)/6 bound constructively, constructs and recognises
the extremal family attaining (m+1)/(k+2), and surveys rational bounds
over exhaustive or ingested graph streams.
"""

from .constructive import (
    CaseTrace,
    TraceStep,
    bound_value,
    construct,
)
from .cycles import all_cycles
from .family import (
    ConsDecomposition,
    Tree,
    build,
    enumerate_trees,
    recognize,
)
from .graphs import (
    Graph,
    GraphFormatError,
    boundary_edge_count,
    closed_neighborhood,
    encode_graph6,
    from_edge_list,
    parse_edge_list,
    parse_graph6,
)
from .isolation import (
    BudgetExceededError,
    ExactResult,
    IsolationCertificate,
    check_gluing_hypothesis,
    iota_exact,
    verify,
)
from .survey import (
    BoundSpec,
    SurveyRecord,
    SurveyReport,
    check_graph,
    conjecture_bound,
    enumerate_connected,
    ingest_graph6,
    survey,
)

__version__ = "0.1.0"

__all__ = [
    "BoundSpec",
    "BudgetExceededError",
    "CaseTrace",
    "ConsDecomposition",
    "ExactResult",
    "Graph",
    "GraphFormatError",
    "IsolationCertificate",
    "SurveyRecord",
    "SurveyReport",
    "TraceStep",
    "Tree",
    "all_cycles",
    "bound_value",
    "boundary_edge_count",
    "build",
    "check_gluing_hypothesis",
    "check_graph",
    "closed_neighborhood",
    "conjecture_bound",
    "construct",
    "encode_graph6",
    "enumerate_connected",
    "enumerate_trees",
    "from_edge_list",
    "ingest_graph6",
    "iota_exact",
    "parse_edge_list",
    "parse_graph6",
    "recognize",
    "survey",
    "verify",
]
