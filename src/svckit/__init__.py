"""svckit: strong vertex/edge connectivity of directed graphs.

Computes sigma0/sigma1 (minimum weakening vertex/edge sets), enumerates
all minimum weakening sets, performs iterated weakening decomposition,
generates witness graph families, and ingests edge-list / GraphML data.
"""

from .graphs import (
    DirectedGraph,
    GraphInputError,
    GraphStats,
    PreconditionError,
    UndirectedGraph,
    doubled,
    induced,
    remove_edges,
    remove_vertices,
    stats,
    underlying,
)
from .scc import Condensation, SccPartition, condensation, is_strongly_connected, scc
from .flow import FlowAnswer, edge_max_flow, vertex_max_flow
from .connectivity import (
    ConnectivityReport,
    EnumerationGuardError,
    WeakeningSet,
    WitnessList,
    local_sigma,
    report,
    sec,
    svc,
    undirected_edge_connectivity,
    undirected_vertex_connectivity,
    weakening_edge_sets,
    weakening_vertex_sets,
)
from .decompose import DecompositionNode, iterate, sigma_trace, zeta_trace
from .families import (
    FamilyParams,
    directed_cycle,
    doubled_complete,
    gamma,
    gamma_blocks,
    random_digraph,
)
from .interface import (
    ParseError,
    export_dot,
    read_graph,
    read_graph_detailed,
    write_edgelist,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph", "UndirectedGraph", "GraphStats", "GraphInputError",
    "PreconditionError", "underlying", "doubled", "remove_vertices",
    "remove_edges", "induced", "stats",
    "SccPartition", "Condensation", "scc", "is_strongly_connected",
    "condensation",
    "FlowAnswer", "edge_max_flow", "vertex_max_flow",
    "ConnectivityReport", "WeakeningSet", "WitnessList",
    "EnumerationGuardError", "local_sigma", "svc", "sec",
    "weakening_vertex_sets", "weakening_edge_sets",
    "undirected_vertex_connectivity", "undirected_edge_connectivity",
    "report",
    "DecompositionNode", "iterate", "sigma_trace", "zeta_trace",
    "FamilyParams", "gamma", "gamma_blocks", "doubled_complete",
    "directed_cycle", "random_digraph",
    "ParseError", "read_graph", "read_graph_detailed",
    "write_edgelist", "write_report", "export_dot",
]
