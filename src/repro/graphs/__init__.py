"""Graph substrate: CSR digraphs, builders, generators, IO and edge weights."""

from repro.graphs.build import GraphBuilder, from_edges
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    barabasi_albert,
    ca_astroph_like,
    com_dblp_like,
    com_lj_like,
    complete_graph,
    erdos_renyi,
    forest_fire,
    isolated_nodes,
    path_graph,
    powerlaw_configuration,
    star_graph,
    watts_strogatz,
    wiki_vote_like,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.stats import GraphStats, describe
from repro.graphs.weights import (
    assign_constant_probabilities,
    assign_trivalency_probabilities,
    assign_weighted_cascade,
)

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "powerlaw_configuration",
    "forest_fire",
    "complete_graph",
    "path_graph",
    "star_graph",
    "isolated_nodes",
    "wiki_vote_like",
    "ca_astroph_like",
    "com_dblp_like",
    "com_lj_like",
    "read_edge_list",
    "write_edge_list",
    "GraphStats",
    "describe",
    "assign_weighted_cascade",
    "assign_constant_probabilities",
    "assign_trivalency_probabilities",
]
