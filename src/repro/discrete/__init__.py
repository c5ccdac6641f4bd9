"""Discrete influence maximization baselines (the paper's "IM")."""

from repro.discrete.greedy import celf_greedy
from repro.discrete.group_persuasion import GroupPersuasionResult, group_persuasion
from repro.discrete.heuristics import degree_seeds, pagerank_seeds, random_seeds
from repro.discrete.ris import RISResult, ris_influence_maximization

__all__ = [
    "celf_greedy",
    "ris_influence_maximization",
    "RISResult",
    "degree_seeds",
    "random_seeds",
    "pagerank_seeds",
    "group_persuasion",
    "GroupPersuasionResult",
]
