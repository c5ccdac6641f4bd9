"""RIS / polling discrete influence maximization.

This is the paper's discrete baseline ("IM"): build a random hyper-graph of
RR sets, then greedily pick the ``k`` nodes that maximize hyper-graph
coverage (Borgs et al. 2014; Tang et al. 2014/2015).  The returned seed set
is a ``(1 - 1/e - eps)``-approximation with high probability for large
enough ``theta`` (see :mod:`repro.rrset.sample_size`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.diffusion.base import DiffusionModel
from repro.exceptions import SolverError
from repro.obs.context import recording
from repro.rrset.coverage import max_coverage
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sample_size import approximation_lower_bound, default_num_rr_sets
from repro.utils.rng import SeedLike
from repro.utils.timing import TimingBreakdown, span_timings

__all__ = ["RISResult", "ris_influence_maximization"]


@dataclass(frozen=True)
class RISResult:
    """Outcome of an RIS influence-maximization run.

    ``spread_estimate`` is the hyper-graph estimate ``n * deg_H(S) / theta``;
    ``approximation_bound`` is the Figure-4 quantity ``1 - 1/e - eps``
    implied by ``theta`` and the achieved spread.
    """

    seeds: List[int]
    spread_estimate: float
    approximation_bound: float
    num_hyperedges: int
    timings: TimingBreakdown
    hypergraph: RRHypergraph


def ris_influence_maximization(
    model: DiffusionModel,
    k: int,
    num_hyperedges: Optional[int] = None,
    seed: SeedLike = None,
    hypergraph: Optional[RRHypergraph] = None,
) -> RISResult:
    """Select ``k`` seeds by RR-set maximum coverage.

    Parameters
    ----------
    model:
        Diffusion model (IC, LT, or any triggering model).
    k:
        Seed budget.
    num_hyperedges:
        Number of RR sets ``theta``; defaults to the ``O(n log n)`` rule.
    seed:
        RNG seed for hyper-graph construction.
    hypergraph:
        Pass an existing hyper-graph to reuse it across solvers (the paper
        runs IM, UD and CD on the *same* ``H``); ``num_hyperedges`` and
        ``seed`` are then ignored.
    """
    if k < 0:
        raise SolverError(f"k must be non-negative, got {k}")
    sampled = hypergraph is None
    with recording() as tracer, tracer.span("discrete.ris", k=k) as span:
        if sampled:
            theta = num_hyperedges if num_hyperedges is not None else default_num_rr_sets(model.num_nodes)
            hypergraph = RRHypergraph.build(model, theta, seed=seed)
        result = max_coverage(hypergraph, k)
    bound = (
        approximation_lower_bound(
            hypergraph.num_nodes, max(k, 1), hypergraph.num_hyperedges, result.spread_estimate
        )
        if result.spread_estimate > 0
        else 0.0
    )
    return RISResult(
        seeds=result.seeds,
        spread_estimate=result.spread_estimate,
        approximation_bound=bound,
        num_hyperedges=hypergraph.num_hyperedges,
        timings=span_timings(span, "selection", sampled),
        hypergraph=hypergraph,
    )
