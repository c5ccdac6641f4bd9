"""Scaling study: running-time decomposition vs network size.

Figure 6's cross-dataset message is a *trend*: as networks grow, the
hyper-graph construction (O(theta * avg RR size), theta = O(n log n))
dominates total running time, so the overhead of UD / CD relative to
discrete IM shrinks — from ~10x on wiki-Vote down to ~1.5x on
com-LiveJournal.  The paper shows four data points (its datasets); this
harness sweeps the analogue generator across scales and measures the same
decomposition on a regular grid, read from the spans of each scale's run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.population import paper_mixture
from repro.core.problem import CIMProblem
from repro.core.unified_discount import unified_discount
from repro.diffusion.independent_cascade import IndependentCascade
from repro.experiments.datasets import load_dataset
from repro.obs.context import recording
from repro.rrset.coverage import max_coverage
from repro.utils.rng import SeedLike

__all__ = ["ScalingRow", "scaling_study"]


@dataclass(frozen=True)
class ScalingRow:
    """Timing decomposition at one network scale (milliseconds)."""

    scale: float
    num_nodes: int
    num_edges: int
    theta: int
    build_ms: float
    im_ms: float
    ud_ms: float
    cd_ms: float

    @property
    def cd_total_ms(self) -> float:
        """CD's end-to-end cost: hyper-graph build + UD warm start + CD."""
        return self.build_ms + self.ud_ms + self.cd_ms

    @property
    def im_total_ms(self) -> float:
        """IM's end-to-end cost: hyper-graph build + selection."""
        return self.build_ms + self.im_ms

    @property
    def cd_over_im(self) -> float:
        """The Figure-6 ratio: CD total time / IM total time."""
        return self.cd_total_ms / max(self.im_total_ms, 1e-9)

    @property
    def build_share_of_cd(self) -> float:
        """Fraction of CD's total time spent building the hyper-graph."""
        return self.build_ms / max(self.cd_total_ms, 1e-9)


def scaling_study(
    scales: Sequence[float],
    dataset: str = "wiki-vote",
    budget: float = 10.0,
    alpha: float = 1.0,
    num_hyperedges: Optional[int] = None,
    pair_strategy: str = "gradient",
    seed: SeedLike = 2016,
    verbose: bool = False,
) -> List[ScalingRow]:
    """Measure the timing decomposition at each analogue scale.

    ``num_hyperedges=None`` uses the ``O(n log n)`` default so theta grows
    with the network, as in the paper's setup.  ``pair_strategy`` defaults
    to the gradient heuristic so CD's cost reflects the efficient variant;
    pass ``"cyclic"`` for the paper's exhaustive sweep.

    Build, IM and UD are their spans; CD (set-up and descent) is the rest.
    """
    rows: List[ScalingRow] = []
    for scale in scales:
        graph, _ = load_dataset(dataset, scale=scale, alpha=alpha, seed=seed)
        population = paper_mixture(graph.num_nodes, seed=seed)
        problem = CIMProblem(IndependentCascade(graph), population, budget=budget)

        with recording() as tracer, tracer.span("experiment.scaling") as span:
            hypergraph = problem.build_hypergraph(num_hyperedges=num_hyperedges, seed=seed)
            with tracer.span("experiment.im"):
                max_coverage(hypergraph, int(budget))
            ud = unified_discount(problem, hypergraph)
            coordinate_descent_hypergraph(
                problem, hypergraph, ud.configuration, pair_strategy=pair_strategy
            )
        build_ms, im_ms, ud_ms = (
            span.seconds(name) * 1000.0
            for name in ("hypergraph.build", "experiment.im", "solver.ud")
        )
        cd_ms = span.duration * 1000.0 - build_ms - im_ms - ud_ms

        row = ScalingRow(
            scale=float(scale),
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            theta=hypergraph.num_hyperedges,
            build_ms=build_ms,
            im_ms=im_ms,
            ud_ms=ud_ms,
            cd_ms=cd_ms,
        )
        rows.append(row)
        if verbose:
            print(
                f"  scale={row.scale:6.3f} n={row.num_nodes:7,d} theta={row.theta:8,d} "
                f"build={row.build_ms:9.1f}ms im={row.im_ms:7.1f}ms "
                f"ud={row.ud_ms:8.1f}ms cd={row.cd_ms:8.1f}ms "
                f"CD/IM={row.cd_over_im:5.2f} build-share={row.build_share_of_cd:5.1%}"
            )
    return rows
