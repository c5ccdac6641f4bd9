"""The benchmark's workloads: one closed-loop pipeline shape each.

Every workload drives the same public pipeline -- graph in, weighted
``CIMProblem``, RR hypergraph, ``solve()``, Monte-Carlo ``evaluate()`` --
but with a different dominant layer, so an optimisation of one layer
moves one workload and leaves the others as they were.  Why each was
chosen is recorded in ``BENCHMARK.json`` and ``README.md``.

The graph of a workload is one fixed instance: its generator's own
default seed (``GRAPH_SEED``).  Sizing runs showed that drawing a new
graph per ``--seed`` moved the certified spread by about 20% between
seeds of ``dblp-adaptive-cd``, which no run length can average away.
``--seed`` drives everything else: the curve population, the RR sampling
streams and the Monte-Carlo evaluation.  Sizes are chosen so that every
timed metric rests on at least a second of work and a run fits its time
limit on a 2-CPU host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["GRAPH_SEED", "Workload", "WORKLOADS", "derived_seeds"]

#: Seed of every workload's graph instance (the generators' default).
GRAPH_SEED = 2016


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # generator in repro.graphs.generators
    scale: float
    nodes: int  # node and edge counts of the instance, checked at every set-up
    edges: int
    source: str  # "generate" (in process) or "edgelist" (written, then read)
    budget: float
    theta: Union[int, str]  # fixed RR-set count, or "auto" (certified doubling)
    method: str  # solve(method=...)
    workers: int
    eval_samples: int  # Monte-Carlo samples per evaluate()
    storage: Optional[str] = None  # RR-set transport ("heap" when None)
    backing: Optional[str] = None  # graph and hypergraph placement ("heap" when None)
    setups_per_plan: int = 1  # set-ups per measuring cycle; setup_s is their median
    min_plans: int = 2  # cycles, and so plans, per run at least; plan_s is their median
    # When set, the curve population and the RR sampling streams come
    # from this seed instead of --seed, so every run plans the same input.
    plan_seed: Optional[int] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lj-mmap-ud",
            graph="com_lj_like",
            scale=0.004,
            nodes=15_991,
            edges=259_612,
            source="generate",
            budget=20.0,
            theta=6_000,
            method="ud",
            workers=1,
            eval_samples=60,
            storage="shared",
            backing="mmap",
        ),
        Workload(
            name="dblp-adaptive-cd",
            graph="com_dblp_like",
            scale=0.03,
            nodes=9_512,
            edges=63_182,
            source="generate",
            budget=7.0,
            theta="auto",
            method="cd",
            workers=1,
            eval_samples=150,
            setups_per_plan=9,
            min_plans=1,
            # CD's work follows the support of the UD warm start, which
            # flips between near-tied discounts: over sampling seeds 1-7,
            # cd.pair_evals_total took 2.6k-5.5k and plan_s 12-27 s.
            plan_seed=GRAPH_SEED,
        ),
        Workload(
            name="astroph-edgelist-gradient",
            graph="ca_astroph_like",
            scale=1.0,
            nodes=18_772,
            edges=368_388,
            source="edgelist",
            budget=20.0,
            theta=60_000,
            method="gradient",
            workers=2,
            eval_samples=50,
        ),
    )
}


def derived_seeds(w: Workload, seed: int) -> dict:
    """Independent per-stage seeds derived from the run's ``--seed``."""
    plan = seed if w.plan_seed is None else w.plan_seed
    return {
        "population": plan,
        "sample": plan + 1,
        "solve": plan + 2,
        "evaluate": seed + 3,
        "reference": seed + 1_000_003,
    }
