"""The continuous influence maximization (CIM) problem instance.

Bundles the four ingredients of the Eq.-3 optimization: the social network,
an influence model over it, a seed-probability curve per user, and the
budget ``B``.  Solvers in :mod:`repro.core.solvers` consume instances of
:class:`CIMProblem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.configuration import Configuration
from repro.core.population import CurvePopulation
from repro.diffusion.base import DiffusionModel
from repro.diffusion.montecarlo import SpreadEstimate, estimate_configuration_spread
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import DiGraph
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sample_size import default_num_rr_sets
from repro.runtime.deadline import DeadlineLike
from repro.utils.rng import SeedLike

__all__ = ["CIMProblem"]


@dataclass
class CIMProblem:
    """A CIM instance: maximize ``UI(C)`` s.t. ``sum c_u <= B``, ``0<=c_u<=1``.

    Attributes
    ----------
    model:
        The diffusion model (carries the graph).
    population:
        Seed-probability curve per user; must match the graph size.
    budget:
        The safe budget ``B > 0``.  ``B > n`` is pointless (every user can
        already get a free product) and rejected.
    """

    model: DiffusionModel
    population: CurvePopulation
    budget: float

    def __post_init__(self) -> None:
        if self.population.num_nodes != self.model.num_nodes:
            raise ConfigurationError(
                f"population has {self.population.num_nodes} curves but the "
                f"graph has {self.model.num_nodes} nodes"
            )
        if not 0.0 < self.budget <= self.model.num_nodes:
            raise ConfigurationError(
                f"budget must lie in (0, n={self.model.num_nodes}], got {self.budget}"
            )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The underlying social network."""
        return self.model.graph

    @property
    def num_nodes(self) -> int:
        """Number of users."""
        return self.model.num_nodes

    def feasible(self, configuration: Configuration) -> bool:
        """Whether a configuration satisfies the Eq.-3 constraints."""
        return len(configuration) == self.num_nodes and configuration.is_feasible(self.budget)

    def evaluate(
        self,
        configuration: Configuration,
        num_samples: int = 1000,
        seed: SeedLike = None,
        workers: Optional[int] = None,
    ) -> SpreadEstimate:
        """Monte-Carlo estimate of ``UI(C)`` (mean/stddev over samples).

        The evaluation protocol of Section 9.2: sample seed sets from the
        configuration, run cascades, average the sizes.  Every model runs
        on :func:`~repro.diffusion.montecarlo.estimate_configuration_spread`;
        ``workers`` parallelizes the simulations (``0`` = one per CPU)
        without changing the estimate.
        """
        if len(configuration) != self.num_nodes:
            raise ConfigurationError(
                f"configuration has {len(configuration)} entries, expected {self.num_nodes}"
            )
        return estimate_configuration_spread(
            self.model,
            self.population.probabilities(configuration.discounts),
            num_samples=num_samples,
            seed=seed,
            workers=workers,
        )

    def build_hypergraph(
        self,
        num_hyperedges: Union[int, str, None] = None,
        seed: SeedLike = None,
        deadline: "DeadlineLike" = None,
        workers: Optional[int] = None,
        supervision=None,
        storage: Optional[str] = None,
        slab_dir=None,
        backing: Optional[str] = None,
        spill_dir=None,
        **adaptive_options,
    ) -> RRHypergraph:
        """Build the random hyper-graph shared by the Section-8 solvers.

        ``num_hyperedges`` may be an explicit count, ``None`` (the
        ``O(n log n)`` default of Section 8), or ``"auto"`` — the adaptive
        doubling driver of :func:`repro.rrset.adaptive.adaptive_hypergraph`,
        which samples in instalments and stops once the incumbent UI(C)
        estimate is certified; extra keyword arguments (``epsilon``,
        ``max_theta``, ...) are forwarded to it, and are rejected for the
        fixed-θ paths.

        ``deadline`` bounds construction time, ``workers`` parallelizes
        it, and ``supervision`` sets the pooled build's recovery policy
        (see :mod:`repro.parallel.supervisor`); see
        :meth:`repro.rrset.hypergraph.RRHypergraph.build`.

        ``storage`` selects the RR-set transport: ``"heap"`` (default)
        pickles sampled chunks back through the pool, ``"shared"`` has
        workers write member streams into memory-mapped slabs under
        ``slab_dir`` (see :mod:`repro.rrset.storage`).  Both modes
        produce bit-identical hyper-graphs.

        ``backing`` selects where the assembled hyper-graph CSR lives:
        ``"heap"`` (default) or ``"mmap"`` — disk-backed spill files under
        ``spill_dir`` (``REPRO_SPILL_DIR`` or the system temp dir when
        unset), for graphs whose hyper-graph exceeds RAM.  It works with
        either ``storage``; placement never changes the CSR bytes.
        """
        if num_hyperedges == "auto":
            from repro.rrset.adaptive import adaptive_hypergraph

            return adaptive_hypergraph(
                self,
                seed=seed,
                deadline=deadline,
                workers=workers,
                supervision=supervision,
                storage=storage,
                slab_dir=slab_dir,
                backing=backing,
                spill_dir=spill_dir,
                **adaptive_options,
            ).hypergraph
        if isinstance(num_hyperedges, str):
            raise ConfigurationError(
                f"num_hyperedges must be an int, None or 'auto', got {num_hyperedges!r}"
            )
        if adaptive_options:
            raise ConfigurationError(
                "adaptive options "
                f"{sorted(adaptive_options)} require num_hyperedges='auto'"
            )
        theta = (
            num_hyperedges
            if num_hyperedges is not None
            else default_num_rr_sets(self.num_nodes)
        )
        return RRHypergraph.build(
            self.model,
            theta,
            seed=seed,
            deadline=deadline,
            workers=workers,
            supervision=supervision,
            storage=storage,
            slab_dir=slab_dir,
            backing=backing,
            spill_dir=spill_dir,
        )
