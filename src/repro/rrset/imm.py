"""IMM: martingale-based automatic choice of the hyper-edge count.

Tang, Shi & Xiao, *Influence Maximization in Near-Linear Time: A
Martingale Approach* (SIGMOD 2015) — the algorithm the paper credits as
the state of the art ("orders of magnitude faster than the other influence
maximization algorithms") and builds its Section-8 solvers on.

Instead of fixing ``theta`` a priori (Table 2) this procedure *derives* it
from an accuracy target: the returned hyper-graph makes RR-set greedy a
``(1 - 1/e - epsilon)``-approximation with probability at least
``1 - n^(-ell)``.

Two phases:

1. **OPT lower-bounding.**  For exponentially shrinking guesses
   ``x = n/2, n/4, ...`` generate enough RR sets to test whether
   ``OPT >= x`` (via the greedy coverage and a concentration bound);
   the first accepted guess yields ``LB <= OPT``.
2. **Final sampling.**  ``theta = lambda* / LB`` hyper-edges suffice,
   where ``lambda*`` is the paper's Eq.-6 constant built from ``epsilon``,
   ``ell``, ``n`` and ``log C(n, k)``.

The hyper-edges generated in phase 1 are reused in phase 2 (the martingale
argument permits this), so total work is proportional to the final theta.
Each phase's sets are drawn as one instalment of a single chunked sampling
plan (:func:`repro.rrset.sampler.sample_rr_csr` with ``start_at``), so the
result is bit-identical at every worker count and equals a one-shot
:meth:`RRHypergraph.build` of the final theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.exceptions import EstimationError
from repro.parallel.pool import DEFAULT_CHUNK_SIZE
from repro.rrset.coverage import max_coverage
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sample_size import log_binomial
from repro.rrset.sampler import sample_rr_csr
from repro.utils.rng import SeedLike, as_root_sequence

__all__ = ["IMMResult", "imm_hypergraph"]


@dataclass
class IMMResult:
    """Outcome of the IMM sampling procedure."""

    hypergraph: RRHypergraph
    seeds: List[int]
    spread_estimate: float
    opt_lower_bound: float
    theta: int
    epsilon: float
    ell: float


def _lambda_prime(n: int, k: int, epsilon_prime: float, ell: float) -> float:
    """Phase-1 sample constant (Tang et al. Section 4.2)."""
    log_terms = log_binomial(n, k) + ell * math.log(n) + math.log(max(math.log2(n), 1.0))
    return (2.0 + 2.0 * epsilon_prime / 3.0) * log_terms * n / (epsilon_prime**2)


def _lambda_star(n: int, k: int, epsilon: float, ell: float) -> float:
    """Phase-2 sample constant (Tang et al. Eq. 6)."""
    one_minus_inv_e = 1.0 - 1.0 / math.e
    alpha = math.sqrt(ell * math.log(n) + math.log(2.0))
    beta = math.sqrt(
        one_minus_inv_e * (log_binomial(n, k) + ell * math.log(n) + math.log(2.0))
    )
    return 2.0 * n * (one_minus_inv_e * alpha + beta) ** 2 / (epsilon**2)


def _grow(
    model: DiffusionModel,
    hypergraph: Optional[RRHypergraph],
    target: int,
    root: np.random.SeedSequence,
) -> RRHypergraph:
    """``hypergraph`` extended to ``target`` hyper-edges along ``root``'s plan.

    The first instalment is a plain build; later ones continue the plan at
    ``start_at`` = the sets already drawn, which must sit on a chunk
    boundary.  A target at or below the current size draws nothing.
    """
    if hypergraph is None:
        return RRHypergraph.build(model, target, seed=root)
    built = hypergraph.num_hyperedges
    if target <= built:
        return hypergraph
    sizes, members = sample_rr_csr(model, target - built, seed=root, start_at=built)
    return hypergraph.extend_csr(sizes, members)


def imm_hypergraph(
    model: DiffusionModel,
    k: int,
    epsilon: float = 0.5,
    ell: float = 1.0,
    seed: SeedLike = None,
    max_theta: int = 2_000_000,
) -> IMMResult:
    """Build a hyper-graph sized by the IMM guarantee and select ``k`` seeds.

    Parameters
    ----------
    model:
        Any triggering diffusion model.
    k:
        Seed budget the guarantee is stated for.
    epsilon:
        Approximation slack: the greedy result is ``(1 - 1/e - epsilon)``
        optimal w.h.p.  Smaller epsilon, more hyper-edges (``~1/eps^2``).
    ell:
        Confidence exponent: failure probability ``n^(-ell)``.
    max_theta:
        Hard cap guarding against pathological parameter choices.

    Returns the hyper-graph (reusable by every solver in this library),
    the greedy seed set, and diagnostics.
    """
    n = model.num_nodes
    if n < 2:
        raise EstimationError("IMM needs at least 2 nodes")
    if not 0 < k <= n:
        raise EstimationError(f"need 0 < k <= n, got k={k}")
    if epsilon <= 0.0:
        raise EstimationError(f"epsilon must be positive, got {epsilon}")
    if ell <= 0.0:
        raise EstimationError(f"ell must be positive, got {ell}")

    root = as_root_sequence(seed)  # normalize ONCE: every phase extends one plan
    hypergraph: Optional[RRHypergraph] = None
    # Adjust ell so the union bound over both phases still gives n^-ell
    # (Tang et al. run with ell' = ell * (1 + log 2 / log n)).
    ell = ell * (1.0 + math.log(2.0) / math.log(n))

    epsilon_prime = math.sqrt(2.0) * epsilon
    lower_bound = 1.0

    max_rounds = max(1, int(math.log2(n)) - 1)
    for i in range(1, max_rounds + 1):
        x = n / (2.0**i)
        theta_i = int(math.ceil(_lambda_prime(n, k, epsilon_prime, ell) / x))
        # Rounded up to a chunk multiple (theta_schedule's rule): the target
        # is the next instalment's start_at, and IMM discards nothing.
        theta_i = min(max_theta, -(-theta_i // DEFAULT_CHUNK_SIZE) * DEFAULT_CHUNK_SIZE)
        hypergraph = _grow(model, hypergraph, theta_i, root)
        coverage = max_coverage(hypergraph, k)
        if coverage.spread_estimate >= (1.0 + epsilon_prime) * x:
            lower_bound = coverage.spread_estimate / (1.0 + epsilon_prime)
            break
        if theta_i >= max_theta:
            lower_bound = max(coverage.spread_estimate / (1.0 + epsilon_prime), 1.0)
            break
    else:
        # All guesses rejected: OPT is tiny; fall back to the trivial bound.
        lower_bound = max(lower_bound, 1.0)

    theta = min(max_theta, int(math.ceil(_lambda_star(n, k, epsilon, ell) / lower_bound)))
    # IMM discards nothing: extra phase-1 hyper-edges only help.
    hypergraph = _grow(model, hypergraph, theta, root)
    coverage = max_coverage(hypergraph, k)
    return IMMResult(
        hypergraph=hypergraph,
        seeds=coverage.seeds,
        spread_estimate=coverage.spread_estimate,
        opt_lower_bound=lower_bound,
        theta=hypergraph.num_hyperedges,
        epsilon=epsilon,
        ell=ell,
    )
