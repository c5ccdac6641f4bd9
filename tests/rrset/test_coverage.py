"""Unit tests for (weighted) maximum coverage on hyper-graphs."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.rrset.coverage import max_coverage, weighted_max_coverage
from repro.rrset.hypergraph import RRHypergraph


def hypergraph_with_obvious_winner():
    """Node 0 covers 3 hyper-edges, node 1 covers 2, node 2 covers 1."""
    return RRHypergraph(
        3,
        [
            np.array([0]),
            np.array([0, 1]),
            np.array([0, 1]),
            np.array([2]),
        ],
    )


class TestMaxCoverage:
    def test_greedy_order(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 3)
        assert result.seeds[0] == 0  # highest degree first
        assert set(result.seeds) == {0, 1, 2} - {1}  # node 1 adds nothing after 0
        assert result.covered == 4

    def test_marginal_gains_decreasing(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 3)
        assert all(a >= b for a, b in zip(result.gains, result.gains[1:]))

    def test_stops_when_gain_zero(self):
        hg = RRHypergraph(3, [np.array([0])])
        result = max_coverage(hg, 3)
        assert result.seeds == [0]

    def test_k_zero(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 0)
        assert result.seeds == []
        assert result.covered == 0

    def test_negative_k_rejected(self):
        hg = hypergraph_with_obvious_winner()
        with pytest.raises(SolverError):
            max_coverage(hg, -1)

    def test_greedy_optimal_on_disjoint_sets(self):
        """Disjoint covers: greedy = optimal, picks the largest-degree nodes."""
        hg = RRHypergraph(
            4,
            [np.array([0]), np.array([0]), np.array([1]), np.array([2]), np.array([3])],
        )
        result = max_coverage(hg, 2)
        assert result.seeds[0] == 0
        assert result.covered == 3

    def test_spread_estimate_scaling(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 1)
        assert result.spread_estimate == pytest.approx(3 * result.covered / 4)


class TestWeightedMaxCoverage:
    def test_equals_unweighted_at_probability_one(self):
        hg = hypergraph_with_obvious_winner()
        unweighted = max_coverage(hg, 2)
        weighted = weighted_max_coverage(hg, np.ones(3), 2)
        assert weighted.seeds == unweighted.seeds
        assert weighted.covered == pytest.approx(unweighted.covered)

    def test_probability_scales_gain(self):
        """Node 1 at q=1 beats node 0 at q=0.1 despite lower degree."""
        hg = RRHypergraph(
            2, [np.array([0]), np.array([0]), np.array([0]), np.array([1]), np.array([1])]
        )
        result = weighted_max_coverage(hg, np.array([0.1, 1.0]), 1)
        assert result.seeds == [1]
        assert result.covered == pytest.approx(2.0)

    def test_objective_value_formula(self):
        """covered = sum_h (1 - prod (1 - q_u)) for the selected set."""
        hg = RRHypergraph(2, [np.array([0, 1])])
        result = weighted_max_coverage(hg, np.array([0.5, 0.5]), 2)
        # Both selected: 1 - 0.5 * 0.5 = 0.75.
        assert result.covered == pytest.approx(0.75)

    def test_zero_probability_node_never_selected(self):
        hg = hypergraph_with_obvious_winner()
        result = weighted_max_coverage(hg, np.array([0.0, 0.5, 0.5]), 3)
        assert 0 not in result.seeds

    def test_wrong_length_rejected(self):
        hg = hypergraph_with_obvious_winner()
        with pytest.raises(SolverError):
            weighted_max_coverage(hg, np.ones(5), 1)

    def test_invalid_probabilities_rejected(self):
        hg = hypergraph_with_obvious_winner()
        with pytest.raises(SolverError):
            weighted_max_coverage(hg, np.array([0.5, 1.5, 0.5]), 1)

    def test_nan_probability_rejected(self):
        hg = RRHypergraph(4, [[0, 1], [2]])
        with pytest.raises(SolverError, match="must lie in"):
            weighted_max_coverage(hg, np.array([np.nan, 0.5, 0.5, 0.5]), 2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_candidate_raises_index_error(self, bad):
        hg = hypergraph_with_obvious_winner()
        with pytest.raises(IndexError, match=f"node {bad} out of range"):
            weighted_max_coverage(hg, np.ones(3), 1, candidates=np.array([1, bad, 2]))

    def test_candidate_restriction(self):
        hg = hypergraph_with_obvious_winner()
        result = weighted_max_coverage(hg, np.ones(3), 1, candidates=np.array([1, 2]))
        assert result.seeds == [1]

    def test_lazy_greedy_matches_naive_greedy(self):
        """CELF must return the same selection as exhaustive greedy."""
        rng = np.random.default_rng(7)
        edges = [rng.choice(12, size=rng.integers(1, 5), replace=False) for _ in range(60)]
        hg = RRHypergraph(12, edges)
        probs = rng.uniform(0.1, 1.0, size=12)
        lazy = weighted_max_coverage(hg, probs, 4)

        # Naive reference implementation.
        survival = np.ones(60)
        chosen = []
        for _ in range(4):
            best, best_gain = None, 0.0
            for u in range(12):
                if u in chosen:
                    continue
                gain = probs[u] * survival[hg.incident_edges(u)].sum()
                if gain > best_gain + 1e-12:
                    best, best_gain = u, gain
            chosen.append(best)
            survival[hg.incident_edges(best)] *= 1.0 - probs[best]
        assert lazy.seeds == chosen


class TestCelfCounters:
    def test_counters_record_seeded_candidates_and_lazy_evals(self):
        # Node 3 has q=0 and node 4 is in no hyper-edge: neither is seeded.
        hg = RRHypergraph(5, [[0, 1], [0, 2], [1, 2], [3]])
        probs = np.array([1.0, 1.0, 0.5, 0.0, 1.0])
        metrics = MetricsRegistry()
        with observe(metrics=metrics, merge_up=False):
            result = weighted_max_coverage(hg, probs, 2)
        counters = metrics.snapshot()["counters"]
        assert counters["coverage.heap_seeded_total"] == 3
        # Seeded entries are stale (round -1).  Round 0 re-evaluates the
        # tied nodes 0 and 1, then selects 0; round 1 re-evaluates 1 and
        # 2, then selects 1.
        assert result.seeds == [0, 1]
        assert counters["coverage.lazy_evals_total"] == 4
