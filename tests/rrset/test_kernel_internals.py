"""Contracts of the vectorized hyper-graph/objective kernels.

Pins each vectorized path against its preserved reference twin
(:mod:`tests.rrset.reference_kernels`) and covers the kernel-specific
machinery: the ``from_csr`` constructor, the stamp-array ``coverage``,
the reduceat rebuild (including empty hyper-edge segments), the
pair-topology cache, and the hoisted ``value()`` call in
``pair_coefficients``.
"""

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph

from tests.rrset.reference_kernels import (
    ReferenceObjective,
    reference_coverage,
    reference_csr_build,
)


@pytest.fixture
def random_instance():
    rng = np.random.default_rng(11)
    num_nodes = 25
    rr_sets = [
        rng.choice(num_nodes, size=rng.integers(1, 6), replace=False)
        for _ in range(200)
    ]
    return num_nodes, rr_sets, RRHypergraph(num_nodes, rr_sets)


class TestVectorizedBuild:
    def test_csr_matches_reference_build(self, random_instance):
        num_nodes, rr_sets, hypergraph = random_instance
        edge_offsets, edge_nodes = reference_csr_build(num_nodes, rr_sets)
        assert np.array_equal(hypergraph.edge_offsets, edge_offsets)
        assert np.array_equal(hypergraph.edge_nodes, edge_nodes)

    def test_from_csr_equals_list_construction(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        rebuilt = RRHypergraph.from_csr(
            num_nodes, hypergraph.edge_offsets, hypergraph.edge_nodes
        )
        assert np.array_equal(rebuilt.node_offsets, hypergraph.node_offsets)
        assert np.array_equal(rebuilt.node_edges, hypergraph.node_edges)
        assert rebuilt.num_hyperedges == hypergraph.num_hyperedges

    def test_from_csr_rejects_malformed_offsets(self):
        with pytest.raises(EstimationError, match="malformed CSR"):
            RRHypergraph.from_csr(4, np.asarray([1, 2]), np.asarray([0, 1]))
        with pytest.raises(EstimationError, match="malformed CSR"):
            RRHypergraph.from_csr(4, np.asarray([0, 3]), np.asarray([0, 1]))

    def test_out_of_range_member_located(self):
        with pytest.raises(EstimationError, match="hyper-edge 1"):
            RRHypergraph(3, [np.asarray([0, 1]), np.asarray([2, 5])])

    def test_empty_hyperedges_supported(self):
        hypergraph = RRHypergraph(3, [np.asarray([0]), np.asarray([], dtype=np.int32)])
        assert hypergraph.num_hyperedges == 2
        assert hypergraph.hyperedge(1).size == 0
        assert hypergraph.coverage([0]) == 1


class TestStampCoverage:
    def test_matches_reference_on_random_seed_sets(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        rng = np.random.default_rng(5)
        for _ in range(20):
            seeds = rng.choice(num_nodes, size=rng.integers(0, 8), replace=False)
            assert hypergraph.coverage(seeds) == reference_coverage(hypergraph, seeds)

    def test_repeated_calls_reuse_stamp_buffer(self, random_instance):
        _, _, hypergraph = random_instance
        first = hypergraph.coverage([0, 1])
        assert hypergraph.coverage([0, 1]) == first
        assert hypergraph.coverage([]) == 0

    def test_duplicate_members_counted_once(self):
        hypergraph = RRHypergraph(4, [np.asarray([1, 1, 2]), np.asarray([3])])
        assert hypergraph.coverage([1]) == 1
        assert hypergraph.coverage([1, 2, 3]) == 2


class TestReduceatRebuild:
    def test_state_matches_reference_bitwise(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        rng = np.random.default_rng(13)
        probs = rng.uniform(0.0, 1.0, size=num_nodes)
        probs[rng.choice(num_nodes, size=3, replace=False)] = 1.0  # zero factors
        vec = HypergraphObjective(hypergraph, probs)
        ref = ReferenceObjective(hypergraph, probs)
        assert np.array_equal(vec._zero_count, ref._zero_count)
        assert np.array_equal(vec._nonzero_prod, ref._nonzero_prod)
        assert vec.value() == ref.value()

    def test_empty_segments_reset_not_leaked(self):
        # reduceat returns a[start] for empty segments; the kernel must
        # overwrite those slots with the neutral (0, 1.0) survival state.
        hypergraph = RRHypergraph(
            3,
            [np.asarray([0, 1]), np.asarray([], dtype=np.int32), np.asarray([2])],
        )
        probs = np.asarray([1.0, 0.5, 0.25])
        vec = HypergraphObjective(hypergraph, probs)
        ref = ReferenceObjective(hypergraph, probs)
        assert np.array_equal(vec._zero_count, ref._zero_count)
        assert np.array_equal(vec._nonzero_prod, ref._nonzero_prod)
        assert vec._zero_count[1] == 0 and vec._nonzero_prod[1] == 1.0

    def test_trailing_empty_segment_does_not_steal_from_last_edge(self):
        # A trailing empty edge has offset == edge_nodes.size; it must not
        # shorten the preceding edge's segment (clipping the start in
        # bounds would drop that edge's final member factor).
        hypergraph = RRHypergraph(
            3, [np.asarray([0, 1, 2]), np.asarray([], dtype=np.int32)]
        )
        probs = np.asarray([0.3, 0.5, 0.2])
        vec = HypergraphObjective(hypergraph, probs)
        ref = ReferenceObjective(hypergraph, probs)
        assert np.array_equal(vec._zero_count, ref._zero_count)
        assert np.array_equal(vec._nonzero_prod, ref._nonzero_prod)
        assert vec._zero_count[1] == 0 and vec._nonzero_prod[1] == 1.0
        assert vec.value() == ref.value()

    def test_leading_and_consecutive_empty_segments(self):
        hypergraph = RRHypergraph(
            4,
            [
                np.asarray([], dtype=np.int32),
                np.asarray([0, 3]),
                np.asarray([], dtype=np.int32),
                np.asarray([], dtype=np.int32),
                np.asarray([1, 2]),
                np.asarray([], dtype=np.int32),
            ],
        )
        probs = np.asarray([0.3, 1.0, 0.5, 0.25])
        vec = HypergraphObjective(hypergraph, probs)
        ref = ReferenceObjective(hypergraph, probs)
        assert np.array_equal(vec._zero_count, ref._zero_count)
        assert np.array_equal(vec._nonzero_prod, ref._nonzero_prod)
        assert vec.value() == ref.value()


class TestPairTopologyCache:
    def test_splits_match_uncached_set_ops(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        probs = np.full(num_nodes, 0.3)
        vec = HypergraphObjective(hypergraph, probs)
        ref = ReferenceObjective(hypergraph, probs)
        for i, j in [(0, 1), (1, 0), (3, 17), (0, 1)]:
            a, b = vec.pair_coefficients(i, j), ref.pair_coefficients(i, j)
            assert all(
                getattr(a, slot) == getattr(b, slot) for slot in a.__slots__
            )

    def test_hits_reversals_and_eviction_are_counted(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        registry = MetricsRegistry()
        with observe(metrics=registry):
            objective = HypergraphObjective(
                hypergraph, np.full(num_nodes, 0.3), topology_cache_limit=2
            )
            objective.pair_topology(0, 1)  # miss
            objective.pair_topology(0, 1)  # hit
            objective.pair_topology(1, 0)  # reversed hit
            objective.pair_topology(2, 3)  # miss (cache full at limit=2)
            objective.pair_topology(4, 5)  # miss -> eviction, then insert
        counters = registry.snapshot()["counters"]
        assert counters["objective.topology_cache_hits_total"] == 2
        assert counters["objective.topology_cache_misses_total"] == 3
        assert counters["objective.topology_cache_evictions_total"] == 1

    def test_reversed_lookup_swaps_roles(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        objective = HypergraphObjective(hypergraph, np.full(num_nodes, 0.3))
        only_i, only_j, shared = objective.pair_topology(2, 9)
        r_only_i, r_only_j, r_shared = objective.pair_topology(9, 2)
        assert np.array_equal(r_only_i, only_j)
        assert np.array_equal(r_only_j, only_i)
        assert np.array_equal(r_shared, shared)

    def test_returned_arrays_are_read_only(self, random_instance):
        # The arrays back the cache (and the reversed pair's entry); a
        # caller write must raise instead of corrupting future lookups.
        num_nodes, _, hypergraph = random_instance
        objective = HypergraphObjective(hypergraph, np.full(num_nodes, 0.3))
        for arr in objective.pair_topology(2, 9):
            assert not arr.flags.writeable
            if arr.size:
                with pytest.raises(ValueError):
                    arr[0] = -1
        for arr in objective.pair_topology(9, 2):
            assert not arr.flags.writeable


class TestHoistedValueScan:
    def test_pair_coefficients_do_not_scan_when_clean(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        registry = MetricsRegistry()
        with observe(metrics=registry):
            objective = HypergraphObjective(hypergraph, np.full(num_nodes, 0.3))
            for i in range(8):
                objective.pair_coefficients(i, i + 1)
        counters = registry.snapshot()["counters"]
        # Only the constructor rebuild scanned; eight pair evaluations on a
        # clean objective add zero O(theta) passes.
        assert counters["objective.full_scans_total"] == 1
        assert counters["objective.pair_coefficients_total"] == 8

    def test_mutation_then_pair_scans_exactly_once(self, random_instance):
        num_nodes, _, hypergraph = random_instance
        registry = MetricsRegistry()
        with observe(metrics=registry):
            objective = HypergraphObjective(hypergraph, np.full(num_nodes, 0.3))
            objective.set_probability(0, 0.9)
            objective.pair_coefficients(1, 2)  # scan (stale)
            objective.pair_coefficients(3, 4)  # cached
        counters = registry.snapshot()["counters"]
        assert counters["objective.full_scans_total"] == 2
