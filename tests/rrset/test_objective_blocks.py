"""Streamed member blocks of the hyper-graph objective.

``HypergraphObjective`` runs ``gradient()``, ``rebuild()`` and
``extend()`` over the member stream in runs of whole hyper-edges of at
most ``_BLOCK_MEMBERS`` members.  The pinned fixtures elsewhere fit in
one block, so these tests force the block down to a few members and pin
every kernel bit for bit against the whole-stream oracle
(:class:`tests.rrset.reference_kernels.ReferenceObjective`) on a stream
that crosses every boundary case: a member with ``q = 1``, members inside
the safe-divide band (``1 - q <= _SAFE_DIVIDE_TOLERANCE``), leading,
consecutive and trailing empty hyper-edges, an edge longer than a block,
and an ``extend`` whose old/new boundary falls inside a block.  The last
class bounds what one call allocates, independent of the stream length.
"""

import tracemalloc

import numpy as np
import pytest

from repro.rrset import estimator
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph

from tests.rrset.reference_kernels import ReferenceObjective

NODES = 30
LONG_EDGE = 17  # members; longer than every forced block size below
BLOCK_SIZES = (1, 3, 5, 8)


def _empty():
    return np.asarray([], dtype=np.int64)


@pytest.fixture
def rr_sets():
    rng = np.random.default_rng(17)
    edges = [_empty()]  # a leading empty edge
    for k in range(60):
        edges.append(rng.choice(NODES, size=int(rng.integers(1, 10)), replace=False))
        if k % 11 == 3:
            edges.extend([_empty(), _empty()])
        if k == 20:
            edges.append(np.arange(LONG_EDGE))
    edges.append(_empty())  # a trailing empty edge
    return edges


@pytest.fixture
def probs():
    probs = np.random.default_rng(18).uniform(0.0, 0.7, size=NODES)
    probs[0] = 1.0  # zero factor: the stored product already excludes it
    probs[1] = 1.0 - 1e-8  # inside the safe-divide band: recomputed
    probs[2] = 1.0 - 1e-7
    probs[3] = 0.0
    return probs


@pytest.fixture(params=BLOCK_SIZES)
def block(request, monkeypatch):
    monkeypatch.setattr(estimator, "_BLOCK_MEMBERS", request.param)
    return request.param


def _assert_same_state(objective, reference):
    assert np.array_equal(objective._zero_count, reference._zero_count)
    assert np.array_equal(objective._nonzero_prod, reference._nonzero_prod)
    assert objective.value() == reference.value()


class TestBlockPartition:
    def test_runs_of_whole_edges_cover_every_edge(self, rr_sets, block):
        offsets = RRHypergraph(NODES, rr_sets).edge_offsets
        covered = []
        for first, local in estimator._edge_blocks(offsets):
            count = local.size - 1
            assert np.array_equal(local, offsets[first : first + count + 1])
            # At most one block of members, unless the run is one longer edge.
            assert local[-1] - local[0] <= block or count == 1
            covered.extend(range(first, first + count))
        assert covered == list(range(offsets.size - 1))

    def test_long_edge_runs_alone(self, rr_sets, block):
        offsets = RRHypergraph(NODES, rr_sets).edge_offsets
        spans = [local[-1] - local[0] for _, local in estimator._edge_blocks(offsets)]
        assert LONG_EDGE in spans

    def test_extend_from_an_edge_inside_the_stream(self, rr_sets, block):
        offsets = RRHypergraph(NODES, rr_sets).edge_offsets
        first_runs = list(estimator._edge_blocks(offsets, first_edge=30))
        assert first_runs[0][0] == 30
        assert first_runs[-1][0] + first_runs[-1][1].size - 1 == offsets.size - 1


class TestBlockedKernelsMatchOracle:
    def test_gradient(self, rr_sets, probs, block):
        hypergraph = RRHypergraph(NODES, rr_sets)
        objective = HypergraphObjective(hypergraph, probs)
        reference = ReferenceObjective(hypergraph, probs)
        assert np.array_equal(objective.gradient(), reference.gradient())
        assert np.all(np.isfinite(objective.gradient()))

    def test_gradient_with_curve_derivatives(self, rr_sets, probs, block):
        hypergraph = RRHypergraph(NODES, rr_sets)
        slopes = np.linspace(0.1, 2.0, NODES)
        objective = HypergraphObjective(hypergraph, probs)
        reference = ReferenceObjective(hypergraph, probs)
        assert np.array_equal(
            objective.gradient(curve_derivatives=slopes),
            reference.gradient(curve_derivatives=slopes),
        )

    def test_rebuild_state(self, rr_sets, probs, block):
        hypergraph = RRHypergraph(NODES, rr_sets)
        # Start at q = 1 everywhere: every non-empty edge holds a zero count
        # that the rebuild must overwrite.
        objective = HypergraphObjective(hypergraph, np.ones(NODES))
        objective.set_probabilities(probs)
        _assert_same_state(objective, ReferenceObjective(hypergraph, probs))

    def test_extend_with_boundary_inside_a_block(self, rr_sets, probs, block):
        # Edge 33 sits between two empty edges: the old graph ends with an
        # empty edge and the appended batch starts with one.
        cut = 33
        start = RRHypergraph(NODES, rr_sets[:cut])
        grown = start.extend(rr_sets[cut:])
        runs = estimator._edge_blocks(grown.edge_offsets)
        splits = any(first < cut < first + local.size - 1 for first, local in runs)
        assert splits or block == 1  # a run of the full stream straddles the cut
        objective = HypergraphObjective(start, probs)
        objective.extend(grown)
        reference = ReferenceObjective(grown, probs)
        _assert_same_state(objective, reference)
        assert objective.value() == HypergraphObjective(grown, probs).value()
        assert np.array_equal(objective.gradient(), reference.gradient())


def _traced_peak(fn):
    """Peak bytes that ``fn`` allocates (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestTransientMemoryIsBounded:
    """A call's temporaries scale with the block, not the member stream.

    At 16 and 48 blocks of the default size (1M and 3M members) the
    whole-stream kernels allocated several stream-sized float64 arrays
    per call (tens of MiB); the blocked ones stay under one bound that
    depends on the block, ``n`` and ``theta`` only.
    """

    NODES = 2_000
    EDGES = 4_096

    def _hypergraph(self, blocks):
        stream = blocks * estimator._BLOCK_MEMBERS
        size = stream // self.EDGES
        offsets = np.arange(self.EDGES + 1, dtype=np.int64) * size
        # Distinct members within an edge: a shifted window over the nodes.
        members = (
            np.arange(size)[None, :] + 7 * np.arange(self.EDGES)[:, None]
        ) % self.NODES
        return RRHypergraph.from_csr(
            self.NODES, offsets, members.ravel().astype(np.int32)
        )

    def _bound(self):
        block_bytes = estimator._BLOCK_MEMBERS * 8
        return 6 * block_bytes + 64 * (self.NODES + self.EDGES) + (1 << 18)

    @pytest.mark.parametrize("blocks", (16, 48))
    def test_gradient_and_rebuild_peaks(self, blocks):
        hypergraph = self._hypergraph(blocks)
        assert hypergraph.edge_nodes.size >= 16 * estimator._BLOCK_MEMBERS
        probs = np.random.default_rng(19).uniform(0.0, 0.01, size=self.NODES)
        probs[5] = 1.0
        objective = HypergraphObjective(hypergraph, probs)
        bound = self._bound()
        assert _traced_peak(objective.gradient) < bound
        assert _traced_peak(objective.rebuild) < bound
