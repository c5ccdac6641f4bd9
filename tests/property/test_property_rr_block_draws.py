"""IC's block-drawn RR sampler is bit-identical to per-set sampling.

``IndependentCascade.rr_sampler`` draws its coin flips ahead, in blocks,
and hands out consecutive slices.  That is exact only because a
generator's ``random(a)`` then ``random(b)`` yields the bits of
``random(a + b)``.  These properties pin the consequences on random
directed graphs with arbitrary edge probabilities: the block sampler
returns the sets of successive ``sample_rr_set`` calls, the shared
set-based traversal reproduces the historical stamp-array kernels
(output and final generator state), and a buffer refill in the middle of
one node's slice changes nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import independent_cascade
from repro.diffusion.independent_cascade import IndependentCascade
from repro.graphs.build import from_edges
from repro.rrset.sampler import sample_rr_sets
from repro.utils.rng import spawn_sequences

PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def graphs(draw, max_nodes=40, max_edges=160):
    """Random directed graphs, edge probabilities anywhere in ``[0, 1]``."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    count = draw(st.integers(min_value=0, max_value=max_edges))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = [(draw(node), draw(node), draw(PROBABILITIES)) for _ in range(count)]
    return from_edges(edges, num_nodes=n)


def _oracle_reach(start, rng, offsets, neighbors, probs, num_nodes):
    """The stamp-array BFS both IC kernels ran before the set-based traversal."""
    stamp = np.zeros(num_nodes, dtype=np.int64)
    epoch = 1
    reached = list(start)
    stamp[np.asarray(reached, dtype=np.int64)] = epoch
    head = 0
    while head < len(reached):
        v = reached[head]
        head += 1
        lo, hi = offsets[v], offsets[v + 1]
        if lo == hi:
            continue
        success = rng.random(hi - lo) < probs[lo:hi]
        fresh = neighbors[lo:hi][success]
        fresh = fresh[stamp[fresh] != epoch]
        stamp[fresh] = epoch
        reached.extend(fresh.tolist())
    return np.asarray(reached, dtype=np.int64)


def _oracle_cascade(graph, seeds, rng):
    seeds = np.unique(np.asarray(seeds, dtype=np.int64)).tolist()
    return _oracle_reach(
        seeds, rng, graph.out_offsets, graph.out_targets, graph.out_probs, graph.num_nodes
    )


def _oracle_rr_set(graph, root, rng):
    return _oracle_reach(
        [root], rng, graph.in_offsets, graph.in_sources, graph.in_probs, graph.num_nodes
    )


def _per_set(model, roots, rng):
    return [model.sample_rr_set(root, rng) for root in roots]


def _blocked(model, roots, rng):
    sample = model.rr_sampler(rng)
    return [np.asarray(sample(root), dtype=np.int64) for root in roots]


def _same_sets(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


def _hub_graph(in_degree, seed):
    """Node 0 with ``in_degree`` in-edges, and a sparse random layer behind it."""
    rng = np.random.default_rng(seed)
    n = in_degree + 1
    sources = np.arange(1, n)
    extra = rng.integers(1, n, size=(n // 2, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    edges = [(int(u), 0, float(p)) for u, p in zip(sources, rng.random(sources.size))]
    edges += [(int(u), int(v), float(p)) for (u, v), p in zip(extra, rng.random(len(extra)))]
    return from_edges(edges, num_nodes=n)


class TestStreamConcatenation:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        parts=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_draws_equal_one_draw(self, seed, parts):
        split = np.random.default_rng(seed)
        whole = np.random.default_rng(seed)
        joined = np.concatenate([split.random(part) for part in parts])
        assert joined.tobytes() == whole.random(sum(parts)).tobytes()
        assert split.bit_generator.state == whole.bit_generator.state


class TestBlockSampler:
    @given(
        graph=graphs(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_matches_successive_sample_rr_set(self, graph, seed, chunk):
        model = IndependentCascade(graph)
        roots = np.random.default_rng(seed).integers(0, graph.num_nodes, size=chunk).tolist()
        expected = _per_set(model, roots, np.random.default_rng(seed + 1))
        assert _same_sets(_blocked(model, roots, np.random.default_rng(seed + 1)), expected)

    @given(
        graph=graphs(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk=st.integers(min_value=1, max_value=300),
        chunks=st.integers(min_value=1, max_value=3),
        pass_roots=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sampler_matches_per_set_plan(self, graph, seed, chunk, chunks, pass_roots):
        """Roots passed in or drawn by the sampler, over the whole chunk plan."""
        model = IndependentCascade(graph)
        count = chunk * chunks - (chunk // 2 if chunks > 1 else 0)
        roots = (
            np.random.default_rng(seed).integers(0, graph.num_nodes, size=count)
            if pass_roots
            else None
        )
        sampled = sample_rr_sets(
            model, count, seed=seed, roots=roots, workers=1, chunk_size=chunk
        )
        expected = []
        sizes = [chunk] * (count // chunk) + ([count % chunk] if count % chunk else [])
        offset = 0
        for size, sequence in zip(sizes, spawn_sequences(seed, len(sizes))):
            rng = np.random.default_rng(sequence)
            if roots is None:
                chunk_roots = rng.integers(0, graph.num_nodes, size=size)
            else:
                chunk_roots = roots[offset : offset + size]
            expected += _per_set(model, chunk_roots.tolist(), rng)
            offset += size
        assert _same_sets(sampled, expected)

    @pytest.mark.parametrize("extra", [1, 37])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), chunk=st.integers(1, 300))
    @settings(max_examples=8, deadline=None)
    def test_refill_inside_one_nodes_slice(self, extra, seed, chunk):
        graph = _hub_graph(independent_cascade._BLOCK + extra, seed)
        model = IndependentCascade(graph)
        rng = np.random.default_rng(seed)
        # The hub as every third root: its slice alone outgrows a block,
        # and the other roots leave the buffer part-consumed before it.
        roots = rng.integers(0, graph.num_nodes, size=chunk)
        roots[1::3] = 0
        roots = roots.tolist()
        expected = _per_set(model, roots, np.random.default_rng(seed + 1))
        assert _same_sets(_blocked(model, roots, np.random.default_rng(seed + 1)), expected)


class TestStampOracle:
    @given(
        graph=graphs(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_cascade_matches_oracle(self, graph, seed, data):
        node = st.integers(min_value=0, max_value=graph.num_nodes - 1)
        seeds = data.draw(st.lists(node, max_size=5))
        model = IndependentCascade(graph)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = model.sample_cascade(seeds, ours)
            want = _oracle_cascade(graph, seeds, theirs)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(
        graph=graphs(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_rr_set_matches_oracle(self, graph, seed, data):
        node = st.integers(min_value=0, max_value=graph.num_nodes - 1)
        roots = data.draw(st.lists(node, min_size=1, max_size=20))
        model = IndependentCascade(graph)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for root in roots:
            got = model.sample_rr_set(root, ours)
            want = _oracle_rr_set(graph, root, theirs)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestOutOfRangeRoot:
    @given(graph=graphs(), offset=st.integers(min_value=0, max_value=50), below=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_both_entry_points_raise_the_same_index_error(self, graph, offset, below):
        root = -1 - offset if below else graph.num_nodes + offset
        model = IndependentCascade(graph)
        with pytest.raises(IndexError) as direct:
            model.sample_rr_set(root, np.random.default_rng(0))
        with pytest.raises(IndexError) as blocked:
            model.rr_sampler(np.random.default_rng(0))(root)
        assert str(direct.value) == str(blocked.value)
        assert str(direct.value) == f"root {root} not in graph with {graph.num_nodes} nodes"
