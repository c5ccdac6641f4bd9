"""Dtype-policy widening on spill-backed (memmap) hyper-graph arrays.

The mirror of ``test_dtype_policy.py``'s overflow guard for the
out-of-core path: when an ``extend_csr`` instalment pushes a total past
a capacity cap, the policy must re-choose and widen *on the memmap
destination* — the widened arrays stay spill-backed and bit-identical
to a from-scratch heap build, including the nasty case where the
boundary is crossed mid-extend.
"""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset import storage as storage_mod
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_csr, sample_rr_sets
from repro.utils.spill import is_spill_backed

CSR_ATTRS = ("edge_offsets", "edge_nodes", "node_offsets", "node_edges")


def _model(n=30, seed=4):
    return IndependentCascade(
        assign_weighted_cascade(erdos_renyi(n, 0.12, seed=seed), alpha=1.0)
    )


def _assert_same_values(a, b):
    for attr in CSR_ATTRS:
        x = np.asarray(getattr(a, attr), dtype=np.int64)
        y = np.asarray(getattr(b, attr), dtype=np.int64)
        assert np.array_equal(x, y), attr


def _mmap_build(model, count, tmp_path, start_at=0):
    """CSR batch on the spill backing (what the adaptive driver appends)."""
    return sample_rr_csr(
        model,
        count,
        seed=5,
        storage="shared",
        backing="mmap",
        slab_dir=tmp_path,
        spill_dir=tmp_path,
        start_at=start_at,
    )


def _from_csr(n, sizes, members):
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return RRHypergraph.from_csr(n, offsets, members)


class TestSpillPlacementSurvivesBuild:
    def test_from_csr_inherits_mmap_backing(self, tmp_path):
        model = _model()
        sizes, members = _mmap_build(model, 256, tmp_path)
        hg = RRHypergraph.from_csr(
            model.num_nodes, np.concatenate(([0], np.cumsum(sizes))), members
        )
        assert is_spill_backed(hg.edge_nodes)
        assert is_spill_backed(hg.node_edges)

    def test_heap_and_mmap_builds_bit_identical(self, tmp_path):
        model = _model()
        reference = RRHypergraph(
            model.num_nodes, sample_rr_sets(model, 256, seed=5)
        )
        sizes, members = _mmap_build(model, 256, tmp_path)
        _assert_same_values(reference, _from_csr(model.num_nodes, sizes, members))


class TestSpillWidening:
    """Satellite: uint32→int64 widening on memmap destinations."""

    def test_extend_across_offset_boundary_widens_on_mmap(
        self, tmp_path, monkeypatch
    ):
        model = _model()
        first = sample_rr_sets(model, 256, seed=5)
        second = sample_rr_sets(model, 256, seed=5, start_at=256)
        reference = RRHypergraph(model.num_nodes, first + second)

        stream = int(sum(rr.size for rr in first))
        monkeypatch.setattr(storage_mod, "OFFSET_LIMIT", stream + 5)
        sizes, members = _mmap_build(model, 256, tmp_path)
        grown = _from_csr(model.num_nodes, sizes, members)
        assert grown.edge_offsets.dtype == np.uint32
        assert is_spill_backed(grown.edge_nodes)

        new_sizes, new_members = _mmap_build(model, 256, tmp_path, start_at=256)
        grown = grown.extend_csr(new_sizes, new_members)
        # The mid-extend crossing: totals only exceed the cap once the
        # second instalment lands, so the policy re-chooses during the
        # extend itself — and the widened arrays stay on the spill.
        assert grown.edge_offsets.dtype == np.int64
        assert grown.node_offsets.dtype == np.int64
        assert is_spill_backed(grown.edge_nodes)
        assert is_spill_backed(grown.node_edges)
        _assert_same_values(reference, grown)

    def test_extend_across_edge_id_boundary_widens_on_mmap(
        self, tmp_path, monkeypatch
    ):
        model = _model()
        first = sample_rr_sets(model, 256, seed=5)
        second = sample_rr_sets(model, 256, seed=5, start_at=256)
        reference = RRHypergraph(model.num_nodes, first + second)

        monkeypatch.setattr(storage_mod, "EDGE_ID_LIMIT", 300)
        sizes, members = _mmap_build(model, 256, tmp_path)
        grown = _from_csr(model.num_nodes, sizes, members)
        assert grown.node_edges.dtype == np.uint32
        assert is_spill_backed(grown.node_edges)

        new_sizes, new_members = _mmap_build(model, 256, tmp_path, start_at=256)
        grown = grown.extend_csr(new_sizes, new_members)
        assert grown.node_edges.dtype == np.int64
        assert is_spill_backed(grown.node_edges)
        _assert_same_values(reference, grown)

    def test_widened_mmap_extend_matches_heap_extend(self, tmp_path, monkeypatch):
        """Same widening, both backings: identical bits either way."""
        model = _model()
        first = sample_rr_sets(model, 256, seed=5)
        stream = int(sum(rr.size for rr in first))
        monkeypatch.setattr(storage_mod, "OFFSET_LIMIT", stream + 5)

        heap = RRHypergraph(model.num_nodes, first).extend(
            sample_rr_sets(model, 256, seed=5, start_at=256)
        )
        sizes, members = _mmap_build(model, 256, tmp_path)
        new_sizes, new_members = _mmap_build(model, 256, tmp_path, start_at=256)
        mmap = _from_csr(model.num_nodes, sizes, members).extend_csr(
            new_sizes, new_members
        )
        _assert_same_values(heap, mmap)


class TestObjectivePlacement:
    def test_objective_state_follows_hypergraph_backing(self, tmp_path):
        model = _model()
        sizes, members = _mmap_build(model, 256, tmp_path)
        hg = _from_csr(model.num_nodes, sizes, members)
        probs = np.random.default_rng(8).uniform(0.0, 0.4, size=model.num_nodes)
        objective = HypergraphObjective(hg, probs)
        assert is_spill_backed(objective._zero_count)
        assert is_spill_backed(objective._nonzero_prod)

    def test_objective_value_identical_across_backings(self, tmp_path):
        model = _model()
        heap_hg = RRHypergraph(model.num_nodes, sample_rr_sets(model, 256, seed=5))
        sizes, members = _mmap_build(model, 256, tmp_path)
        mmap_hg = _from_csr(model.num_nodes, sizes, members)
        probs = np.random.default_rng(8).uniform(0.0, 0.4, size=model.num_nodes)
        assert (
            HypergraphObjective(heap_hg, probs).value()
            == HypergraphObjective(mmap_hg, probs).value()
        )

    def test_extend_keeps_state_spill_backed(self, tmp_path):
        model = _model()
        probs = np.random.default_rng(8).uniform(0.0, 0.4, size=model.num_nodes)
        sizes, members = _mmap_build(model, 512, tmp_path)
        objective = HypergraphObjective(_from_csr(model.num_nodes, sizes, members), probs)
        new_sizes, new_members = _mmap_build(model, 256, tmp_path, start_at=512)
        objective.extend(objective.hypergraph.extend_csr(new_sizes, new_members))
        assert is_spill_backed(objective._zero_count)
        assert is_spill_backed(objective._nonzero_prod)

        heap_hg = RRHypergraph(model.num_nodes, sample_rr_sets(model, 512, seed=5))
        twin = HypergraphObjective(heap_hg, probs)
        twin.extend(heap_hg.extend(sample_rr_sets(model, 256, seed=5, start_at=512)))
        assert not is_spill_backed(twin._zero_count)
        assert objective.value() == twin.value()
