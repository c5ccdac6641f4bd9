"""Chaos suite: shared-slab storage under injected process faults.

The acceptance scenario of the slab store: a worker is SIGKILLed *between
the two slab renames* (members written, sizes not) at ``workers=2``.  The
supervisor re-dispatches the chunk, the re-execution detects the partial
slab (attempt > 0), overwrites it byte-identically and completes the
rename pair — and the assembled hyper-graph is bit-identical to a
fault-free ``workers=1`` build in either storage mode.
"""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_csr
from repro.rrset.storage import SlabStore, pack_chunk
from repro.runtime import FaultInjector


@pytest.fixture(scope="module")
def model():
    graph = assign_weighted_cascade(erdos_renyi(60, 0.06, seed=1), alpha=1.0)
    return IndependentCascade(graph)


def _csr_identical(a, b):
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(
        np.asarray(a[1], dtype=np.int64), np.asarray(b[1], dtype=np.int64)
    )


class TestWorkerKillMidSlabWrite:
    def test_redispatch_overwrites_partial_slab_bit_identical(self, model, tmp_path):
        baseline = sample_rr_csr(
            model, 128, seed=7, chunk_size=32, workers=1, storage="heap"
        )
        with FaultInjector(
            process_faults={"storage.slab_write": {1: "kill"}}
        ) as injector:
            chaos = sample_rr_csr(
                model,
                128,
                seed=7,
                chunk_size=32,
                workers=2,
                storage="shared",
                slab_dir=tmp_path,
            )
        # The kill really happened between the two renames, in a worker...
        assert ("storage.slab_write", 1, 0, "kill") in injector.process_fired
        # ...and the re-dispatched chunk rewrote the slab to the exact
        # fault-free stream.
        _csr_identical(chaos, baseline)

    def test_hypergraph_bit_identical_across_modes_after_kill(self, model, tmp_path):
        fault_free = RRHypergraph.build(model, 128, seed=7, workers=1, chunk_size=32)
        with FaultInjector(process_faults={"storage.slab_write": {0: "kill"}}):
            sizes, members = sample_rr_csr(
                model,
                128,
                seed=7,
                chunk_size=32,
                workers=2,
                storage="shared",
                slab_dir=tmp_path,
            )
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        recovered = RRHypergraph.from_csr(model.num_nodes, offsets, members)
        left, right = fault_free.to_arrays(), recovered.to_arrays()
        assert sorted(left) == sorted(right)
        for key, array in left.items():
            assert np.array_equal(array, right[key]), key

    def test_partial_slab_on_disk_is_detected_as_retry(self, model, tmp_path):
        """The attempt-detection contract `write_chunk` relies on."""
        store = SlabStore.create(tmp_path)
        try:
            chunk = pack_chunk([np.array([3, 1]), np.array([2])], np.uint8)
            first = store.write_chunk(0, *chunk)
            # Simulate the mid-write crash: sizes half missing.
            store.sizes_path(first.stem).unlink()
            # The rewrite (a re-dispatched attempt) completes the pair.
            second = store.write_chunk(0, *chunk)
            assert second == first
            sizes, members = store.read_chunk(second)
            assert sizes.tolist() == [2, 1]
            assert members.tolist() == [3, 1, 2]
        finally:
            store.cleanup()


class TestWorkerKillWithMmapDestination:
    """The kill/recovery contract must hold when assembly targets spill files."""

    def test_recovered_mmap_assembly_bit_identical_to_heap(self, model, tmp_path):
        from repro.utils.spill import is_spill_backed

        baseline = sample_rr_csr(
            model, 128, seed=7, chunk_size=32, workers=1, storage="heap"
        )
        with FaultInjector(
            process_faults={"storage.slab_write": {1: "kill"}}
        ) as injector:
            chaos = sample_rr_csr(
                model,
                128,
                seed=7,
                chunk_size=32,
                workers=2,
                storage="shared",
                slab_dir=tmp_path,
                backing="mmap",
                spill_dir=tmp_path,
            )
        assert ("storage.slab_write", 1, 0, "kill") in injector.process_fired
        # The re-dispatched chunk's slab landed in the spill-backed CSR
        # byte-identically to the fault-free heap stream...
        _csr_identical(chaos, baseline)
        # ...and the destination really is the memmap path, not a silent
        # fallback to the heap.
        assert is_spill_backed(chaos[1])

    def test_hypergraph_from_recovered_mmap_matches_fault_free_heap(
        self, model, tmp_path
    ):
        fault_free = RRHypergraph.build(model, 128, seed=7, workers=1, chunk_size=32)
        with FaultInjector(process_faults={"storage.slab_write": {0: "kill"}}):
            sizes, members = sample_rr_csr(
                model,
                128,
                seed=7,
                chunk_size=32,
                workers=2,
                storage="shared",
                slab_dir=tmp_path,
                backing="mmap",
                spill_dir=tmp_path,
            )
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        recovered = RRHypergraph.from_csr(model.num_nodes, offsets, members)
        left, right = fault_free.to_arrays(), recovered.to_arrays()
        assert sorted(left) == sorted(right)
        for key, array in left.items():
            assert np.array_equal(array, np.asarray(right[key])), key
