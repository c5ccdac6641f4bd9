"""Unit tests for slab-backed RR-set storage (`repro.rrset.storage`).

Covers the dtype policy (width selection, the uint32 overflow guard, the
member-id hard ceiling), the slab store's write/read/assemble round trip
and torn-slab detection, and the headline contract: shared-slab sampling
is bit-identical to heap sampling at every worker count.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import StorageError
from repro.graphs.generators import erdos_renyi, path_graph
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset import storage as storage_mod
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_csr, sample_rr_sets
from repro.rrset.storage import (
    DtypePolicy,
    SlabRef,
    SlabStore,
    assemble,
    member_dtype,
    edge_id_dtype,
    offset_dtype,
    pack_chunk,
    resolve_storage,
)


def _model(n=40, p=0.1, seed=1):
    return IndependentCascade(
        assign_weighted_cascade(erdos_renyi(n, p, seed=seed), alpha=1.0)
    )


def _write(store, index, rr_sets, dtype):
    """The shared chunk task's write path: pack, then write the slab pair."""
    return store.write_chunk(index, *pack_chunk(rr_sets, dtype, index))


class TestDtypePolicy:
    def test_small_graph_uses_uint8(self):
        assert member_dtype(256) == np.uint8
        assert member_dtype(10) == np.uint8

    def test_large_graph_uses_uint32(self):
        assert member_dtype(257) == np.uint32
        assert member_dtype(1 << 32) == np.uint32

    def test_member_overflow_is_an_error(self):
        with pytest.raises(StorageError):
            member_dtype((1 << 32) + 1)

    def test_edge_ids_widen_never_fail(self):
        assert edge_id_dtype(10) == np.uint32
        assert edge_id_dtype((1 << 32) - 1) == np.uint32
        assert edge_id_dtype(1 << 32) == np.int64

    def test_offsets_widen_never_fail(self):
        assert offset_dtype(0) == np.uint32
        assert offset_dtype((1 << 32) - 1) == np.uint32
        assert offset_dtype(1 << 32) == np.int64

    def test_choose_bundles_all_three(self):
        policy = DtypePolicy.choose(100, 5000, 40_000)
        assert policy.members == np.uint8
        assert policy.edge_ids == np.uint32
        assert policy.offsets == np.uint32

    def test_shrunk_caps_flip_widths(self, monkeypatch):
        # Shrinking the module caps exercises the uint32 boundary without
        # allocating 4G-element arrays.
        monkeypatch.setattr(storage_mod, "EDGE_ID_LIMIT", 8)
        monkeypatch.setattr(storage_mod, "OFFSET_LIMIT", 7)
        policy = DtypePolicy.choose(300, 8, 8)
        assert policy.members == np.uint32
        assert policy.edge_ids == np.int64
        assert policy.offsets == np.int64


class TestResolveStorage:
    def test_none_is_heap(self):
        assert resolve_storage(None) == "heap"

    @pytest.mark.parametrize("mode", ["heap", "shared"])
    def test_valid_modes(self, mode):
        assert resolve_storage(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(StorageError):
            resolve_storage("mmap")


class TestSlabStore:
    def test_round_trip(self, tmp_path):
        rr_sets = [np.array([0, 3, 5]), np.array([2]), np.array([], dtype=np.int64)]
        with SlabStore.create(tmp_path) as store:
            ref = _write(store, 0, rr_sets, np.uint8)
            assert ref.count == 3
            assert ref.total_members == 4
            sizes, members = store.read_chunk(ref)
            assert sizes.tolist() == [3, 1, 0]
            assert members.tolist() == [0, 3, 5, 2]
            assert members.dtype == np.uint8

    def test_assemble_plan_order(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            refs = [
                _write(store, 0, [np.array([1, 2])], np.uint8),
                _write(store, 1, [np.array([3]), np.array([4, 5])], np.uint8),
            ]
            sizes, members = assemble(refs, np.uint8, store=store)
        assert sizes.tolist() == [2, 1, 2]
        assert sizes.dtype == np.int64
        assert members.tolist() == [1, 2, 3, 4, 5]

    def test_ref_pickles_small(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = _write(store, 0, [np.arange(10_000)], np.uint32)
            assert ref.pickled_bytes < 1024

    def test_write_range_checked_before_cast(self, tmp_path):
        # 300 would wrap to 44 in uint8; the chunk must fail before any
        # slab lands.  Negative ids are caught the same way.
        with SlabStore.create(tmp_path) as store:
            with pytest.raises(StorageError, match="chunk 3: member id 300"):
                _write(store, 3, [np.array([0, 300])], np.uint8)
            with pytest.raises(StorageError, match="member id -1"):
                _write(store, 0, [np.array([2]), np.array([-1])], np.uint32)
            assert list(Path(store.directory).iterdir()) == []

    def test_rewrite_is_idempotent(self, tmp_path):
        rr_sets = [np.array([7, 1]), np.array([4])]
        with SlabStore.create(tmp_path) as store:
            first = _write(store, 2, rr_sets, np.uint8)
            raw = store.members_path(first.stem).read_bytes()
            second = _write(store, 2, rr_sets, np.uint8)
            assert first == second
            assert store.members_path(second.stem).read_bytes() == raw

    def test_torn_slab_detected(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = _write(store, 0, [np.array([1, 2, 3])], np.uint8)
            # Corrupt the sizes half so the cross-check trips.
            np.save(store.sizes_path(ref.stem), np.array([5], dtype=np.int64))
            with pytest.raises(StorageError):
                store.read_chunk(ref)

    def test_missing_slab_detected(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = SlabRef(
                index=0, count=1, total_members=1, member_dtype="|u1", stem="chunk-000000"
            )
            with pytest.raises(StorageError):
                store.read_chunk(ref)

    def test_assemble_dtype_mismatch_detected(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = _write(store, 0, [np.array([1])], np.uint8)
            with pytest.raises(StorageError):
                assemble([ref], np.uint32, store=store)

    def test_cleanup_twice_is_safe(self, tmp_path):
        store = SlabStore.create(tmp_path)
        store.cleanup()
        store.cleanup()

    def test_slab_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(storage_mod.SLAB_DIR_ENV_VAR, str(tmp_path))
        store = SlabStore.create()
        try:
            assert str(tmp_path) in store.directory
        finally:
            store.cleanup()


class TestSampleRRCsr:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shared_matches_heap_bit_for_bit(self, tmp_path, workers):
        model = _model()
        heap_sizes, heap_members = sample_rr_csr(
            model, 600, seed=11, workers=1, storage="heap"
        )
        sizes, members = sample_rr_csr(
            model, 600, seed=11, workers=workers, storage="shared", slab_dir=tmp_path
        )
        assert np.array_equal(sizes, heap_sizes)
        assert np.array_equal(
            np.asarray(members, dtype=np.int64),
            np.asarray(heap_members, dtype=np.int64),
        )

    def test_matches_sample_rr_sets(self, tmp_path):
        model = _model()
        rr_list = sample_rr_sets(model, 300, seed=5)
        sizes, members = sample_rr_csr(
            model, 300, seed=5, storage="shared", slab_dir=tmp_path
        )
        assert sizes.tolist() == [rr.size for rr in rr_list]
        assert np.array_equal(
            np.asarray(members, dtype=np.int64), np.concatenate(rr_list)
        )

    def test_member_dtype_follows_policy(self, tmp_path):
        small = _model(n=40)
        sizes, members = sample_rr_csr(
            small, 100, seed=3, storage="shared", slab_dir=tmp_path
        )
        assert members.dtype == np.uint8
        big = IndependentCascade(
            assign_weighted_cascade(path_graph(300, probability=0.5), alpha=1.0)
        )
        _, members = sample_rr_csr(big, 50, seed=3, storage="shared", slab_dir=tmp_path)
        assert members.dtype == np.uint32

    def test_zero_count(self, tmp_path):
        model = _model()
        sizes, members = sample_rr_csr(
            model, 0, seed=1, storage="shared", slab_dir=tmp_path
        )
        assert sizes.size == 0
        assert members.size == 0

    def test_slab_directory_removed_after_run(self, tmp_path):
        model = _model()
        sample_rr_csr(model, 100, seed=2, storage="shared", slab_dir=tmp_path)
        assert list(tmp_path.glob("repro-slabs-*")) == []

    def test_hypergraph_built_from_csr_matches_list_build(self, tmp_path):
        model = _model()
        sizes, members = sample_rr_csr(
            model, 400, seed=9, storage="shared", slab_dir=tmp_path
        )
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        via_csr = RRHypergraph.from_csr(model.num_nodes, offsets, members)
        via_list = RRHypergraph(model.num_nodes, sample_rr_sets(model, 400, seed=9))
        for attr in ("edge_offsets", "edge_nodes", "node_offsets", "node_edges"):
            assert np.array_equal(
                np.asarray(getattr(via_csr, attr), dtype=np.int64),
                np.asarray(getattr(via_list, attr), dtype=np.int64),
            ), attr


class TestAssembleBacking:
    """`assemble` destination control: `out=` and `backing=` (spill-mmap)."""

    def _refs(self, store):
        return [
            _write(store, 0, [np.array([1, 2])], np.uint8),
            _write(store, 1, [np.array([3]), np.array([4, 5])], np.uint8),
        ]

    def test_mmap_backing_matches_heap(self, tmp_path):
        from repro.utils.spill import is_spill_backed

        with SlabStore.create(tmp_path) as store:
            refs = self._refs(store)
            heap_sizes, heap_members = assemble(refs, np.uint8, store=store)
            mm_sizes, mm_members = assemble(
                refs, np.uint8, store=store, backing="mmap", spill_dir=tmp_path
            )
        assert np.array_equal(heap_sizes, mm_sizes)
        assert np.array_equal(heap_members, mm_members)
        assert mm_members.dtype == heap_members.dtype
        assert is_spill_backed(mm_sizes)
        assert is_spill_backed(mm_members)
        assert not is_spill_backed(heap_members)

    def test_out_arrays_filled_in_place(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            refs = self._refs(store)
            sizes = np.empty(3, dtype=np.int64)
            members = np.empty(5, dtype=np.uint8)
            got_sizes, got_members = assemble(
                refs, np.uint8, store=store, out=(sizes, members)
            )
        assert got_sizes is sizes
        assert got_members is members
        assert sizes.tolist() == [2, 1, 2]
        assert members.tolist() == [1, 2, 3, 4, 5]

    def test_out_shape_and_dtype_validated(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            refs = self._refs(store)
            with pytest.raises(StorageError):
                assemble(
                    refs,
                    np.uint8,
                    store=store,
                    out=(np.empty(2, dtype=np.int64), np.empty(5, dtype=np.uint8)),
                )
            with pytest.raises(StorageError):
                assemble(
                    refs,
                    np.uint8,
                    store=store,
                    out=(np.empty(3, dtype=np.int64), np.empty(5, dtype=np.uint32)),
                )

    def test_invalid_backing_rejected(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            refs = self._refs(store)
            with pytest.raises(StorageError):
                assemble(refs, np.uint8, store=store, backing="shm")

    def test_sample_rr_csr_mmap_backing_bit_identical(self, tmp_path):
        from repro.utils.spill import is_spill_backed

        model = _model()
        heap_sizes, heap_members = sample_rr_csr(
            model, 400, seed=13, workers=2, storage="shared", slab_dir=tmp_path
        )
        mm_sizes, mm_members = sample_rr_csr(
            model,
            400,
            seed=13,
            workers=2,
            storage="shared",
            slab_dir=tmp_path,
            backing="mmap",
            spill_dir=tmp_path,
        )
        assert np.array_equal(heap_sizes, mm_sizes)
        assert np.array_equal(heap_members, mm_members)
        assert is_spill_backed(mm_members)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_heap_transport_mmap_backing_matches_shared(self, tmp_path, workers):
        """Placement is independent of the transport: heap chunks assemble
        into spill files bit-identically to shared slabs."""
        from repro.utils.spill import is_spill_backed

        model = _model()
        shared = sample_rr_csr(
            model, 400, seed=13, workers=workers, storage="shared", slab_dir=tmp_path
        )
        heap_mm = sample_rr_csr(
            model,
            400,
            seed=13,
            workers=workers,
            storage="heap",
            backing="mmap",
            spill_dir=tmp_path,
        )
        for left, right in zip(shared, heap_mm):
            assert left.dtype == right.dtype
            assert np.array_equal(left, right)
            assert is_spill_backed(right)
        built = RRHypergraph.build(
            model, 400, seed=13, workers=workers, backing="mmap", spill_dir=tmp_path
        )
        assert is_spill_backed(built.edge_nodes)
        assert is_spill_backed(built.node_edges)
        assert np.array_equal(built.edge_nodes, shared[1])
