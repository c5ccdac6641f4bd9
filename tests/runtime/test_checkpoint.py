"""Unit tests for atomic checkpoint storage and content keys."""

import json

import numpy as np
import pytest

from repro.core.curves import (
    CallableCurve,
    ConcaveCurve,
    LinearCurve,
    PiecewiseLinearCurve,
    SeedProbabilityCurve,
)
from repro.core.population import CurvePopulation
from repro.core.problem import CIMProblem
from repro.exceptions import CheckpointError, CurveError
from repro.io.serialization import atomic_write_text
from repro.runtime import CheckpointStore, content_key
from repro.runtime.checkpoint import problem_fingerprint


class TestContentKey:
    def test_order_insensitive(self):
        assert content_key(a=1, b=2.0) == content_key(b=2.0, a=1)

    def test_sensitive_to_every_part(self):
        base = content_key(seed=1, budget=5.0)
        assert content_key(seed=2, budget=5.0) != base
        assert content_key(seed=1, budget=5.5) != base

    def test_arrays_hashed_by_content(self):
        a = np.arange(10, dtype=np.float64)
        b = np.arange(10, dtype=np.float64)
        c = a.copy()
        c[3] += 1e-12
        assert content_key(x=a) == content_key(x=b)
        assert content_key(x=a) != content_key(x=c)

    def test_nested_structures(self):
        assert content_key(p={"n": 5, "xs": [1, 2]}) == content_key(p={"xs": [1, 2], "n": 5})

    def test_unhashable_inputs_rejected(self):
        with pytest.raises(CheckpointError, match="Generator"):
            content_key(seed=np.random.default_rng(0))


class TestCheckpointStore:
    def test_json_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"spread": 12.5, "method": "cd"})
        assert store.has("cell")
        assert store.load_json("cell") == {"spread": 12.5, "method": "cd"}

    def test_missing_checkpoint_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        assert not store.has("nope")
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load_json("nope")

    def test_corrupt_checkpoint_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        # Tampering after the write trips the sidecar verification first.
        (store.directory / "cell.json").write_text("{ torn", encoding="utf-8")
        with pytest.raises(CheckpointError, match="integrity"):
            store.load_json("cell")

    def test_torn_file_without_sidecar_raises_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        (store.directory / "cell.json").write_text("{ torn", encoding="utf-8")
        (store.directory / "cell.json.sha256").unlink()  # pre-integrity store
        with pytest.raises(CheckpointError, match="corrupt") as excinfo:
            store.load_json("cell")
        assert excinfo.value.path == str(store.directory / "cell.json")

    def test_key_mismatch_raises(self, tmp_path):
        CheckpointStore(tmp_path, "run-a").save_json("cell", {"x": 1})
        # Force a same-name snapshot under a different key's directory.
        other = CheckpointStore(tmp_path, "run-b")
        path = other.directory / "cell.json"
        document = json.loads(
            (CheckpointStore(tmp_path, "run-a").directory / "cell.json").read_text()
        )
        atomic_write_text(path, json.dumps(document))
        with pytest.raises(CheckpointError, match="belongs to run"):
            other.load_json("cell")

    def test_runs_with_different_keys_do_not_collide(self, tmp_path):
        a = CheckpointStore(tmp_path, "ka")
        b = CheckpointStore(tmp_path, "kb")
        a.save_json("cell", {"v": 1})
        b.save_json("cell", {"v": 2})
        assert a.load_json("cell") == {"v": 1}
        assert b.load_json("cell") == {"v": 2}

    def test_array_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        xs = np.arange(6, dtype=np.int64)
        ys = np.linspace(0, 1, 5)
        store.save_arrays("arrays", xs=xs, ys=ys)
        loaded = store.load_arrays("arrays")
        np.testing.assert_array_equal(loaded["xs"], xs)
        np.testing.assert_array_equal(loaded["ys"], ys)

    def test_atomic_write_leaves_no_temp_litter(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        store.save_arrays("arrays", xs=np.arange(3))
        leftovers = [p.name for p in store.directory.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_invalid_key_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path, "../escape")
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path, "")

    def test_names_and_clear(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("b-cell", {"x": 1})
        store.save_json("a-cell", {"x": 2})
        assert list(store.names()) == ["a-cell", "b-cell"]
        store.clear()
        assert list(store.names()) == []
        assert list(store.directory.iterdir()) == []  # sidecars gone too


class TestCheckpointIntegrity:
    def test_sidecar_written_on_save(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        store.save_arrays("arrays", xs=np.arange(3))
        assert (store.directory / "cell.json.sha256").exists()
        assert (store.directory / "arrays.npz.sha256").exists()

    def test_missing_sidecar_accepted_for_back_compat(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        (store.directory / "cell.json.sha256").unlink()
        assert store.load_json("cell") == {"x": 1}

    def test_flipped_bit_in_npz_detected(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_arrays("hg", xs=np.arange(100, dtype=np.int64))
        path = store.directory / "hg.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # simulated bit rot
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity") as excinfo:
            store.load_arrays("hg")
        assert excinfo.value.path == str(path)

    def test_integrity_failures_counted(self, tmp_path):
        from repro.obs import MetricsRegistry, observe

        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        (store.directory / "cell.json").write_text("tampered", encoding="utf-8")
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with pytest.raises(CheckpointError):
                store.load_json("cell")
        assert registry.counter("checkpoint.integrity_failures_total").value == 1

    def test_truncated_npz_wrapped_with_path(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_arrays("hg", xs=np.arange(1000, dtype=np.int64))
        path = store.directory / "hg.npz"
        path.write_bytes(path.read_bytes()[:64])  # BadZipFile territory
        (store.directory / "hg.npz.sha256").unlink()
        with pytest.raises(CheckpointError, match="corrupt") as excinfo:
            store.load_arrays("hg")
        assert excinfo.value.path == str(path)


class TestQuarantineAndSalvage:
    def test_quarantine_moves_all_artifacts(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        store.save_arrays("cell", xs=np.arange(3))
        moved = store.quarantine("cell")
        assert len(moved) == 4  # json, npz, and both sidecars
        assert all(p.name.endswith(".quarantined") for p in moved)
        assert not store.has("cell")
        assert not store.has_arrays("cell")

    def test_quarantine_of_absent_snapshot_is_noop(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        assert store.quarantine("ghost") == []

    def test_salvage_json_returns_payload_when_healthy(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        assert store.salvage_json("cell") == {"x": 1}

    def test_salvage_json_quarantines_corrupt_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_json("cell", {"x": 1})
        (store.directory / "cell.json").write_text("{ torn", encoding="utf-8")
        assert store.salvage_json("cell") is None
        assert not store.has("cell")  # recompute branch now fires
        assert (store.directory / "cell.json.quarantined").exists()

    def test_salvage_arrays_quarantines_corrupt_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        store.save_arrays("hg", xs=np.arange(50))
        path = store.directory / "hg.npz"
        path.write_bytes(path.read_bytes()[:32])
        assert store.salvage_arrays("hg") is None
        assert not store.has_arrays("hg")

    def test_salvage_of_missing_snapshot_is_plain_none(self, tmp_path):
        store = CheckpointStore(tmp_path, "k1")
        assert store.salvage_json("nope") is None
        assert store.salvage_arrays("nope") is None
        assert list(store.directory.iterdir()) == []  # nothing quarantined


def _keyed(problem, curves) -> str:
    population = CurvePopulation(curves)
    return content_key(
        problem=problem_fingerprint(CIMProblem(problem.model, population, problem.budget))
    )


class TestProblemFingerprint:
    """Checkpoint keys identify the curve of every user, not a sample of it."""

    def test_curves_agreeing_at_sample_points_get_different_keys(self, small_problem):
        n = small_problem.num_nodes
        # Equal at 0.25 and 0.75, different at 0.5.
        low = PiecewiseLinearCurve([(0, 0), (0.25, 0.4), (0.5, 0.45), (0.75, 0.8), (1, 1)])
        high = PiecewiseLinearCurve([(0, 0), (0.25, 0.4), (0.5, 0.7), (0.75, 0.8), (1, 1)])
        assert low(0.25) == high(0.25) and low(0.75) == high(0.75)
        assert low(0.5) != high(0.5)
        assert _keyed(small_problem, [low] * n) != _keyed(small_problem, [high] * n)

    def test_keyed_by_function_not_object(self, small_problem):
        n = small_problem.num_nodes
        shared = LinearCurve()
        distinct = [LinearCurve() for _ in range(n)]
        assert _keyed(small_problem, [shared] * n) == _keyed(small_problem, distinct)

    def test_node_to_curve_map_is_keyed(self, small_problem):
        n = small_problem.num_nodes
        linear, concave = LinearCurve(), ConcaveCurve()
        first = [linear] + [concave] * (n - 1)
        last = [concave] * (n - 1) + [linear]
        assert _keyed(small_problem, first) != _keyed(small_problem, last)

    def test_callable_curves_keyed_by_their_key(self, small_problem):
        n = small_problem.num_nodes
        cube = CallableCurve(lambda c: np.asarray(c) ** 3, key="cube")
        also_cube = CallableCurve(lambda c: np.asarray(c) ** 3, key="cube")
        square = CallableCurve(lambda c: np.asarray(c) ** 2, key="square")
        assert _keyed(small_problem, [cube] * n) == _keyed(small_problem, [also_cube] * n)
        assert _keyed(small_problem, [cube] * n) != _keyed(small_problem, [square] * n)

    def test_curve_without_spec_cannot_be_keyed(self, small_problem):
        class Custom(SeedProbabilityCurve):
            def _evaluate(self, c):
                return c

            def _derivative(self, c):
                return np.ones_like(c)

        with pytest.raises(CurveError, match="spec"):
            _keyed(small_problem, [Custom()] * small_problem.num_nodes)


class TestAtomicWrite:
    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_content_complete(self, tmp_path):
        path = tmp_path / "f.json"
        blob = "x" * 100_000
        atomic_write_text(path, blob)
        assert path.read_text() == blob


class TestHypergraphPersistence:
    def test_npz_round_trip(self, tmp_path, small_problem, small_hypergraph):
        path = tmp_path / "hg.npz"
        small_hypergraph.save_npz(path)
        loaded = type(small_hypergraph).load_npz(path)
        assert loaded.num_nodes == small_hypergraph.num_nodes
        assert loaded.num_hyperedges == small_hypergraph.num_hyperedges
        np.testing.assert_array_equal(loaded.edge_nodes, small_hypergraph.edge_nodes)
        np.testing.assert_array_equal(loaded.node_edges, small_hypergraph.node_edges)

    def test_malformed_arrays_rejected(self, small_hypergraph):
        from repro.rrset.hypergraph import RRHypergraph

        arrays = small_hypergraph.to_arrays()
        arrays["edge_offsets"] = arrays["edge_offsets"][:-1]  # truncated
        with pytest.raises(CheckpointError):
            RRHypergraph.from_arrays(arrays)
