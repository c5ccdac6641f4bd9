"""Checkpoint/resume for long experiment runs.

An experiment grid (Section 9: datasets x budgets x methods) can run for
hours; a crash at cell 47 must not discard cells 1–46.  A
:class:`CheckpointStore` is a directory of atomically-written snapshot
files under a *content key* — a hash of everything that determines the
run's output (dataset fingerprint, seed, parameters).  Resuming with the
same inputs finds the same key and reuses completed cells; changing *any*
input changes the key, so stale checkpoints can never leak into a
different experiment.

Snapshots are JSON for structured records and NPZ for arrays, both written
via write-temp-then-rename so a reader never sees a torn file.  Array
snapshots stream straight to disk (and hash in chunks on both write and
read): a multi-gigabyte cached hyper-graph is never double-buffered in
memory.

Integrity: every snapshot gets a ``<file>.sha256`` sidecar written after
the main file; loads verify the digest before parsing, so silent disk
corruption (bit rot, a partial copy, a crash between file and sidecar)
is caught as :class:`~repro.exceptions.CheckpointError` — with ``path``
naming the damaged artifact — instead of surfacing as a confusing parse
error hours into a resume.  Sidecar-less files (pre-integrity stores)
still load.  :meth:`CheckpointStore.salvage_json` /
:meth:`~CheckpointStore.salvage_arrays` turn "damaged" into "absent":
they quarantine the corrupt artifact (rename to ``*.quarantined``, kept
for forensics) and return ``None`` so the caller simply recomputes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.exceptions import CheckpointError
from repro.obs.context import get_metrics

__all__ = ["CheckpointStore", "content_key", "problem_fingerprint"]

PathLike = Union[str, Path]

_CHECKPOINT_FORMAT = "repro.checkpoint.v1"


def _stream_digest(path: Path, chunk_bytes: int = 1 << 22) -> str:
    """sha256 of a file computed in fixed-size chunks (bounded memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _canonical(value) -> object:
    """Reduce ``value`` to JSON-stable primitives for hashing."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        # dtype + shape + raw bytes: two arrays hash equal iff identical.
        # sha256 reads a C-contiguous array through the buffer protocol,
        # so a contiguous array (a memmap included) is hashed in place;
        # only a strided view is copied, as ``tobytes`` would copy it.
        digest = hashlib.sha256(np.ascontiguousarray(value)).hexdigest()
        return {"__ndarray__": [str(value.dtype), list(value.shape), digest]}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, bytes):
        return {"__bytes__": hashlib.sha256(value).hexdigest()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise CheckpointError(
        f"cannot derive a stable content key from {type(value).__name__!r}; "
        "pass plain data (numbers, strings, arrays) — e.g. an integer seed "
        "instead of a Generator"
    )


def content_key(**parts) -> str:
    """A stable hex digest of the keyword parts (order-insensitive).

    >>> content_key(seed=1, budget=2.0) == content_key(budget=2.0, seed=1)
    True
    >>> content_key(seed=1) == content_key(seed=2)
    False
    """
    blob = json.dumps(_canonical(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def problem_fingerprint(problem) -> Dict[str, object]:
    """The content of a problem that keys its checkpoints.

    The graph's CSR arrays, the budget, and the population's spec (each
    distinct curve's class and parameters plus the node-to-curve map), so
    two problems share keys only when every user has the same curve.
    Shared by the experiment runner and the adaptive sampling driver, so
    both key the same problem identically.
    """
    graph = problem.graph
    return {
        "num_nodes": problem.num_nodes,
        "num_edges": graph.num_edges,
        "out_offsets": graph.out_offsets,
        "out_targets": graph.out_targets,
        "out_probs": graph.out_probs,
        "budget": float(problem.budget),
        "population": problem.population.spec(),
    }


class CheckpointStore:
    """A directory of named snapshots for one keyed run.

    Layout: ``<root>/<key>/<name>.json`` and ``<root>/<key>/<name>.npz``.
    Several runs (different keys) share one root without interference.
    """

    def __init__(self, root: PathLike, key: str) -> None:
        if not key or any(c in key for c in "/\\"):
            raise CheckpointError(f"invalid checkpoint key {key!r}")
        self.root = Path(root)
        self.key = key
        self.directory = self.root / key
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(f"cannot create checkpoint directory: {exc}") from exc

    # ------------------------------------------------------------------
    # integrity sidecars
    # ------------------------------------------------------------------
    @staticmethod
    def _sidecar_path(path: Path) -> Path:
        return path.with_name(path.name + ".sha256")

    def _write_sidecar(self, path: Path, data: bytes) -> None:
        self._write_sidecar_digest(path, hashlib.sha256(data).hexdigest())

    def _write_sidecar_digest(self, path: Path, digest: str) -> None:
        from repro.io.serialization import atomic_write_text

        try:
            atomic_write_text(self._sidecar_path(path), digest + "\n")
        except OSError as exc:
            raise CheckpointError(
                f"cannot write integrity sidecar for {path.name!r}: {exc}",
                path=self._sidecar_path(path),
            ) from exc

    def _verify(self, path: Path, name: str, data: bytes) -> None:
        """Check ``data`` against the sidecar digest, if one exists.

        A missing sidecar is accepted (stores written before integrity
        sidecars existed); a mismatch means the artifact — or the
        sidecar — changed after the write, and the snapshot cannot be
        trusted.
        """
        sidecar = self._sidecar_path(path)
        try:
            expected = sidecar.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CheckpointError(
                f"cannot read integrity sidecar of checkpoint {name!r}: {exc}",
                path=sidecar,
            ) from exc
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            get_metrics().inc("checkpoint.integrity_failures_total")
            raise CheckpointError(
                f"checkpoint {name!r} failed integrity verification: "
                f"sha256 {actual[:12]}… does not match sidecar {expected[:12]}…",
                path=path,
            )

    def _verify_stream(self, path: Path, name: str) -> None:
        """Like :meth:`_verify` but hashing the file in chunks.

        Array snapshots can be hundreds of megabytes (a cached
        million-edge hyper-graph); verifying the streamed digest avoids
        ever holding a second in-memory copy of the payload.
        """
        sidecar = self._sidecar_path(path)
        try:
            expected = sidecar.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CheckpointError(
                f"cannot read integrity sidecar of checkpoint {name!r}: {exc}",
                path=sidecar,
            ) from exc
        try:
            actual = _stream_digest(path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {name!r}: {exc}", path=path
            ) from exc
        if actual != expected:
            get_metrics().inc("checkpoint.integrity_failures_total")
            raise CheckpointError(
                f"checkpoint {name!r} failed integrity verification: "
                f"sha256 {actual[:12]}… does not match sidecar {expected[:12]}…",
                path=path,
            )

    # ------------------------------------------------------------------
    # JSON snapshots
    # ------------------------------------------------------------------
    def _json_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def has(self, name: str) -> bool:
        """Whether a JSON snapshot ``name`` exists."""
        return self._json_path(name).exists()

    def save_json(self, name: str, payload: Dict[str, object]) -> Path:
        """Atomically write a JSON snapshot (plus sidecar); returns its path."""
        from repro.io.serialization import atomic_write_text
        from repro.runtime.faults import maybe_inject

        maybe_inject("checkpoint.write")
        document = {"format": _CHECKPOINT_FORMAT, "key": self.key, "payload": payload}
        path = self._json_path(name)
        try:
            text = json.dumps(document, indent=2, sort_keys=True)
            atomic_write_text(path, text)
        except (OSError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"cannot write checkpoint {name!r}: {exc}", path=path
            ) from exc
        self._write_sidecar(path, text.encode("utf-8"))
        get_metrics().inc("checkpoint.writes_total")
        return path

    def load_json(self, name: str) -> Dict[str, object]:
        """Read a JSON snapshot; raises :class:`CheckpointError` when
        missing, torn, corrupted on disk, or written under a different
        key — carrying the offending file path."""
        path = self._json_path(name)
        try:
            raw = path.read_bytes()
        except FileNotFoundError as exc:
            raise CheckpointError(
                f"no checkpoint named {name!r} under {self.directory}", path=path
            ) from exc
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {name!r}: {exc}", path=path
            ) from exc
        self._verify(path, name, raw)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {name!r}: {exc}", path=path
            ) from exc
        if not isinstance(document, dict) or document.get("format") != _CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {name!r} is not a {_CHECKPOINT_FORMAT} document",
                path=path,
            )
        if document.get("key") != self.key:
            raise CheckpointError(
                f"checkpoint {name!r} belongs to run {document.get('key')!r}, "
                f"not {self.key!r}",
                path=path,
            )
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"checkpoint {name!r} has a malformed payload", path=path
            )
        get_metrics().inc("checkpoint.reads_total")
        return payload

    # ------------------------------------------------------------------
    # NPZ snapshots (arrays — e.g. a cached hyper-graph)
    # ------------------------------------------------------------------
    def _npz_path(self, name: str) -> Path:
        return self.directory / f"{name}.npz"

    def has_arrays(self, name: str) -> bool:
        """Whether an NPZ snapshot ``name`` exists."""
        return self._npz_path(name).exists()

    def save_arrays(self, name: str, **arrays: np.ndarray) -> Path:
        """Atomically write an NPZ snapshot (plus sidecar) of the arrays.

        The archive is streamed to a temporary file in the checkpoint
        directory and renamed into place, and its digest is computed by
        re-reading that file in chunks — the snapshot never exists as a
        second in-memory copy, which matters when the arrays are a
        multi-gigabyte hyper-graph.
        """
        from repro.runtime.faults import maybe_inject

        maybe_inject("checkpoint.write")
        path = self._npz_path(name)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{name}.", suffix=".npz.tmp"
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            digest = _stream_digest(tmp)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(
                f"cannot write checkpoint {name!r}: {exc}", path=path
            ) from exc
        self._write_sidecar_digest(path, digest)
        get_metrics().inc("checkpoint.writes_total")
        return path

    def load_arrays(self, name: str) -> Dict[str, np.ndarray]:
        """Read an NPZ snapshot back as a dict of arrays.

        Wraps every decoder failure mode — a truncated ZIP container
        (``zipfile.BadZipFile``), a missing archive member
        (``KeyError``), a torn deflate stream (``zlib.error``,
        ``EOFError``) — as :class:`CheckpointError` with the file path.
        """
        path = self._npz_path(name)
        if not path.exists():
            raise CheckpointError(
                f"no checkpoint named {name!r} under {self.directory}", path=path
            )
        self._verify_stream(path, name)
        try:
            with np.load(path) as data:
                arrays = {key: data[key] for key in data.files}
        except (
            OSError,
            ValueError,
            KeyError,
            EOFError,
            zipfile.BadZipFile,
            zlib.error,
        ) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {name!r}: {exc}", path=path
            ) from exc
        get_metrics().inc("checkpoint.reads_total")
        return arrays

    # ------------------------------------------------------------------
    # quarantine and salvage
    # ------------------------------------------------------------------
    def quarantine(self, name: str) -> List[Path]:
        """Move every artifact of snapshot ``name`` aside as ``*.quarantined``.

        The JSON and NPZ halves of a snapshot (and their sidecars) form
        one logical unit, so all of them are quarantined together: a
        half-trusted snapshot is worse than an absent one.  The renamed
        files are kept for forensics and returned; :meth:`has` /
        :meth:`has_arrays` report the snapshot as absent afterwards, so
        resume logic falls through to recomputation.
        """
        moved: List[Path] = []
        for path in (self._json_path(name), self._npz_path(name)):
            for artifact in (path, self._sidecar_path(path)):
                if not artifact.exists():
                    continue
                target = artifact.with_name(artifact.name + ".quarantined")
                try:
                    artifact.replace(target)
                except OSError as exc:
                    raise CheckpointError(
                        f"cannot quarantine checkpoint {name!r}: {exc}",
                        path=artifact,
                    ) from exc
                moved.append(target)
        if moved:
            get_metrics().inc("checkpoint.quarantined_total")
        return moved

    def salvage_json(self, name: str) -> Optional[Dict[str, object]]:
        """Best-effort :meth:`load_json`: damaged → quarantine → ``None``.

        Returns the payload when the snapshot loads and verifies, and
        ``None`` when it is absent *or* corrupt — in the latter case the
        snapshot's artifacts are quarantined first, so the caller's
        "recompute when ``None``" branch also heals the store.
        """
        if not self.has(name):
            return None
        try:
            return self.load_json(name)
        except CheckpointError:
            self.quarantine(name)
            return None

    def salvage_arrays(self, name: str) -> Optional[Dict[str, np.ndarray]]:
        """Best-effort :meth:`load_arrays`; see :meth:`salvage_json`."""
        if not self.has_arrays(name):
            return None
        try:
            return self.load_arrays(name)
        except CheckpointError:
            self.quarantine(name)
            return None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def names(self) -> Iterator[str]:
        """Names of all JSON snapshots present (sorted)."""
        return iter(sorted(p.stem for p in self.directory.glob("*.json")))

    def clear(self) -> None:
        """Delete every snapshot of this run (JSON, NPZ, sidecars,
        quarantined artifacts)."""
        for pattern in (
            "*.json",
            "*.npz",
            "*.sha256",
            "*.quarantined",
            ".*.npz.tmp",
        ):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({str(self.directory)!r})"
