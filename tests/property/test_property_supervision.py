"""Property tests for the supervised pool's partial-result contract.

Invariant (ISSUE satellite): for *any* schedule of worker faults, a run
under ``on_poison_chunk="partial"`` returns a prefix-closed subset of the
fault-free chunk sequence — chunk ``k`` is kept only if chunks ``0..k-1``
are kept, and every kept chunk is bit-identical to its fault-free twin.

A worker exit breaks the pool, and the coordinator cannot tell which
chunk killed it, so every chunk in flight is charged one attempt (the
supervisor's attribution note).  A chunk that was not in flight is never
charged for a broken pool; the prefix test audits that rule on every run.

Examples are capped low because every pooled example forks real worker
processes; the chaos suite covers the targeted deep scenarios.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PoisonChunkError
from repro.parallel import run_chunks
from repro.parallel.supervisor import _Supervisor
from repro.runtime import FaultInjector

BROKEN_POOL = "lost with broken pool"

CHUNKS = [(i * 4, 4) for i in range(6)]


def _cube_chunk(payload, start, size, remaining):
    """Module-level task (must cross process boundaries)."""
    return [payload + (start + i) ** 3 for i in range(size)]


_BASELINE = None


def _baseline():
    global _BASELINE
    if _BASELINE is None:
        _BASELINE, expired = run_chunks(_cube_chunk, 1, CHUNKS, workers=1)
        assert expired is False
    return _BASELINE


@contextmanager
def _audit_broken_pool_charges():
    """Yield a list that collects chunks charged for a broken pool while
    not in flight.  A broken-pool charge follows the collection of the
    finished futures, so the chunks in flight are those pending when that
    collection starts."""
    collect_done, charge = _Supervisor._collect_done, _Supervisor._charge
    in_flight = set()
    strays = []

    def audited_collect_done(self, done):
        in_flight.clear()
        in_flight.update(self.pending.values())
        return collect_done(self, done)

    def audited_charge(self, index, cause):
        if cause == BROKEN_POOL and index not in in_flight:
            strays.append(index)
        return charge(self, index, cause)

    with mock.patch.object(_Supervisor, "_collect_done", audited_collect_done):
        with mock.patch.object(_Supervisor, "_charge", audited_charge):
            yield strays


fault_schedules = st.dictionaries(
    keys=st.integers(min_value=0, max_value=len(CHUNKS) - 1),
    values=st.sampled_from(["raise", "exit"]),
    max_size=3,
)


class TestPartialPrefixClosure:
    @given(schedule=fault_schedules, retries=st.integers(min_value=0, max_value=1))
    @settings(max_examples=10, deadline=None)
    def test_kept_chunks_are_a_bit_identical_prefix(self, schedule, retries):
        baseline = _baseline()
        supervision = {
            "max_chunk_retries": retries,
            "on_poison_chunk": "partial",
            "max_pool_restarts": 10,
        }
        error = None
        with _audit_broken_pool_charges() as strays:
            try:
                with FaultInjector(
                    process_faults={"parallel.chunk": schedule},
                    process_fault_attempts=(0, 1, 2, 3, 4),
                ):
                    results, expired = run_chunks(
                        _cube_chunk, 1, CHUNKS, workers=2, supervision=supervision
                    )
            except PoisonChunkError as exc:
                error = exc
        assert strays == [], f"charged for a broken pool while not in flight: {strays}"
        if error is not None:
            # Only legal when the quarantine left no salvageable prefix,
            # so chunk 0 was quarantined.  The error names the first chunk
            # quarantined and its causes: that chunk was poisoned itself,
            # or every attempt it was charged was a broken pool's charge
            # (a worker exit elsewhere while it was in flight).
            assert "no salvageable prefix" in str(error)
            charges = error.causes[:-1]
            assert error.chunk_index in schedule or (
                charges and all(cause == BROKEN_POOL for cause in charges)
            ), (schedule, error.chunk_index, error.causes)
            return
        # Prefix-closed subset of the fault-free sequence, bit-identical.
        assert results == baseline[: len(results)]
        # Truncation is reported iff something was actually dropped.
        assert expired is (len(results) < len(baseline))

    @given(schedule=fault_schedules)
    @settings(max_examples=5, deadline=None)
    def test_single_attempt_faults_always_recover_fully(self, schedule):
        # Default attempts=(0,): every fault fires once, every retry is
        # clean, so the default policy completes the whole plan exactly.
        with FaultInjector(process_faults={"parallel.chunk": schedule}):
            results, expired = run_chunks(_cube_chunk, 1, CHUNKS, workers=2)
        assert expired is False
        assert results == _baseline()
