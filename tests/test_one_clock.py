"""Spans are the one clock: no hand-rolled timer in ``repro`` or its benches.

Every duration the library reports (``SolveResult.timings``, the
experiment tables, the bench reports) is read from a span, and the
benches in ``benchmarks/`` time through ``_best_of`` of
:mod:`repro.rrset.bench`, which times each run by a span; a
``perf_counter`` call in either would be a second clock.
"""

from pathlib import Path

import repro


def _perf_counter_calls(root: Path):
    files = sorted(root.rglob("*.py"))
    assert files, f"no Python files under {root}"
    return [
        f"{path.relative_to(root)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "perf_counter" in line
    ]


def test_no_perf_counter_in_the_package():
    assert _perf_counter_calls(Path(repro.__file__).resolve().parent) == []


def test_no_perf_counter_in_the_benchmarks():
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    assert _perf_counter_calls(benchmarks) == []
