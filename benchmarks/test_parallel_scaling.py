"""Benchmark: throughput scaling of the deterministic parallel engine.

Sweeps worker counts over RR-set polling and Monte-Carlo spread on the
synthetic scaling graph, asserts the engine's determinism cross-check,
and writes ``BENCH_parallel.json`` (schema documented in
``docs/performance.md``); ``python -m repro.rrset.bench --parallel`` runs
the same sweep from the command line.  The >1.5x speedup acceptance bar applies on
hosts with >= 4 physical cores; on smaller machines the sweep still runs
and records whatever the hardware gives.

Environment knobs:

* ``REPRO_BENCH_PARALLEL_SMOKE`` — non-empty: tiny CI-speed shape.
* ``REPRO_BENCH_PARALLEL_OUT``   — report path (default
  ``BENCH_parallel.json`` in the working directory).
"""

from __future__ import annotations

import os

from conftest import run_once

from repro.rrset.bench import (
    PARALLEL,
    PARALLEL_SMOKE,
    format_parallel_report,
    run_parallel_benchmark,
    write_report,
)

WORKERS = (1, 2, 4)
SMOKE_MODE = bool(os.environ.get("REPRO_BENCH_PARALLEL_SMOKE"))
OUT_PATH = os.environ.get("REPRO_BENCH_PARALLEL_OUT", "BENCH_parallel.json")


def test_parallel_scaling(benchmark):
    shape = PARALLEL_SMOKE if SMOKE_MODE else PARALLEL
    report = run_once(benchmark, run_parallel_benchmark, workers=WORKERS, **shape)
    write_report(report, OUT_PATH)
    print()
    print(format_parallel_report(report))
    print(f"wrote {OUT_PATH}")

    # The headline guarantee: every worker count produced the same bits.
    assert report["determinism"]["rr_identical"]
    assert report["determinism"]["spread_identical"]

    rr_rows = {row["workers"]: row for row in report["results"]["rr_sets"]}
    assert set(rr_rows) == set(WORKERS)
    cpus = report["machine"]["cpu_count"] or 1
    if cpus >= 4 and not SMOKE_MODE:
        # The ISSUE acceptance bar: >1.5x RR throughput at 4 workers.
        assert rr_rows[4]["speedup"] > 1.5, (
            f"expected >1.5x at 4 workers, got {rr_rows[4]['speedup']:.2f}x"
        )
