"""Pipeline benchmark: set-up, plan and evaluate, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement runs ``pipeline.py``
in a fresh interpreter with a scrubbed environment and its own slab,
spill and temp directory under ``.perfbench/``, removed afterwards.  The
edge list of the edge-list workload is written beforehand by a separate,
unmeasured interpreter.

``--trace 0`` reports the end-to-end metrics of one untraced run.
``--trace 1`` runs the workload traced, prints the per-layer span table
and reports the per-layer metrics; a second traced run of the same seed
(at one worker) must reproduce the program's exact counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Host diagnostics
go to the line before it and to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_exact_counts  # noqa: E402
from hygiene import cpu_steal_ticks, diagnostics, scrubbed_env  # noqa: E402
from layers import PER_LAYER_UNITS, format_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and their units, reported by every untraced run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "plan_s": "s",
    "end_to_end_s": "s",
    "peak_rss_mb": "MiB",
    "spread": "users",
}

#: Wall-clock limit of one invocation, leaving headroom under 180 s.
RUN_LIMIT_S = 170.0

#: The program's counters that must repeat exactly for a fixed seed, at
#: any worker count (the exact-count self-check).
SELF_CHECK_COUNTERS = (
    "rrset.nodes_sampled_total",
    "cd.pair_evals_total",
    "objective.full_scans_total",
    "adaptive.sampled_hyperedges_total",
    "storage.spill_bytes_total",
    "gradient.objective_evals_total",
)


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, args, workers: int, work: Path, deadline: float) -> dict:
    """Run one measurement in a fresh interpreter; stop its whole process group."""
    run_dir = work / mode
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    out = run_dir / "result.json"
    command = [
        sys.executable,
        str(HERE / "pipeline.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workers", str(workers),
        "--run-dir", str(run_dir),
        "--out", str(out),
        "--edge-list", str(work / "edges.txt"),
    ]
    env = scrubbed_env(os.environ, ROOT / "src", tmp)
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child's pool workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise ChildFailed(f"{mode} run exceeded the {RUN_LIMIT_S:.0f} s limit")
    if code != 0:
        raise ChildFailed(f"{mode} run exited with code {code}")
    return json.loads(out.read_text())


def untraced(args, work: Path, deadline: float):
    w = WORKLOADS[args.workload]
    outcome = run_child("untraced", args, w.workers, work, deadline)
    metrics = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    return outcome["attempted"], outcome["failures"], metrics, outcome


def traced(args, work: Path, deadline: float):
    w = WORKLOADS[args.workload]
    first = run_child("traced", args, w.workers, work, deadline)
    second = run_child("counts", args, 1, work, deadline)
    print(format_table(first["table"]))
    failures = list(first["failures"]) + list(second["failures"])
    mismatches = check_exact_counts(
        SELF_CHECK_COUNTERS,
        first["plan_counters"],
        second["plan_counters"],
        (first["digest"], second["digest"]),
    )
    if mismatches:
        failures.append(
            f"exact-count self-check (workers={w.workers} vs workers=1): " + "; ".join(mismatches)
        )
    attempted = first["attempted"] + second["attempted"] + 1
    metrics = {
        name: {"value": first["metrics"][name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    details = {
        "plan_s": first["plan_s"],
        "digest": first["digest"],
        "self_check": {name: first["plan_counters"].get(name, 0) for name in SELF_CHECK_COUNTERS},
    }
    return attempted, failures, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    # A terminated benchmark still stops its measurement (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    host = diagnostics()
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if WORKLOADS[args.workload].source == "edgelist":
            run_child("prepare", args, 1, work, deadline)
        attempted, failures, metrics, details = (traced if args.trace else untraced)(
            args, work, deadline
        )
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steal = cpu_steal_ticks()
    if steal is not None and host["steal_ticks"] is not None:
        host["steal_ticks_during_run"] = steal - host["steal_ticks"]
    if not args.trace:
        host["wall_s"] = details["wall"]
        host["kernel_s"] = details["kernel_s"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "diagnostics": host,
        "failures": failures,
        "details": details,
        "metrics": metrics,
    }
    with open(base / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("# diagnostics " + json.dumps(host, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
