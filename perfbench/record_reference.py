"""Record the reference spread of each workload for a range of seeds.

    PYTHONPATH=src python3 perfbench/record_reference.py --workload NAME --seeds 1-10

For each seed this builds the workload's plan exactly as a benchmark run
does, then estimates its spread by Monte Carlo with ``REFERENCE_FACTOR``
times the run's samples and an evaluation seed independent of the run's.  The
result is merged into ``perfbench/reference.json`` with the sha256 of
the plan's discount vector; a benchmark run of a recorded seed must land
within ``checks.SPREAD_SIGMAS`` joint standard errors of the spread, and
reports whether its plan is bit-identical to the recorded one.  Record
again after a change that alters plans on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import discount_digest  # noqa: E402
from pipeline import REFERENCE_FILE, UNTRACED, Dirs, plan, prepare, set_up  # noqa: E402
from workloads import WORKLOADS, derived_seeds  # noqa: E402

#: Monte-Carlo samples of a reference, as a multiple of a run's samples.
REFERENCE_FACTOR = 4


def seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    plans = {}  # a workload with a fixed plan_seed plans once for all seeds
    scratch = REFERENCE_FILE.parents[1] / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        dirs = Dirs.under(Path(tmp))
        prepare(w, dirs)
        for seed in args.seeds:
            seeds = derived_seeds(w, seed)
            key = (seeds["population"], seeds["sample"])
            if key not in plans:
                plans.clear()
                problem = set_up(w, seeds, dirs, UNTRACED)
                plans[key] = (problem, plan(w, problem, seeds, dirs, w.workers, UNTRACED))
            problem, result = plans[key]
            estimate = problem.evaluate(
                result.configuration,
                num_samples=w.eval_samples * REFERENCE_FACTOR,
                seed=seeds["reference"],
                workers=1,
            )
            digest = discount_digest(result.configuration.discounts)
            table.setdefault(w.name, {})[str(seed)] = {
                "spread": float(estimate.mean),
                "stderr": float(estimate.stderr),
                "samples": int(estimate.num_samples),
                "digest": digest,
            }
            print(f"{w.name} seed={seed} spread={estimate.mean:.2f} stderr={estimate.stderr:.2f}")
            REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        plans.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
