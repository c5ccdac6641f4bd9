"""Host-speed normalisation of the end-to-end timings.

On the 2-vCPU VM the benchmark was sized on, the same single-thread code
runs at speeds up to 2x apart, in spells that last from seconds to many
minutes.  Thread CPU time moves with wall time, so neither clock removes
the swing, and no run length can average over spells that outlast it.

So every untraced run measures the host's speed while it measures the
program.  One sampler process per CPU the run uses, pinned to that CPU,
wakes every ``TICK_S`` seconds and runs a fixed pure-Python kernel,
timing it by its own thread CPU time.  That time does not count the
moments the sampler waits for the CPU, so a tick reads how fast that CPU
executes code at that moment.  The ticks cost the measured process about
3% of its CPU, the same on every commit.

Each timed sample is then scaled by ``REFERENCE_KERNEL_S / k``, where
``k`` is the median kernel time of the ticks inside the sample's
interval, padded by ``PAD_S`` on both sides so a sub-second sample still
holds several ticks.  The result reads as seconds at the reference speed.
Over 150 s of back-to-back ``lj-mmap-ud`` cycles on the sizing host, the
standard deviation of log time went from 0.135 to 0.051 for set-up and
from 0.163 to 0.043 for the plan.

Run as a script, this module is the sampler:

    python3 speed.py --cpu N --out FILE
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "KERNEL_ITERATIONS",
    "TICK_S",
    "PAD_S",
    "REFERENCE_KERNEL_S",
    "kernel_s",
    "measured_cpus",
    "read_ticks",
    "speed_factor",
    "Samplers",
]

#: Loop iterations of the kernel, a few milliseconds of interpreter work.
KERNEL_ITERATIONS = 50_000

#: Seconds between the starts of two ticks of one sampler.
TICK_S = 0.15

#: Seconds by which a sample's interval is widened on each side when
#: its ticks are gathered.
PAD_S = 0.5

#: Kernel CPU time that normalised timings are expressed at: the median
#: tick of the sizing host's usual state.
REFERENCE_KERNEL_S = 0.005

Tick = Tuple[float, float]  # (perf_counter at the tick's start, kernel CPU seconds)


def kernel_s() -> float:
    """Thread CPU seconds of one run of the fixed kernel."""
    start = time.thread_time()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i
    return time.thread_time() - start


def read_ticks(path: Path) -> List[Tick]:
    """The ticks a sampler wrote; a line cut short by its stop is skipped."""
    ticks = []
    for line in path.read_text(encoding="ascii").splitlines():
        fields = line.split()
        if len(fields) == 2:
            try:
                ticks.append((float(fields[0]), float(fields[1])))
            except ValueError:
                continue
    return ticks


def measured_cpus(workers: int) -> List[int]:
    """The CPUs a run samples.  A one-worker run is pinned to the first of them."""
    cpus = sorted(os.sched_getaffinity(0))
    if workers == 1:
        os.sched_setaffinity(0, {cpus[0]})
        return cpus[:1]
    return cpus


def speed_factor(start: float, end: float, ticks: Sequence[Tick]) -> float:
    """``REFERENCE_KERNEL_S`` over the median tick in ``[start - PAD_S, end + PAD_S]``."""
    inside = [k for t, k in ticks if start - PAD_S <= t <= end + PAD_S]
    if not inside:
        raise RuntimeError(
            f"no host-speed ticks between {start:.3f} and {end:.3f}; the sampler stopped"
        )
    return REFERENCE_KERNEL_S / statistics.median(inside)


class Samplers:
    """One pinned sampler process per CPU, for the duration of a ``with`` block."""

    def __init__(self, cpus: Sequence[int], directory: Path) -> None:
        self.paths: Dict[int, Path] = {cpu: directory / f"ticks-cpu{cpu}.txt" for cpu in cpus}
        self.procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Samplers":
        for cpu, path in self.paths.items():
            self.procs.append(
                subprocess.Popen(
                    [sys.executable, __file__, "--cpu", str(cpu), "--out", str(path)],
                    stdout=subprocess.DEVNULL,
                )
            )
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()

    def ticks(self) -> List[Tick]:
        return [tick for path in self.paths.values() if path.is_file() for tick in read_ticks(path)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Host-speed sampler pinned to one CPU.")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    with open(args.out, "w", encoding="ascii", buffering=1) as out:
        while True:
            started = time.perf_counter()
            out.write(f"{started:.6f} {kernel_s():.9f}\n")
            time.sleep(max(0.0, TICK_S - (time.perf_counter() - started)))


if __name__ == "__main__":
    sys.exit(main())
