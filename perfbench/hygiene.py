"""Run hygiene: a scrubbed environment per run and host diagnostics.

Each measurement runs in a fresh interpreter whose environment carries
none of the variables the program reads, pins the BLAS thread pools to
one thread and points temporary files into the run's own directory.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path
from typing import Dict, Mapping, Optional

__all__ = [
    "PROGRAM_ENV_VARS",
    "THREAD_ENV_VARS",
    "scrubbed_env",
    "cpu_steal_ticks",
    "diagnostics",
]

#: Every environment variable the program under test reads.  They are
#: removed, and so is anything else under the program's ``REPRO_`` prefix.
PROGRAM_ENV_VARS = (
    "REPRO_WORKERS",
    "REPRO_TRACE",
    "REPRO_METRICS_OUT",
    "REPRO_SLAB_DIR",
    "REPRO_SPILL_DIR",
)

#: Thread-pool sizes pinned to 1 so BLAS/OpenMP never oversubscribe the
#: host next to the sampling workers.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def scrubbed_env(base: Mapping[str, str], source_dir: Path, tmp_dir: Path) -> Dict[str, str]:
    """``base`` without the program's variables, with pinned threads.

    ``PYTHONPATH`` is replaced by ``source_dir`` alone so that no other
    installed copy of the package can shadow the checkout's sources.
    """
    env = {
        key: value
        for key, value in base.items()
        if key not in PROGRAM_ENV_VARS and not key.startswith("REPRO_")
    }
    for key in THREAD_ENV_VARS:
        env[key] = "1"
    env["PYTHONPATH"] = str(source_dir)
    env["PYTHONHASHSEED"] = "0"
    for key in ("TMPDIR", "TEMP", "TMP"):
        env[key] = str(tmp_dir)
    return env


def cpu_steal_ticks(stat_path: str = "/proc/stat") -> Optional[int]:
    """Host-wide CPU steal ticks (the 8th field of the ``cpu`` line)."""
    try:
        with open(stat_path, encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def diagnostics() -> Dict[str, object]:
    """Host facts recorded beside a run; never reported as metrics."""
    import numpy

    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "start_time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "steal_ticks": cpu_steal_ticks(),
        "loadavg": load,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
