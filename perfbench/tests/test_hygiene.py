"""Env scrubbing: no variable the program reads reaches a measured run."""

import subprocess
import sys
from pathlib import Path

from hygiene import PROGRAM_ENV_VARS, THREAD_ENV_VARS, cpu_steal_ticks, scrubbed_env

SOURCE = Path(__file__).resolve().parents[2] / "src"


def dirty_env():
    env = {name: "2" for name in PROGRAM_ENV_VARS}
    env.update(REPRO_FUTURE_KNOB="x", PATH="/usr/bin", PYTHONPATH="/elsewhere", OMP_NUM_THREADS="8")
    return env


def test_program_variables_removed_and_threads_pinned(tmp_path):
    env = scrubbed_env(dirty_env(), tmp_path / "src", tmp_path / "tmp")
    assert not any(name.startswith("REPRO_") for name in env)
    assert all(env[name] == "1" for name in THREAD_ENV_VARS)
    assert env["PYTHONPATH"] == str(tmp_path / "src")
    assert env["TMPDIR"] == str(tmp_path / "tmp")
    assert env["PATH"] == "/usr/bin"


def test_child_no_longer_sees_repro_workers(tmp_path):
    # resolve_workers(None) silently honours REPRO_WORKERS; a scrubbed
    # child must fall back to one worker.
    base = dict(dirty_env(), PATH="/usr/bin:/bin")
    env = scrubbed_env(base, SOURCE, tmp_path)
    code = (
        "from repro.parallel.pool import resolve_workers; "
        "import os; print(resolve_workers(None), os.environ.get('REPRO_TRACE'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "None"]


def test_steal_ticks_parse(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  10 0 5 100 1 0 0 7 0 0\ncpu0 1 2 3\n")
    assert cpu_steal_ticks(str(stat)) == 7
    assert cpu_steal_ticks(str(tmp_path / "missing")) is None
