"""Spans are the library's one clock: no hand-rolled timer in ``repro``.

Every duration the library reports (``SolveResult.timings``, the
experiment tables, the bench reports) is read from a span; a
``perf_counter`` call in the package would be a second clock.
"""

from pathlib import Path

import repro


def test_no_perf_counter_in_the_package():
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "perf_counter" in line
    ]
    assert offenders == []
