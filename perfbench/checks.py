"""Output verification for the benchmark.

Every operation the benchmark times is checked here.  A check returns a
list of failure messages (empty when the output is correct); the caller
counts a non-empty list as one failed operation.  Nothing is dropped or
retried.  These functions take plain numbers and arrays so they can be
tested without running the pipeline.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Mapping

import numpy as np

__all__ = [
    "Ledger",
    "SUM_TOLERANCE",
    "SPREAD_SIGMAS",
    "check_plan",
    "check_counts",
    "check_spread",
    "check_exact_counts",
    "rr_estimate_stderr",
    "discount_digest",
]

#: Slack on the budget constraint for floating-point summation.
SUM_TOLERANCE = 1e-9

#: How many standard errors the Monte-Carlo spread may sit from its reference.
SPREAD_SIGMAS = 5.0


def check_plan(
    discounts, num_nodes: int, budget: float, extras: Mapping, certified: bool = False
) -> List[str]:
    """A plan is a length-``n`` vector in ``[0, 1]`` with ``sum <= B``, not partial.

    With ``certified``, the plan must also come from an adaptive solve that
    stopped on its certificate, not on stability or the theta ceiling.
    """
    failures = []
    c = np.asarray(discounts, dtype=np.float64)
    if c.shape != (num_nodes,):
        failures.append(f"configuration has shape {c.shape}, expected ({num_nodes},)")
        return failures
    if not np.all(np.isfinite(c)):
        failures.append("configuration has non-finite entries")
    elif c.min(initial=0.0) < 0.0 or c.max(initial=0.0) > 1.0:
        failures.append(
            f"discounts outside [0, 1]: min={c.min():.6g} max={c.max():.6g}"
        )
    total = float(c.sum())
    if not total <= budget + SUM_TOLERANCE:
        failures.append(f"sum of discounts {total:.9g} exceeds budget {budget}")
    if extras.get("partial"):
        failures.append("solve returned a partial result")
    if certified:
        stop = (extras.get("adaptive") or {}).get("stop_reason")
        if stop != "certified":
            failures.append(f"adaptive solve stopped with {stop!r}, not 'certified'")
    return failures


def check_counts(nodes: int, edges: int, expected: Mapping[str, int]) -> List[str]:
    """The graph the set-up built has the node and edge counts of its seed."""
    failures = []
    if nodes != expected["nodes"]:
        failures.append(f"graph has {nodes} nodes, expected {expected['nodes']}")
    if edges != expected["edges"]:
        failures.append(f"graph has {edges} edges, expected {expected['edges']}")
    return failures


def rr_estimate_stderr(estimate: float, num_nodes: int, theta: int) -> float:
    """Standard error of an RR-hypergraph spread estimate ``n * mean(x_h)``.

    Each hyper-edge contributes a value in ``[0, 1]`` with mean
    ``p = estimate / n``; its variance is at most ``p (1 - p)``.
    """
    p = min(max(estimate / num_nodes, 0.0), 1.0)
    return num_nodes * math.sqrt(p * (1.0 - p) / max(theta, 1))


def check_spread(
    mean: float, stderr: float, reference: float, reference_stderr: float
) -> List[str]:
    """The Monte-Carlo spread lies within ``SPREAD_SIGMAS`` joint errors of the reference."""
    if not (math.isfinite(mean) and mean > 0.0):
        return [f"spread {mean!r} is not a positive number"]
    sigma = math.hypot(stderr, reference_stderr)
    if abs(mean - reference) > SPREAD_SIGMAS * sigma:
        return [
            f"spread {mean:.6g} is {abs(mean - reference) / sigma:.1f} sigma from "
            f"reference {reference:.6g} (sigma={sigma:.4g})"
        ]
    return []


def check_exact_counts(
    names, first: Mapping[str, int], second: Mapping[str, int], digests: tuple
) -> List[str]:
    """Two traced plans of one seed agree on every named counter and on the plan."""
    failures = [
        f"{name}: {first.get(name, 0)} != {second.get(name, 0)}"
        for name in names
        if first.get(name, 0) != second.get(name, 0)
    ]
    if digests[0] != digests[1]:
        failures.append("the two plans differ")
    return failures


def discount_digest(discounts) -> str:
    """sha256 of the discount vector as little-endian float64 bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(discounts, dtype="<f8").tobytes()
    ).hexdigest()


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, what: str, failures: List[str]) -> None:
        """Count one operation; a non-empty ``failures`` makes it a failed one."""
        self.attempted += 1
        if failures:
            self.failures.append(f"{what}: " + "; ".join(failures))
