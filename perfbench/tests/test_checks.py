"""Verification: every failed check is one failed operation."""

import math

import numpy as np
import pytest

from checks import (
    Ledger,
    check_counts,
    check_exact_counts,
    check_plan,
    check_spread,
    discount_digest,
    rr_estimate_stderr,
)

N, BUDGET = 5, 2.0


def test_feasible_plan_passes():
    assert check_plan([1.0, 0.5, 0.5, 0.0, 0.0], N, BUDGET, {"partial": False}) == []


@pytest.mark.parametrize(
    "discounts",
    [
        [1.0, 1.0, 0.5, 0.0, 0.0],  # over budget
        [1.5, 0.0, 0.0, 0.0, 0.0],  # above 1
        [-0.1, 0.5, 0.0, 0.0, 0.0],  # below 0
        [0.5, 0.5, 0.5, 0.5],  # wrong length
        [math.nan, 0.0, 0.0, 0.0, 0.0],  # not a number
    ],
)
def test_infeasible_plan_fails(discounts):
    assert check_plan(discounts, N, BUDGET, {}) != []


def test_partial_plan_fails_even_when_feasible():
    assert check_plan([0.5] * N, N, BUDGET + 1, {"partial": True}) != []


def test_adaptive_plan_must_be_certified():
    feasible = [0.5] * N
    certified = {"partial": False, "adaptive": {"stop_reason": "certified"}}
    assert check_plan(feasible, N, BUDGET + 1, certified, certified=True) == []
    for stop in ("stable", "max_theta"):
        extras = {"partial": False, "adaptive": {"stop_reason": stop}}
        assert check_plan(feasible, N, BUDGET + 1, extras, certified=True) != []
    assert check_plan(feasible, N, BUDGET + 1, {"partial": False}, certified=True) != []


def test_ledger_counts_failed_operations_without_dropping_them():
    ledger = Ledger()
    ledger.record("plan", check_plan([0.5] * N, N, BUDGET + 1, {}))
    ledger.record("plan", check_plan([1.0] * N, N, BUDGET, {}))
    ledger.record("plan", check_plan([0.2] * N, N, BUDGET, {"partial": True}))
    assert ledger.attempted == 3
    assert len(ledger.failures) == 2
    assert ledger.failures[0].startswith("plan: ")


def test_counts_must_match_the_seed():
    expected = {"nodes": 10, "edges": 30}
    assert check_counts(10, 30, expected) == []
    assert len(check_counts(9, 31, expected)) == 2


def test_spread_within_monte_carlo_error():
    assert check_spread(1000.0, 10.0, 1030.0, 5.0) == []
    assert check_spread(1000.0, 10.0, 1100.0, 5.0) != []
    assert check_spread(0.0, 10.0, 0.0, 5.0) != []
    assert check_spread(math.nan, 1.0, 1.0, 1.0) != []


def test_rr_stderr_is_the_bernoulli_bound():
    assert rr_estimate_stderr(250.0, 1000, 10_000) == pytest.approx(
        1000 * math.sqrt(0.25 * 0.75 / 10_000)
    )


def test_digest_is_bitwise():
    c = np.array([0.1, 0.2, 0.0])
    assert discount_digest(c) == discount_digest(c.copy())
    assert discount_digest(c) != discount_digest(np.nextafter(c, 1.0))


def test_exact_count_self_check():
    names = ("a_total", "b_total")
    same = check_exact_counts(names, {"a_total": 3}, {"a_total": 3, "b_total": 0}, ("x", "x"))
    assert same == []  # a missing counter reads as 0
    differ = check_exact_counts(names, {"a_total": 3}, {"a_total": 4}, ("x", "y"))
    assert len(differ) == 2
