"""Unit tests for curve populations."""

import numpy as np
import pytest

from repro.core.curves import ConcaveCurve, LinearCurve, QuadraticCurve
from repro.core.population import CurvePopulation, paper_mixture
from repro.exceptions import CurveError


class TestConstruction:
    def test_uniform(self):
        pop = CurvePopulation.uniform(10, LinearCurve())
        assert pop.num_nodes == 10
        assert len(pop) == 10

    def test_empty_rejected(self):
        with pytest.raises(CurveError):
            CurvePopulation([])

    def test_non_curve_rejected(self):
        with pytest.raises(CurveError):
            CurvePopulation([LinearCurve(), "not a curve"])

    def test_invalid_curve_rejected(self):
        from repro.core.curves import CallableCurve

        with pytest.raises(CurveError):
            # CallableCurve validates at construction, so sneak in a raw
            # subclass violating the endpoint axiom.
            class Bad(LinearCurve):
                def _evaluate(self, c):
                    return 0.5 * c

            CurvePopulation([Bad()])

    def test_invalid_curve_on_last_node_rejected(self):
        class Bad(LinearCurve):
            def _evaluate(self, c):
                return 0.5 * c

        with pytest.raises(CurveError, match="p\\(1\\) must be 1"):
            CurvePopulation([LinearCurve()] * 50 + [Bad()])

    def test_each_distinct_curve_validated_once(self, monkeypatch):
        calls = []
        original = LinearCurve.validate

        def counting(self):
            calls.append(id(self))
            return original(self)

        monkeypatch.setattr(LinearCurve, "validate", counting)
        first, second = LinearCurve(), LinearCurve()
        CurvePopulation([first, second, first, second, first] * 40)
        assert sorted(calls) == sorted([id(first), id(second)])


class TestMixture:
    def test_paper_mixture_counts(self):
        pop = paper_mixture(1000, seed=1)
        counts = pop.curve_counts()
        assert counts["concave"] == 850
        assert counts["linear"] == 100
        assert counts["quadratic"] == 50

    def test_mixture_rounding_absorbed(self):
        pop = paper_mixture(7, seed=2)  # fractions don't divide 7 evenly
        assert sum(pop.curve_counts().values()) == 7

    def test_mixture_is_shuffled(self):
        pop = paper_mixture(1000, seed=3)
        # First 100 nodes should not all share one curve.
        names = {pop.curve(i).name for i in range(100)}
        assert len(names) > 1

    def test_mixture_deterministic(self):
        a = paper_mixture(100, seed=4)
        b = paper_mixture(100, seed=4)
        assert [a.curve(i).name for i in range(100)] == [
            b.curve(i).name for i in range(100)
        ]

    def test_invalid_fractions(self):
        with pytest.raises(CurveError):
            CurvePopulation.from_mixture(10, [(LinearCurve(), 0.5)])
        with pytest.raises(CurveError):
            CurvePopulation.from_mixture(
                10, [(LinearCurve(), 1.5), (ConcaveCurve(), -0.5)]
            )

    def test_table4_mixtures(self):
        pop = paper_mixture(
            100, sensitive_fraction=0.65, linear_fraction=0.20, insensitive_fraction=0.15,
            seed=5,
        )
        counts = pop.curve_counts()
        assert counts["concave"] == 65
        assert counts["linear"] == 20
        assert counts["quadratic"] == 15


class TestVectorizedEvaluation:
    def test_probabilities_match_per_node(self):
        pop = CurvePopulation([ConcaveCurve(), LinearCurve(), QuadraticCurve()])
        discounts = np.array([0.2, 0.5, 0.8])
        probs = pop.probabilities(discounts)
        assert probs[0] == pytest.approx(2 * 0.2 - 0.04)
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(0.64)

    def test_derivatives_match_per_node(self):
        pop = CurvePopulation([ConcaveCurve(), LinearCurve(), QuadraticCurve()])
        discounts = np.array([0.2, 0.5, 0.8])
        derivs = pop.derivatives(discounts)
        assert derivs[0] == pytest.approx(2 - 0.4)
        assert derivs[1] == pytest.approx(1.0)
        assert derivs[2] == pytest.approx(1.6)

    def test_probabilities_at_shared_discount(self):
        pop = CurvePopulation([ConcaveCurve(), LinearCurve(), QuadraticCurve()])
        probs = pop.probabilities_at(0.5)
        assert probs.tolist() == pytest.approx([0.75, 0.5, 0.25])

    def test_wrong_length_rejected(self):
        pop = CurvePopulation.uniform(3, LinearCurve())
        with pytest.raises(CurveError):
            pop.probabilities(np.zeros(4))
        with pytest.raises(CurveError):
            pop.derivatives(np.zeros(2))

    def test_group_vectorization_matches_scalar(self):
        """Group evaluation must agree with per-node scalar calls."""
        pop = paper_mixture(50, seed=6)
        rng = np.random.default_rng(7)
        discounts = rng.uniform(0, 1, size=50)
        vectorized = pop.probabilities(discounts)
        scalar = np.array([pop.curve(i)(float(discounts[i])) for i in range(50)])
        assert np.allclose(vectorized, scalar)


class TestPredicates:
    def test_all_insensitive(self):
        pop = CurvePopulation([QuadraticCurve(), LinearCurve()])
        assert pop.all_insensitive()

    def test_not_all_insensitive(self):
        pop = CurvePopulation([QuadraticCurve(), ConcaveCurve()])
        assert not pop.all_insensitive()
