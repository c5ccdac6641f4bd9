"""Unit tests for curve populations.

A population is stored as its distinct curves plus one label per node.
The per-node list it replaced is copied below as an oracle, and every
query, the spec that checkpoint keys hash included, must agree with it
exactly.
"""

import tracemalloc
import warnings
from typing import Dict, List

import numpy as np
import pytest

from repro.core.curves import (
    INSENSITIVE,
    LINEAR,
    SENSITIVE,
    ConcaveCurve,
    LinearCurve,
    LogisticCurve,
    PowerCurve,
    QuadraticCurve,
    SeedProbabilityCurve,
)
from repro.core.population import CurvePopulation, paper_mixture
from repro.exceptions import CurveError
from repro.utils.rng import as_generator


class PerUserPopulation:
    """The population as it was: one curve object per node, grouped by ``id``."""

    def __init__(self, curves):
        if not curves:
            raise CurveError("population must contain at least one curve")
        self._curves = list(curves)
        groups: Dict[int, List[int]] = {}
        self._group_curves = {}
        for node, curve in enumerate(self._curves):
            if not isinstance(curve, SeedProbabilityCurve):
                raise CurveError(
                    f"node {node}: expected SeedProbabilityCurve, got {type(curve).__name__}"
                )
            key = id(curve)
            if key not in groups:
                curve.validate()
                groups[key] = []
                self._group_curves[key] = curve
            groups[key].append(node)
        self._groups = {key: np.asarray(nodes, dtype=np.int64) for key, nodes in groups.items()}

    @classmethod
    def from_mixture(cls, num_nodes, mixture, seed=None):
        fractions = np.asarray([fraction for _, fraction in mixture], dtype=np.float64)
        counts = np.floor(fractions * num_nodes).astype(np.int64)
        counts[int(np.argmax(counts))] += num_nodes - int(counts.sum())
        assignment = []
        for (curve, _), count in zip(mixture, counts):
            assignment.extend([curve] * int(count))
        order = as_generator(seed).permutation(num_nodes)
        return cls([assignment[i] for i in order])

    def curve(self, node):
        return self._curves[node]

    def _each_group(self, fn):
        out = np.empty(len(self._curves), dtype=np.float64)
        for key, nodes in self._groups.items():
            out[nodes] = fn(self._group_curves[key], nodes)
        return out

    def probabilities(self, discounts):
        return self._each_group(lambda curve, nodes: curve(discounts[nodes]))

    def derivatives(self, discounts):
        return self._each_group(lambda curve, nodes: curve.derivative(discounts[nodes]))

    def probabilities_at(self, discount):
        return self._each_group(lambda curve, nodes: curve(discount))

    def spec(self):
        specs = []
        assignment = np.empty(len(self._curves), dtype=np.int64)
        for key, nodes in self._groups.items():
            spec = self._group_curves[key].spec()
            if spec not in specs:
                specs.append(spec)
            assignment[nodes] = specs.index(spec)
        return {"curves": specs, "assignment": assignment}

    def curve_counts(self):
        histogram = {}
        for key, nodes in self._groups.items():
            name = self._group_curves[key].name
            histogram[name] = histogram.get(name, 0) + int(nodes.size)
        return histogram


def _paper_entries(fractions=(0.85, 0.10, 0.05)):
    return list(zip((SENSITIVE, LINEAR, INSENSITIVE), fractions))


def _minority_first_seed():
    """A seed whose paper mixture puts node 0 on a minority curve."""
    for seed in range(100):
        if PerUserPopulation.from_mixture(40, _paper_entries(), seed=seed).curve(0) is not SENSITIVE:
            return seed
    raise AssertionError("no seed puts node 0 off the sensitive curve")


_TWIN = PowerCurve(3.0)
_CUSTOM = [PowerCurve(3.0), LogisticCurve(), _TWIN, LinearCurve(), _TWIN, PowerCurve(0.5), LINEAR]

MIXTURES = {
    "paper": (1000, _paper_entries(), 11),
    "table4": (997, _paper_entries((0.65, 0.20, 0.15)), 12),
    "one-node": (1, _paper_entries(), 13),
    "rounding": (7, _paper_entries(), 14),
    "object-listed-twice": (300, [(LINEAR, 0.3), (SENSITIVE, 0.4), (LINEAR, 0.3)], 15),
    "zero-fraction": (200, [(SENSITIVE, 0.5), (PowerCurve(2.0), 0.0), (INSENSITIVE, 0.5)], 16),
    "node-0-minority": (40, _paper_entries(), _minority_first_seed()),
}


def _assert_same_population(got, want, n):
    assert len(got) == got.num_nodes == n
    got_spec, want_spec = got.spec(), want.spec()
    assert got_spec["curves"] == want_spec["curves"]
    assert got_spec["assignment"].dtype == want_spec["assignment"].dtype
    assert np.array_equal(got_spec["assignment"], want_spec["assignment"])
    assert all(got.curve(node) is want.curve(node) for node in range(n))
    assert list(got.curve_counts().items()) == list(want.curve_counts().items())
    discounts = np.random.default_rng(n).uniform(0.0, 1.0, size=n)
    assert np.array_equal(got.probabilities(discounts), want.probabilities(discounts))
    assert np.array_equal(got.derivatives(discounts), want.derivatives(discounts))
    for discount in (0.0, 0.3, 1.0):
        assert np.array_equal(got.probabilities_at(discount), want.probabilities_at(discount))


class TestAgainstThePerUserList:
    @pytest.mark.parametrize("case", sorted(MIXTURES))
    def test_mixture_matches(self, case):
        n, mixture, seed = MIXTURES[case]
        got = CurvePopulation.from_mixture(n, mixture, seed=seed)
        _assert_same_population(got, PerUserPopulation.from_mixture(n, mixture, seed=seed), n)

    @pytest.mark.parametrize("case", sorted(MIXTURES))
    def test_sequence_of_the_same_curves_matches(self, case):
        n, mixture, seed = MIXTURES[case]
        curves = PerUserPopulation.from_mixture(n, mixture, seed=seed)._curves
        _assert_same_population(CurvePopulation(curves), PerUserPopulation(curves), n)

    def test_paper_mixture_matches(self):
        got = paper_mixture(2000, seed=5)
        _assert_same_population(
            got, PerUserPopulation.from_mixture(2000, _paper_entries(), seed=5), 2000
        )

    def test_node_0_on_a_minority_curve_leads_the_spec(self):
        n, mixture, seed = MIXTURES["node-0-minority"]
        population = CurvePopulation.from_mixture(n, mixture, seed=seed)
        assert population.spec()["curves"][0] == population.curve(0).spec()
        assert population.spec()["curves"][0] != SENSITIVE.spec()

    def test_custom_curves_with_equal_specs_share_an_index(self):
        curves = _CUSTOM * 3
        population = CurvePopulation(curves)
        _assert_same_population(population, PerUserPopulation(curves), len(curves))
        assignment = population.spec()["assignment"]
        assert assignment[0] == assignment[2]  # two PowerCurve(3.0) objects

    def test_uniform_matches(self):
        _assert_same_population(
            CurvePopulation.uniform(9, LINEAR), PerUserPopulation([LINEAR] * 9), 9
        )


class TestErrorsNameTheFirstBadNode:
    class Bad(LinearCurve):
        def _evaluate(self, c):
            return 0.5 * c

    @pytest.mark.parametrize(
        "curves",
        [
            [LINEAR, LINEAR, LINEAR, "not a curve", Bad(), "not a curve"],
            [LINEAR, SENSITIVE, Bad(), 7, LINEAR],
            [LINEAR] * 5 + [None] + [LINEAR] * 3,
        ],
        ids=["non-curve-first", "invalid-first", "none"],
    )
    def test_same_error_as_the_per_user_list(self, curves):
        with pytest.raises(CurveError) as want:
            PerUserPopulation(curves)
        with pytest.raises(CurveError) as got:
            CurvePopulation(curves)
        assert str(got.value) == str(want.value)

    def test_non_curve_in_a_mixture_names_its_first_node(self):
        mixture = [(LINEAR, 0.5), ("not a curve", 0.5)]
        with pytest.raises(CurveError) as want:
            PerUserPopulation.from_mixture(20, mixture, seed=1)
        with pytest.raises(CurveError) as got:
            CurvePopulation.from_mixture(20, mixture, seed=1)
        assert str(got.value) == str(want.value)


class TestMemory:
    def test_paper_mixture_of_a_million_users_peaks_under_32_mib(self):
        # The per-user list peaked at 74 MiB: a Python list of one
        # million curve references, built twice, and a node list per group.
        tracemalloc.start()
        try:
            population = paper_mixture(1_000_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert population.num_nodes == 1_000_000
        assert peak < 32 * 2**20


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fraction_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CurveError, match="mixture fractions"):
                CurvePopulation.from_mixture(10, [(LinearCurve(), bad), (ConcaveCurve(), 0.5)])
            with pytest.raises(CurveError, match="mixture fractions"):
                paper_mixture(10, sensitive_fraction=bad)

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
