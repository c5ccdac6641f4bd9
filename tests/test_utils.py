"""Unit tests for the shared utility layer."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.stats import RunningStat, mean_confidence_interval
from repro.obs.tracer import Tracer
from repro.utils.timing import TimingBreakdown, span_timings


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_generator(g) is g

    def test_spawn_independent_streams(self):
        children = spawn_generators(7, 3)
        draws = [g.random(4).tolist() for g in children]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_deterministic(self):
        a = [g.random(3).tolist() for g in spawn_generators(9, 2)]
        b = [g.random(3).tolist() for g in spawn_generators(9, 2)]
        assert a == b

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)

    def test_spawn_zero(self):
        assert spawn_generators(1, 0) == []


class TestRunningStat:
    def test_mean_and_variance(self):
        stat = RunningStat()
        for value in (2.0, 4.0, 6.0, 8.0):
            stat.add(value)
        assert stat.count == 4
        assert stat.mean == pytest.approx(5.0)
        assert stat.variance == pytest.approx(np.var([2, 4, 6, 8], ddof=1))

    def test_add_many_matches_add(self):
        values = np.random.default_rng(2).normal(size=100)
        one_by_one = RunningStat()
        for value in values:
            one_by_one.add(float(value))
        batched = RunningStat()
        batched.add_many(values[:37])
        batched.add_many(values[37:])
        assert batched.mean == pytest.approx(one_by_one.mean)
        assert batched.variance == pytest.approx(one_by_one.variance)

    def test_add_many_empty(self):
        stat = RunningStat()
        stat.add_many([])
        assert stat.count == 0

    def test_variance_needs_two_samples(self):
        import math

        stat = RunningStat()
        stat.add(3.0)
        # Sample variance is undefined with one observation: reporting 0.0
        # would claim perfect certainty, so it is NaN until count >= 2.
        assert math.isnan(stat.variance)
        assert math.isnan(stat.stddev)
        assert math.isnan(stat.stderr)

    def test_empty_stderr_infinite(self):
        assert RunningStat().stderr == float("inf")

    def test_confidence_interval_contains_mean(self):
        stat = RunningStat()
        stat.add_many([1.0, 2.0, 3.0])
        lo, hi = stat.confidence_interval()
        assert lo <= stat.mean <= hi

    def test_mean_confidence_interval_helper(self):
        mean, lo, hi = mean_confidence_interval(np.array([1.0, 2.0, 3.0]))
        assert mean == pytest.approx(2.0)
        assert lo < mean < hi


class TestTiming:
    def test_as_millis(self):
        breakdown = TimingBreakdown({"x": 0.5})
        assert breakdown.as_millis() == {"x": 500.0}

    def test_span_timings_split(self):
        """Outermost build spans are the build, the rest is the phase."""
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("call") as root:  # 0 .. 9
            with tracer.span("hypergraph.build"):  # 1 .. 4
                with tracer.span("rrset.sample"):  # 2 .. 3, inside a build
                    pass
            with tracer.span("solver.ud"):  # 5 .. 6
                pass
            with tracer.span("hypergraph.extend"):  # 7 .. 8
                pass
        timings = span_timings(root, "cd", sampled=True)
        assert timings.phases == {"hypergraph": 4.0, "cd": 5.0}
        assert timings.total == root.duration == 9.0
        assert span_timings(root, "cd", sampled=False).phases == {"cd": 5.0}


class TestRunningStatValidation:
    """The estimator edge cases fixed alongside the parallel engine."""

    def test_add_rejects_nan_and_inf(self):
        from repro.exceptions import EstimationError

        for bad in (float("nan"), float("inf"), float("-inf")):
            stat = RunningStat()
            with pytest.raises(EstimationError):
                stat.add(bad)
            assert stat.count == 0  # nothing was absorbed

    def test_add_many_rejects_nan_with_index(self):
        from repro.exceptions import EstimationError

        stat = RunningStat()
        with pytest.raises(EstimationError, match="index 2"):
            stat.add_many([1.0, 2.0, float("nan"), 4.0])

    def test_add_many_rejects_inf_in_array(self):
        from repro.exceptions import EstimationError

        stat = RunningStat()
        with pytest.raises(EstimationError):
            stat.add_many(np.array([1.0, float("inf")]))

    def test_add_many_consumes_generators_without_list(self):
        stat = RunningStat()
        stat.add_many(float(i) for i in range(5))
        assert stat.count == 5
        assert stat.mean == 2.0

    def test_add_many_empty_is_noop(self):
        stat = RunningStat()
        stat.add_many([])
        stat.add_many(iter([]))
        assert stat.count == 0


class TestRunningStatMerge:
    def test_merge_matches_sequential_add(self):
        left, right, combined = RunningStat(), RunningStat(), RunningStat()
        a, b = [1.0, 2.5, -3.0, 7.5], [0.5, 0.5, 10.0]
        left.add_many(a)
        right.add_many(b)
        combined.add_many(a + b)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean, rel=1e-12)
        assert left.variance == pytest.approx(combined.variance, rel=1e-12)

    def test_merge_into_empty_copies(self):
        left, right = RunningStat(), RunningStat()
        right.add_many([1.0, 2.0, 3.0])
        left.merge(right)
        assert (left.count, left.mean) == (3, 2.0)
        assert left.variance == pytest.approx(1.0)

    def test_merge_of_empty_is_noop(self):
        left, right = RunningStat(), RunningStat()
        left.add_many([1.0, 2.0])
        before = (left.count, left.mean, left.variance)
        left.merge(right)
        assert (left.count, left.mean, left.variance) == before

    def test_merge_leaves_other_untouched(self):
        left, right = RunningStat(), RunningStat()
        left.add(1.0)
        right.add_many([5.0, 7.0])
        left.merge(right)
        assert right.count == 2
        assert right.mean == 6.0

    @pytest.mark.parametrize("trial", range(20))
    def test_property_chan_merge_matches_sequential_add(self, trial):
        """Property test: for random partitions of random samples (wild
        scales and offsets included), merging per-part accumulators in
        order agrees with one-by-one `add` at float64 tolerance."""
        rng = np.random.default_rng(1000 + trial)
        total = int(rng.integers(2, 400))
        scale = 10.0 ** rng.integers(-6, 7)
        offset = float(rng.normal()) * scale * 10.0
        samples = rng.normal(loc=offset, scale=scale, size=total)

        sequential = RunningStat()
        for value in samples:
            sequential.add(float(value))

        cuts = np.sort(rng.integers(0, total + 1, size=int(rng.integers(1, 8))))
        merged = RunningStat()
        for part in np.split(samples, cuts):
            chunk = RunningStat()
            chunk.add_many(part)
            merged.merge(chunk)

        assert merged.count == sequential.count == total
        assert merged.mean == pytest.approx(sequential.mean, rel=1e-10, abs=1e-12)
        assert merged.variance == pytest.approx(
            sequential.variance, rel=1e-8, abs=1e-12
        )
