"""Deterministic guard on Python-level ``np.memmap`` indexing in hot loops.

Every ``np.memmap.__getitem__`` call runs in Python (plus an
``__array_finalize__`` for each view it returns).  On the out-of-core
path the spill arrays are memmaps, so a loop that indexes them per
element or per node pays that cost millions of times at the
com-LiveJournal shape.  These tests count the calls instead of timing
them: the streamed graph build makes a bounded number per chunk, and the
sampling and coverage kernels make none at all on spill-backed inputs.
"""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.linear_threshold import LinearThreshold
from repro.diffusion.triggering import TriggeringModel
from repro.graphs.generators import powerlaw_configuration
from repro.graphs.streaming import STREAM_CHUNK, streaming_configuration_csr
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset.coverage import weighted_max_coverage
from repro.rrset.hypergraph import RRHypergraph
from repro.utils.spill import is_spill_backed


@pytest.fixture
def memmap_calls(monkeypatch):
    """A one-element list holding the ``np.memmap.__getitem__`` call count."""
    calls = [0]
    original = np.memmap.__getitem__

    def counting(self, index):
        calls[0] += 1
        return original(self, index)

    monkeypatch.setattr(np.memmap, "__getitem__", counting)
    return calls


def _degrees(n: int) -> np.ndarray:
    degrees = np.random.default_rng(99).integers(1, 12, size=n)
    if degrees.sum() % 2 == 1:
        degrees[0] += 1
    return degrees


def _streamed_build_calls(memmap_calls, n, directed, spill_dir, chunk) -> int:
    memmap_calls[0] = 0
    streaming_configuration_csr(
        n,
        _degrees(n),
        np.random.default_rng(7),
        directed=directed,
        spill_dir=spill_dir,
        chunk=chunk,
    )
    return memmap_calls[0]


class TestStreamedBuild:
    @pytest.mark.parametrize("directed", [True, False])
    def test_calls_do_not_grow_with_stub_count(self, memmap_calls, tmp_path, directed):
        # One chunk per pass at the default chunk size: the count is a
        # constant, although the second graph has ten times the stubs.
        small = _streamed_build_calls(memmap_calls, 300, directed, tmp_path, STREAM_CHUNK)
        large = _streamed_build_calls(memmap_calls, 3000, directed, tmp_path, STREAM_CHUNK)
        assert small == large
        assert large < 64

    @pytest.mark.parametrize("directed", [True, False])
    def test_calls_are_linear_in_chunks(self, memmap_calls, tmp_path, directed):
        chunk = 256
        stubs = int(_degrees(3000).sum())
        chunks = -(-stubs // chunk)
        calls = _streamed_build_calls(memmap_calls, 3000, directed, tmp_path, chunk)
        # About a dozen slices per chunk over all passes; one per stub
        # would be ~18k.
        assert calls <= 16 * chunks


@pytest.fixture(scope="module")
def spill_graph(tmp_path_factory):
    spill_dir = tmp_path_factory.mktemp("spill")
    graph = powerlaw_configuration(
        400, average_degree=6.0, seed=5, directed=True, backing="mmap", spill_dir=spill_dir
    )
    graph = assign_weighted_cascade(graph, alpha=1.0)
    assert is_spill_backed(graph.in_sources) and is_spill_backed(graph.out_targets)
    return graph, spill_dir


MODELS = [IndependentCascade, LinearThreshold, TriggeringModel]


class TestKernels:
    @pytest.mark.parametrize("model_cls", MODELS, ids=lambda cls: cls.__name__)
    def test_sample_rr_set_makes_no_memmap_slices(self, memmap_calls, spill_graph, model_cls):
        model = model_cls(spill_graph[0])
        rng = np.random.default_rng(1)
        memmap_calls[0] = 0
        reached = sum(model.sample_rr_set(root, rng).size for root in range(0, 400, 4))
        assert reached > 100  # the walks visited many nodes
        assert memmap_calls[0] == 0

    @pytest.mark.parametrize("model_cls", MODELS, ids=lambda cls: cls.__name__)
    def test_rr_sampler_makes_no_memmap_slices(self, memmap_calls, spill_graph, model_cls):
        # IC's block-drawn sampler and the default hook on LT and triggering.
        model = model_cls(spill_graph[0])
        memmap_calls[0] = 0
        sample = model.rr_sampler(np.random.default_rng(1))
        reached = sum(len(sample(root)) for root in range(0, 400, 4))
        assert reached > 100
        assert memmap_calls[0] == 0

    @pytest.mark.parametrize("model_cls", MODELS, ids=lambda cls: cls.__name__)
    def test_sample_cascade_makes_no_memmap_slices(self, memmap_calls, spill_graph, model_cls):
        model = model_cls(spill_graph[0])
        rng = np.random.default_rng(2)
        memmap_calls[0] = 0
        activated = sum(model.sample_cascade([seed], rng).size for seed in range(0, 400, 4))
        assert activated > 100
        assert memmap_calls[0] == 0

    def test_weighted_max_coverage_makes_no_memmap_slices(self, memmap_calls, spill_graph):
        graph, spill_dir = spill_graph
        hypergraph = RRHypergraph.build(
            IndependentCascade(graph), 800, seed=3, backing="mmap", spill_dir=spill_dir
        )
        assert is_spill_backed(hypergraph.node_edges)
        probs = np.random.default_rng(4).uniform(0.1, 1.0, size=graph.num_nodes)
        memmap_calls[0] = 0
        result = weighted_max_coverage(hypergraph, probs, 25)
        assert len(result.seeds) == 25
        assert memmap_calls[0] == 0
