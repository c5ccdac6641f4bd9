"""Deterministic guard on per-edge Python and hash-based dedup in graph ingest.

Reading an edge list used to make one ``GraphBuilder.add_edge`` call per
line, and the configuration model deduplicated its edge keys with
``np.unique``, which builds a hash table for integers before it sorts.
Both cost seconds at the benchmark shapes.  These tests count the calls
instead of timing them, so neither path can come back without notice.
"""

import numpy as np
import pytest

from repro.graphs import build
from repro.graphs.generators import powerlaw_configuration
from repro.graphs.io import read_edge_list
from repro.graphs.streaming import streaming_configuration_csr
from repro.obs import Tracer, observe


@pytest.fixture
def add_edge_calls(monkeypatch):
    """A one-element list holding the ``GraphBuilder.add_edge`` call count."""
    calls = [0]
    original = build.GraphBuilder.add_edge

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(build.GraphBuilder, "add_edge", counting)
    return calls


@pytest.fixture
def unique_calls(monkeypatch):
    """A one-element list holding the ``np.unique`` call count."""
    calls = [0]
    original = np.unique

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


def _edge_list(path, lines):
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 400, size=(lines, 2))
    probs = rng.random(lines)
    with path.open("w") as handle:
        handle.write("# a header comment\n")
        for i, ((u, v), p) in enumerate(zip(ids.tolist(), probs.tolist())):
            handle.write(f"{u}\t{v}\t{p:.6g}\n" if i % 3 == 0 else f"{u} {v}  # inline\n")
    return path


class TestReadEdgeList:
    @pytest.mark.parametrize("undirected", [False, True])
    def test_no_builder_call_per_edge(self, add_edge_calls, tmp_path, undirected):
        graph, _ = read_edge_list(_edge_list(tmp_path / "g.txt", 2000), undirected=undirected)
        assert graph.num_edges > 1000
        assert add_edge_calls[0] == 0

    def test_plain_file_takes_the_columnar_reader(self, tmp_path):
        tracer = Tracer()
        with observe(tracer=tracer):
            read_edge_list(_edge_list(tmp_path / "g.txt", 500))
        (root,) = tracer.roots
        assert root.name == "graphs.read"
        assert root.attrs["reader"] == "columns"
        assert [child.name for child in root.children] == ["graphs.build"]


class TestConfigurationDedup:
    @pytest.mark.parametrize("directed", [True, False])
    def test_streamed_build_makes_no_np_unique_call(self, unique_calls, tmp_path, directed):
        degrees = np.random.default_rng(99).integers(1, 12, size=3000)
        degrees[0] += degrees.sum() % 2
        streaming_configuration_csr(
            3000,
            degrees,
            np.random.default_rng(7),
            directed=directed,
            spill_dir=tmp_path,
            chunk=512,
            bucket_entries=1024,
        )
        assert unique_calls[0] == 0

    @pytest.mark.parametrize("directed", [True, False])
    def test_heap_build_makes_no_np_unique_call(self, unique_calls, directed):
        powerlaw_configuration(3000, average_degree=6.0, seed=3, directed=directed)
        assert unique_calls[0] == 0

    def test_configuration_span_nests_its_dedup(self):
        tracer = Tracer()
        with observe(tracer=tracer):
            graph = powerlaw_configuration(300, average_degree=4.0, seed=3)
        (root,) = tracer.roots
        assert root.name == "graphs.configuration"
        assert root.attrs["edges"] == graph.num_edges
        assert [child.name for child in root.children] == ["graphs.dedup"]
