"""End-to-end integration tests across subsystems.

Each test exercises a realistic pipeline: dataset -> disk store ->
index -> application, including persistence round-trips and live
updates flowing through both the store and the index together.
"""

import pytest

from repro.apps import (
    EdgeQueryEngine,
    average_clustering,
    edge_iterator_count,
    trigon_count,
)
from repro.core import (
    GraphNeighborFetch,
    HybPlusVend,
    load_index,
    save_index,
    vend_score,
)
from repro.datasets import load
from repro.graph import read_edge_list, write_edge_list
from repro.storage import GraphStore
from repro.workloads import (
    common_neighbor_pairs,
    random_pairs,
    sample_deletions,
    sample_insertions,
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """dataset analogue -> edge list file -> store + index on disk."""
    tmp = tmp_path_factory.mktemp("pipeline")
    graph = load("as-sk", scale=0.06)
    edge_file = tmp / "graph.txt"
    write_edge_list(graph, edge_file)
    reloaded = read_edge_list(edge_file)
    store = GraphStore(tmp / "adjacency.log")
    store.bulk_load(reloaded)
    vend = HybPlusVend(k=4)
    vend.build(reloaded)
    index_file = tmp / "index.vend"
    save_index(vend, index_file)
    return reloaded, store, load_index(index_file)


class TestPipeline:
    def test_edge_list_roundtrip_preserved_graph(self, pipeline):
        graph, store, _ = pipeline
        for v in list(graph.vertices())[:30]:
            assert store.get_neighbors(v) == graph.sorted_neighbors(v)

    def test_persisted_index_filters_store_queries(self, pipeline):
        graph, store, vend = pipeline
        pairs = random_pairs(graph, 3000, seed=80)
        store.stats.reset()
        engine = EdgeQueryEngine(store, vend)
        for u, v in pairs:
            assert engine.has_edge(u, v) == graph.has_edge(u, v)
        assert engine.stats.filter_rate > 0.5

    def test_scores_on_both_workloads(self, pipeline):
        graph, _, vend = pipeline
        for pairs in (
            random_pairs(graph, 3000, seed=81),
            common_neighbor_pairs(graph, 3000, seed=82),
        ):
            report = vend_score(vend, graph, pairs)
            assert report.false_positives == 0
            assert report.score > 0.3

    def test_triangle_counters_agree(self, pipeline, tmp_path):
        graph, store, vend = pipeline
        a = edge_iterator_count(store).triangles
        b = edge_iterator_count(store, vend).triangles
        c = trigon_count(store, tmp_path / "w", 2000).triangles
        d = trigon_count(store, tmp_path / "w2", 2000, vend=vend).triangles
        assert a == b == c == d

    def test_clustering_consistent(self, pipeline):
        graph, store, vend = pipeline
        sample = sorted(graph.vertices())[:40]
        plain = average_clustering(store, vertices=sample)
        fast = average_clustering(store, vend, vertices=sample)
        assert fast.coefficient == pytest.approx(plain.coefficient)


class TestLiveUpdates:
    def test_store_and_index_stay_in_sync(self, tmp_path):
        graph = load("wiki", scale=0.04)
        store = GraphStore(tmp_path / "sync.log")
        store.bulk_load(graph)
        vend = HybPlusVend(k=4)
        vend.build(graph)
        fetch = GraphNeighborFetch(graph)

        for u, v in sample_insertions(graph, 150, seed=83):
            graph.add_edge(u, v)
            store.insert_edge(u, v)
            vend.insert_edge(u, v, fetch)
        for u, v in sample_deletions(graph, 150, seed=84):
            graph.remove_edge(u, v)
            store.delete_edge(u, v)
            vend.delete_edge(u, v, fetch)

        engine = EdgeQueryEngine(store, vend)
        for u, v in random_pairs(graph, 4000, seed=85):
            assert engine.has_edge(u, v) == graph.has_edge(u, v)
        store.close()
