"""Tests for the integrated VendGraphDB facade."""

import random

import pytest

from repro.apps.database import VendGraphDB
from repro.graph import powerlaw_graph


@pytest.fixture
def db(tmp_path):
    graph = powerlaw_graph(200, avg_degree=8, seed=160)
    database = VendGraphDB(tmp_path / "db.log", k=4)
    database.load_graph(graph)
    yield graph, database
    database.close()


class TestSetup:
    def test_invalid_method(self):
        with pytest.raises(ValueError):
            VendGraphDB(method="bloom")

    @pytest.mark.parametrize("kwargs,match", [
        ({"executor": "process"}, "removed"),
        ({"executor": "fibers"}, "executor"),
        ({"workers": 0}, "workers"),
        ({"workers": -1}, "workers"),
        ({"cache_bytes": 65536}, "block cache was removed"),
    ])
    def test_invalid_executor_and_workers(self, kwargs, match):
        # Rejected at every shard count, not only where the parallel
        # engine would have checked them.
        for shards in (1, 2):
            with pytest.raises(ValueError, match=match):
                VendGraphDB(shards=shards, **kwargs)

    def test_updates_require_load(self):
        database = VendGraphDB()
        with pytest.raises(RuntimeError):
            database.add_edge(1, 2)

    def test_load_answers_ground_truth(self, db):
        graph, database = db
        rng = random.Random(161)
        vertices = sorted(graph.vertices())
        for _ in range(3000):
            u, v = rng.sample(vertices, 2)
            assert database.has_edge(u, v) == graph.has_edge(u, v)
        assert database.query_stats.filter_rate > 0.5

    def test_rebuild_index_from_storage(self, db):
        graph, database = db
        database.rebuild_index()
        assert database.index_rebuilds == 1
        rng = random.Random(162)
        vertices = sorted(graph.vertices())
        for _ in range(1000):
            u, v = rng.sample(vertices, 2)
            assert database.has_edge(u, v) == graph.has_edge(u, v)


class TestUpdates:
    def test_add_edge_visible_and_consistent(self, db):
        graph, database = db
        vertices = sorted(graph.vertices())
        pair = next(
            (u, v) for u in vertices for v in vertices
            if u < v and not graph.has_edge(u, v)
        )
        assert database.add_edge(*pair)
        assert database.has_edge(*pair)
        assert not database.add_edge(*pair)  # idempotent

    def test_remove_edge(self, db):
        graph, database = db
        u, v = next(iter(graph.edges()))
        assert database.remove_edge(u, v)
        assert not database.has_edge(u, v)
        assert not database.remove_edge(u, v)

    def test_remove_vertex(self, db):
        graph, database = db
        v = max(graph.vertices(), key=graph.degree)
        neighbors = database.neighbors(v)
        assert database.remove_vertex(v)
        assert not database.has_vertex(v)
        for u in neighbors:
            assert not database.has_edge(u, v)
        assert not database.remove_vertex(v)

    def test_new_vertex_triggers_capacity_rebuild(self, db):
        graph, database = db
        giant = 1 << 20  # far beyond the current I'
        database.add_vertex(giant)
        assert database.index_rebuilds == 1
        assert database.add_edge(giant, 1)
        assert database.has_edge(giant, 1)
        assert not database.has_edge(giant, 2)

    def test_churn_stays_consistent(self, db):
        graph, database = db
        work = graph.copy()
        rng = random.Random(163)
        vertices = sorted(work.vertices())
        for _ in range(300):
            u, v = rng.sample(vertices, 2)
            if rng.random() < 0.5:
                if work.add_edge(u, v):
                    database.add_edge(u, v)
            elif work.has_edge(u, v):
                work.remove_edge(u, v)
                database.remove_edge(u, v)
        for _ in range(3000):
            u, v = rng.sample(vertices, 2)
            assert database.has_edge(u, v) == work.has_edge(u, v)


class TestStats:
    def test_counters_exposed(self, db):
        _, database = db
        database.has_edge(1, 2)
        assert database.query_stats.total >= 1
        assert database.storage_stats.disk_writes > 0
        assert database.index_memory_bytes() > 0

    def test_context_manager(self, tmp_path):
        graph = powerlaw_graph(50, avg_degree=6, seed=164)
        with VendGraphDB(tmp_path / "ctx.log", k=2) as database:
            database.load_graph(graph)
            assert database.num_vertices == 50
