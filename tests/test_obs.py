"""Tests for the observability subsystem (repro.obs) — DESIGN.md §10.

Covers the metrics registry (families, labels, snapshot/diff, JSON and
Prometheus export), the span tracer, the stats views, and — the
headline bugfix — receipt-scoped I/O attribution: two engines sharing
one store, with maintenance traffic interleaved, must each book
exactly the I/O their own queries caused.
"""

import json
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import EdgeQueryEngine, VendGraphDB
from repro.core import HybPlusVend
from repro.graph import Graph, erdos_renyi_graph
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    QueryStats,
    ReadReceipt,
    StorageStats,
    Tracer,
)
from repro.storage import GraphStore
from repro.workloads import random_pairs


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_test_total", "help")
        b = registry.counter("repro_test_total")
        assert a is b

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(TypeError):
            registry.gauge("repro_test_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_name").labels(**{"0bad": "x"})

    def test_labels_get_or_create_ignores_order(self):
        counter = MetricsRegistry().counter("repro_test_total")
        one = counter.labels(a="1", b="2")
        two = counter.labels(b="2", a="1")
        assert one is two
        one.inc(3)
        assert counter.value(a="1", b="2") == 3

    def test_counter_rejects_negative_increments(self):
        series = MetricsRegistry().counter("repro_test_total").labels(x="y")
        with pytest.raises(ValueError):
            series.inc(-1)

    def test_scope_allocates_fresh_values(self):
        registry = MetricsRegistry()
        assert registry.scope("store") == "store0"
        assert registry.scope("store") == "store1"
        assert registry.scope("engine") == "engine0"

    def test_snapshot_and_diff(self):
        registry = MetricsRegistry()
        series = registry.counter("repro_test_total").labels(store="s0")
        before = registry.snapshot()
        series.inc(5)
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert delta == {'repro_test_total{store="s0"}': 5}

    def test_diff_drops_zero_deltas(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").labels(x="1").inc(2)
        registry.counter("repro_b_total").labels(x="1")
        before = registry.snapshot()
        registry.counter("repro_b_total").labels(x="1").inc(1)
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert list(delta) == ['repro_b_total{x="1"}']

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").labels(x="1").inc(2)
        hist = registry.histogram("repro_lat_seconds")
        hist.observe(0.01, x="1")
        registry.reset()
        assert all(v == 0 for v in registry.snapshot().values())

    def test_histogram_bucket_placement(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds",
                                  buckets=(0.001, 0.01, 0.1))
        series = hist.labels(x="1")
        for value in (0.0005, 0.005, 0.05, 5.0):
            series.observe(value)
        cumulative = series.cumulative_buckets()
        assert cumulative == [(0.001, 1), (0.01, 2), (0.1, 3),
                              (float("inf"), 4)]
        assert series.count == 4
        assert series.total == pytest.approx(5.0555)

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestExport:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_reads_total", "reads").labels(
            store="s0").inc(7)
        registry.gauge("repro_entries", "entries").labels(cache="c0").set(3)
        registry.histogram("repro_lat_seconds", "latency",
                           buckets=(0.01, 0.1)).labels(
            engine="e0").observe(0.05)
        return registry

    def test_json_round_trips_and_has_all_families(self):
        doc = json.loads(json.dumps(self._populated().to_json()))
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["repro_reads_total"]["type"] == "counter"
        assert by_name["repro_reads_total"]["series"][0]["value"] == 7
        assert by_name["repro_entries"]["type"] == "gauge"
        hist = by_name["repro_lat_seconds"]
        assert hist["series"][0]["buckets"] == [["0.01", 0], ["0.1", 1],
                                                ["+Inf", 1]]
        assert hist["series"][0]["count"] == 1

    def test_prometheus_text_format(self):
        text = self._populated().to_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_reads_total reads" in lines
        assert "# TYPE repro_reads_total counter" in lines
        assert 'repro_reads_total{store="s0"} 7' in lines
        assert "# TYPE repro_entries gauge" in lines
        assert 'repro_lat_seconds_bucket{engine="e0",le="0.1"} 1' in lines
        assert 'repro_lat_seconds_bucket{engine="e0",le="+Inf"} 1' in lines
        assert 'repro_lat_seconds_count{engine="e0"} 1' in lines
        # Every non-comment line is `name{labels} value`.
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*='
            r'"[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? \S+$'
        )
        for line in lines:
            if not line.startswith("#"):
                assert sample.match(line), line

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").labels(name='a"b\\c\nd').inc(1)
        text = registry.to_prometheus()
        assert r'name="a\"b\\c\nd"' in text


class TestTracer:
    def test_disabled_tracer_hands_out_null_spans(self):
        tracer = Tracer()
        assert tracer.span("query") is tracer.span("other")
        with tracer.span("query"):
            pass
        assert not tracer.traces

    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("query", engine="e0"):
            with tracer.span("ndf_filter"):
                pass
            with tracer.span("storage_get"):
                with tracer.span("cache"):
                    pass
        assert len(tracer.traces) == 1
        root = tracer.traces[0]
        assert root.name == "query"
        assert root.labels == {"engine": "e0"}
        assert [c.name for c in root.children] == ["ndf_filter",
                                                   "storage_get"]
        assert [c.name for c in root.children[1].children] == ["cache"]
        assert root.duration_seconds >= 0
        assert "query [engine=e0]" in root.format()

    def test_bounded_trace_buffer(self):
        tracer = Tracer(max_traces=3)
        tracer.enabled = True
        for i in range(5):
            with tracer.span(f"op{i}"):
                pass
        assert [s.name for s in tracer.traces] == ["op2", "op3", "op4"]

    def test_exception_unwind_closes_the_span(self):
        tracer = Tracer()
        tracer.enabled = True
        with pytest.raises(RuntimeError):
            with tracer.span("query"):
                with tracer.span("storage_get"):
                    raise RuntimeError("boom")
        assert len(tracer.traces) == 1
        assert tracer.traces[0].name == "query"
        assert not tracer._stack

    def test_to_json_limit(self):
        tracer = Tracer()
        tracer.enabled = True
        for i in range(4):
            with tracer.span(f"op{i}"):
                pass
        assert [t["name"] for t in tracer.to_json(limit=2)] == ["op2", "op3"]


class TestReadReceipt:
    def test_counting_and_merge(self):
        receipt = ReadReceipt()
        receipt.count_disk_read(64)
        receipt.count_disk_reads(2, 6)
        assert (receipt.disk_reads, receipt.bytes_read) == (3, 70)
        other = ReadReceipt()
        other.count_disk_read(10)
        receipt.merge(other)
        assert receipt.disk_reads == 4
        assert receipt.bytes_read == 80


class TestStatsViews:
    def test_fields_read_live_series(self):
        registry = MetricsRegistry()
        stats = StorageStats(registry=registry)
        assert stats.disk_reads == 0
        stats.inc("disk_reads", 3)
        assert stats.disk_reads == 3
        assert registry.counter("repro_storage_disk_reads_total").value(
            store=stats.scope) == 3

    def test_legacy_attribute_write_routes_to_series(self):
        stats = StorageStats(registry=MetricsRegistry())
        stats.disk_reads = 9
        assert stats.disk_reads == 9

    def test_unknown_field_raises(self):
        stats = StorageStats(registry=MetricsRegistry())
        with pytest.raises(AttributeError):
            stats.not_a_field  # noqa: B018

    def test_reset_only_touches_own_scope(self):
        registry = MetricsRegistry()
        first = StorageStats(registry=registry)
        second = StorageStats(registry=registry)
        first.inc("disk_reads", 2)
        second.inc("disk_reads", 5)
        first.reset()
        assert first.disk_reads == 0
        assert second.disk_reads == 5

    def test_snapshot_diff(self):
        stats = StorageStats(registry=MetricsRegistry())
        before = stats.snapshot()
        stats.inc("disk_reads")
        stats.inc("bytes_read", 128)
        delta = stats.diff(before)
        assert delta["disk_reads"] == 1
        assert delta["bytes_read"] == 128
        assert delta["disk_writes"] == 0

    def test_query_stats_degraded_is_derived_from_store(self):
        class FakeStore:
            degraded = False

        store = FakeStore()
        stats = QueryStats(store=store, registry=MetricsRegistry())
        assert not stats.degraded
        store.degraded = True
        assert stats.degraded
        stats.reset()  # cannot clear a condition it does not own
        assert stats.degraded
        store.degraded = False
        assert not stats.degraded


def _loaded_store() -> tuple[Graph, GraphStore]:
    graph = erdos_renyi_graph(80, 240, seed=9)
    store = GraphStore()
    store.bulk_load(graph)
    return graph, store


class TestAttribution:
    """The headline bugfix: receipt-scoped per-engine accounting."""

    def test_serial_interleave_books_io_to_the_right_engine(self):
        graph, store = _loaded_store()
        engine_a = EdgeQueryEngine(store)
        engine_b = EdgeQueryEngine(store)
        edges = sorted(graph.edges())[:20]
        maintenance = ReadReceipt()
        # Tight interleave: a query from A, a maintenance fetch, a
        # query from B — the exact pattern the old diff-the-shared-
        # globals accounting misattributed.
        for u, v in edges:
            assert engine_a.has_edge(u, v)
            store.get_neighbors(u, receipt=maintenance)
            assert engine_b.has_edge(u, v)
        for engine in (engine_a, engine_b):
            stats = engine.stats
            assert stats.executed == len(edges)
            # Scalar path: one storage get per executed query —
            # exactly, not at-least.
            assert stats.disk_served == stats.executed
        assert maintenance.disk_reads == len(edges)
        # Totals across all three actors equal the store's real I/O.
        served = (engine_a.stats.disk_served + engine_b.stats.disk_served
                  + maintenance.disk_reads)
        assert served == 3 * len(edges) == store.stats.disk_reads

    def test_threaded_engines_never_steal_each_others_io(self):
        graph, store = _loaded_store()
        engine_a = EdgeQueryEngine(store)
        engine_b = EdgeQueryEngine(store)
        edges = sorted(graph.edges())[:40]
        maintenance = ReadReceipt()
        barrier = threading.Barrier(3)
        errors: list[Exception] = []

        def run(task):
            try:
                barrier.wait()
                task()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def query_loop(engine):
            return lambda: [engine.has_edge(u, v) for u, v in edges]

        def maintenance_loop():
            for u, _ in edges:
                store.get_neighbors(u, receipt=maintenance)

        threads = [threading.Thread(target=run, args=(t,))
                   for t in (query_loop(engine_a), query_loop(engine_b),
                             maintenance_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every get is a physical read.  Whatever the interleaving,
        # each engine's books must equal its own load.
        for engine in (engine_a, engine_b):
            assert engine.stats.executed == len(edges)
            assert engine.stats.disk_served == len(edges)
        assert maintenance.disk_reads == len(edges)

    def test_batched_path_accounts_deduplicated_io(self):
        graph, store = _loaded_store()
        engine = EdgeQueryEngine(store)
        edges = sorted(graph.edges())[:30]
        answers = engine.has_edge_batch(edges)
        assert answers.all()
        stats = engine.stats
        assert stats.executed == len(edges)
        unique_sources = len({u for u, _ in edges})
        # Dedup means the batch paid one read per distinct left
        # endpoint — and the receipt booked exactly those.
        assert stats.disk_served == unique_sources
        assert stats.disk_served <= stats.executed

    def test_database_maintenance_reads_stay_out_of_query_books(self):
        graph = erdos_renyi_graph(60, 180, seed=3)
        db = VendGraphDB(k=6)
        db.load_graph(graph)
        for u, v in sorted(graph.edges())[:10]:
            db.has_edge(u, v)
        query_before = db.query_stats.snapshot()
        reads_before = db.maintenance_reads
        db.rebuild_index()
        # Every stored vertex was fetched for re-encoding; none of that
        # I/O leaked into the engine's counters.
        assert db.maintenance_reads - reads_before == graph.num_vertices
        assert db.db_stats.maintenance_disk_reads <= db.maintenance_reads
        assert db.index_rebuilds == 1
        assert db.query_stats.diff(query_before) == {
            name: 0 for name in query_before
        }


_PROP_GRAPH = erdos_renyi_graph(50, 150, seed=21)
_PROP_STORE = GraphStore()
_PROP_STORE.bulk_load(_PROP_GRAPH)
_PROP_FILTER = HybPlusVend(k=6)
_PROP_FILTER.build(_PROP_GRAPH)
_PROP_PAIRS = random_pairs(_PROP_GRAPH, 200, seed=21)


class TestCounterInvariants:
    @given(
        indices=st.lists(st.integers(0, len(_PROP_PAIRS) - 1), max_size=60),
        batch=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_filtered_plus_executed_equals_total(self, indices, batch):
        engine = EdgeQueryEngine(_PROP_STORE, _PROP_FILTER)
        pairs = [_PROP_PAIRS[i] for i in indices]
        if batch and pairs:
            engine.has_edge_batch(pairs)
        else:
            for u, v in pairs:
                engine.has_edge(u, v)
        stats = engine.stats
        assert stats.total == len(pairs)
        assert stats.filtered + stats.executed == stats.total
        assert stats.disk_served <= stats.executed
        if not batch:
            # Scalar path never dedups: provenance is exact per query.
            assert stats.disk_served == stats.executed
        assert stats.positives <= stats.executed


class TestExactExposition:
    """Regression: ``%g`` rendering corrupted large/precise values."""

    def test_large_counter_exports_exactly(self):
        registry = MetricsRegistry()
        value = 2**24 + 12_345_679  # %g would render 2.91229e+07
        registry.counter("repro_big_total").labels(store="s0").inc(value)
        text = registry.to_prometheus()
        assert f'repro_big_total{{store="s0"}} {value}' in text
        assert "e+" not in text

    def test_integer_counters_never_use_scientific_notation(self):
        registry = MetricsRegistry()
        for exp in (24, 31, 53, 60):
            registry.counter("repro_pow_total").labels(
                e=str(exp)).inc(2**exp + 1)
        for line in registry.to_prometheus().splitlines():
            if line.startswith("repro_pow_total"):
                value = line.rsplit(" ", 1)[1]
                assert value == str(int(value))

    def test_float_sum_exports_full_precision(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_seconds", buckets=(1.0,))
        series = hist.labels(engine="e0")
        for value in (0.1, 0.2, 1e-9):
            series.observe(value)
        text = registry.to_prometheus()
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("repro_t_seconds_sum"))
        exported = float(line.rsplit(" ", 1)[1])
        assert exported == 0.1 + 0.2 + 1e-9  # bit-exact round trip

    def test_float_counter_round_trips_via_repr(self):
        registry = MetricsRegistry()
        elapsed = 12345.678912345678
        registry.counter("repro_el_seconds_total").labels(
            engine="e0").inc(elapsed)
        text = registry.to_prometheus()
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("repro_el_seconds_total"))
        assert float(line.rsplit(" ", 1)[1]) == elapsed


class TestScrapeConsistency:
    """A scrape racing live updates must see coherent histograms."""

    def _parse(self, text):
        samples = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        return samples

    def test_threaded_hammer_never_sees_count_ahead_of_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h_seconds", buckets=(0.5, 1.5))
        series = hist.labels(engine="e0")
        stop = threading.Event()
        failures = []

        def observer():
            while not stop.is_set():
                series.observe(1.0)

        def scraper():
            while not stop.is_set():
                samples = self._parse(registry.to_prometheus())
                count = samples['repro_h_seconds_count{engine="e0"}']
                total = samples['repro_h_seconds_sum{engine="e0"}']
                inf = samples['repro_h_seconds_bucket{engine="e0",le="+Inf"}']
                mid = samples['repro_h_seconds_bucket{engine="e0",le="1.5"}']
                # Every observation is exactly 1.0, so a coherent
                # snapshot has sum == count == every cumulative bucket
                # from le=1.5 up.  Any drift is a torn scrape.
                if not (total == count == inf == mid):
                    failures.append((total, count, mid, inf))

        threads = [threading.Thread(target=observer) for _ in range(3)]
        threads += [threading.Thread(target=scraper) for _ in range(2)]
        for t in threads:
            t.start()
        import time as _time
        _time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert series.count > 1000, "hammer made no progress"
        assert not failures, f"torn scrapes observed: {failures[:5]}"

    def test_snapshot_histogram_fields_are_coherent(self):
        registry = MetricsRegistry()
        series = registry.histogram("repro_s_seconds",
                                    buckets=(1.0,)).labels(x="0")
        series.observe(2.0)
        snap = registry.snapshot()
        assert snap['repro_s_seconds_sum{x="0"}'] == 2.0
        assert snap['repro_s_seconds_count{x="0"}'] == 1
