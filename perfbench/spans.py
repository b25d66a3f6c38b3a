"""In-memory spans around the program's public calls, for the traced run.

The program is not instrumented for this benchmark: :func:`install`
replaces a fixed list of public methods (and the one module-level
function ``storage.kvstore`` calls to decode blobs) with wrappers that
record a :class:`Span` per call, and :func:`uninstall` puts the
originals back.  Spans stay in memory until the run ends.

A span records its name, the run phase it belongs to, wall-clock start
and end, its parent span and the thread it ran on.  Calls nest through
a per-thread stack.  A call that starts on an engine pool thread with
an empty stack takes as parent the ``has_edge_batch`` span the client
thread has open, so shard work hangs under the batch that caused it.
"""

from __future__ import annotations

import functools
import threading
import time

__all__ = ["Span", "Tracer", "install", "uninstall", "union_length",
           "layer_metrics"]


class Span:
    """One traced call; ``info`` holds per-call counts (pairs, ...)."""

    __slots__ = ("name", "phase", "start", "end", "parent", "thread", "info")

    def __init__(self, name, phase, parent, thread):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.thread = thread
        self.info = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; ``phase`` labels every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.client = threading.get_ident()
        self._local = threading.local()
        self._batch: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._batch
        span = Span(name, self.phase, parent, threading.get_ident())
        stack.append(span)
        if name == "apps.batch":
            self._batch = span
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span is self._batch:
            self._batch = None

    def inside(self, name: str) -> bool:
        """True when this thread has a ``name`` span open."""
        return any(s.name == name for s in self._stack())


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _traced(tracer: Tracer, name: str, fn, note=None):
    """Wrap ``fn`` in a span; ``note(span, args, result)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if note is not None:
            note(span, args, result)
        return result

    return wrapper


def _batch(tracer: Tracer, fn):
    """``has_edge_batch``, with the storage reads booked during the call
    (writes between batches read storage too, so a window delta would
    mix them in)."""

    @functools.wraps(fn)
    def wrapper(self, pairs_u, pairs_v=None):
        before = self.storage_stats.snapshot()
        span = tracer.open("apps.batch")
        try:
            result = fn(self, pairs_u, pairs_v)
        finally:
            tracer.close(span)
        after = self.storage_stats.snapshot()
        span.info["pairs"] = len(result)
        for name in ("disk_reads", "bytes_read"):
            span.info[name] = after[name] - before[name]
        return result

    return wrapper


def _ndf(tracer: Tracer, fn):
    """``is_nonedge_batch``: the client-thread call is the snapshot warm
    the engine makes before fan-out; pool-thread calls are the NDF."""

    @functools.wraps(fn)
    def wrapper(self, pairs_u, pairs_v=None):
        on_client = threading.get_ident() == tracer.client
        rebuild = getattr(self, "_batch_index", None) is None
        span = tracer.open("core.snapshot" if on_client else "core.ndf")
        try:
            result = fn(self, pairs_u, pairs_v)
        finally:
            tracer.close(span)
        span.info["rebuild"] = rebuild
        span.info["pairs"] = len(result)
        span.info["certified"] = int(result.sum())
        return result

    return wrapper


def _neighbors(tracer: Tracer, fn):
    """``get_neighbors``: a full scan read inside ``rebuild_index``,
    otherwise a maintenance fetch."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = ("storage.scan" if tracer.inside("apps.rebuild_index")
                else "storage.get_neighbors")
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _count_pairs(span, args, result):
    span.info["pairs"] = len(result)


def _targets():
    """``(owner, attribute, wrapper factory)`` for every traced call."""
    from repro.apps.database import VendGraphDB
    from repro.core import HybPlusVend
    from repro.storage import kvstore
    from repro.storage.hotcache import HotSetCache
    from repro.storage.sharding import ShardedGraphStore, ShardRouter

    def span(name, note=None):
        return lambda tracer, fn: _traced(tracer, name, fn, note)

    return [
        (VendGraphDB, "has_edge_batch", _batch),
        (VendGraphDB, "add_edge", span("apps.write")),
        (VendGraphDB, "remove_edge", span("apps.write")),
        (VendGraphDB, "rebuild_index", span("apps.rebuild_index")),
        (ShardRouter, "partition", span("apps.route")),
        (HybPlusVend, "is_nonedge_batch", _ndf),
        (HybPlusVend, "insert_edge", span("core.maintenance")),
        (HybPlusVend, "delete_edge", span("core.maintenance")),
        (HybPlusVend, "build", span("core.build")),
        (ShardedGraphStore, "probe_shard", span("storage.probe", _count_pairs)),
        (ShardedGraphStore, "insert_edge", span("storage.write")),
        (ShardedGraphStore, "delete_edge", span("storage.write")),
        (ShardedGraphStore, "bulk_load", span("storage.bulk_load")),
        (ShardedGraphStore, "get_neighbors", _neighbors),
        (HotSetCache, "probe_verdicts", span("storage.hot_probe")),
        (HotSetCache, "admit", span("storage.hot_admit")),
        (kvstore, "decode_blobs_packed", span("simd.decode")),
    ]


def install(tracer: Tracer) -> list:
    """Wrap every traced call; returns the undo list for :func:`uninstall`."""
    undo = []
    for owner, attr, make in _targets():
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, make(tracer, getattr(owner, attr)))
        undo.append((owner, attr, had_own, original))
    return undo


def uninstall(undo: list) -> None:
    """Restore the originals :func:`install` replaced."""
    for owner, attr, had_own, original in reversed(undo):
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


#: The phases each group of per-layer metrics is read from.
_SETUP = ("prepare", "setup")
_WINDOW = ("window",)
_WRITES = ("window", "tail")


def layer_metrics(tracer: Tracer, counters, untraced, traced) -> dict:
    """Per-layer metrics, as ``{name: (value, unit)}``.

    Probe-path metrics come from the traced window quarters, write
    metrics from those quarters plus a read-only workload's write
    tail, and lifecycle metrics from set-up (and restart's prepare).
    ``counters`` holds the program's own counter deltas over the same
    traced intervals; ``untraced``/``traced`` are the window halves
    whose throughput ratio is the tracing overhead.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def select(name, phases):
        return [s for s in by_name.get(name, ()) if s.phase in phases]

    def seconds(name, phases):
        return sum(s.seconds for s in select(name, phases))

    def ratio(num, den):
        return num / den if den else 0.0

    batches = select("apps.batch", _WINDOW)
    wall = sum(b.seconds for b in batches)
    coordinator = unexplained = 0.0
    for batch in batches:
        kids = children.get(id(batch), ())
        layer = [(k.start, k.end) for k in kids
                 if k.name.startswith(("core.", "storage."))]
        every = [(k.start, k.end) for k in kids]
        coordinator += batch.seconds - union_length(layer, batch.start,
                                                    batch.end)
        unexplained += batch.seconds - union_length(every, batch.start,
                                                    batch.end)
    ndf = select("core.ndf", _WINDOW)
    ndf_pairs = sum(s.info["pairs"] for s in ndf)
    ndf_s = sum(s.seconds for s in ndf)
    rebuilds = [s for name in ("core.snapshot", "core.ndf")
                for s in select(name, _WINDOW) if s.info["rebuild"]]
    writes = len(select("apps.write", _WRITES))
    probes = select("storage.probe", _WINDOW)
    probe_pairs = sum(s.info["pairs"] for s in probes)
    hits = counters.get(_WINDOW, "hot_hits")
    lookups = hits + counters.get(_WINDOW, "hot_misses")
    scans = select("storage.scan", _SETUP)
    untraced_rate = ratio(untraced.ops, untraced.cpu_s)
    traced_rate = ratio(traced.ops, traced.cpu_s)
    values = {
        "apps.batch_calls": (len(batches), "count"),
        "apps.batch_wall_s": (wall, "s"),
        "apps.coordinator_self_s": (coordinator, "s"),
        "apps.route_s": (seconds("apps.route", _WINDOW), "s"),
        "apps.write_calls": (writes, "count"),
        "apps.write_s": (seconds("apps.write", _WRITES), "s"),
        "apps.rebuild_index_s": (seconds("apps.rebuild_index", _SETUP), "s"),
        "core.ndf_pairs": (ndf_pairs, "count"),
        "core.ndf_s": (ndf_s, "s"),
        "core.ndf_ns_per_pair": (ratio(ndf_s * 1e9, ndf_pairs), "ns"),
        "core.certified_ratio": (
            ratio(sum(s.info["certified"] for s in ndf), ndf_pairs), "ratio"),
        "core.snapshot_rebuilds": (len(rebuilds), "count"),
        "core.snapshot_rebuild_s": (sum(s.seconds for s in rebuilds), "s"),
        "core.maintenance_calls": (
            len(select("core.maintenance", _WRITES)), "count"),
        "core.maintenance_s": (seconds("core.maintenance", _WRITES), "s"),
        "core.maintenance_reads_per_write": (
            ratio(counters.get(_WRITES, "maintenance_reads"), writes),
            "reads"),
        "core.build_s": (seconds("core.build", _SETUP), "s"),
        "storage.probe_calls": (len(probes), "count"),
        "storage.probe_pairs": (probe_pairs, "count"),
        "storage.probe_s": (sum(s.seconds for s in probes), "s"),
        "storage.disk_reads_per_probe": (
            ratio(sum(b.info["disk_reads"] for b in batches), probe_pairs),
            "reads"),
        "storage.bytes_read_per_probe": (
            ratio(sum(b.info["bytes_read"] for b in batches), probe_pairs),
            "B"),
        "storage.hot_hit_ratio": (ratio(hits, lookups), "ratio"),
        "storage.hot_evictions": (
            counters.get(_WINDOW, "hot_evictions"), "count"),
        "storage.hot_invalidations": (
            counters.get(_WINDOW, "hot_invalidations"), "count"),
        "storage.hot_probe_s": (seconds("storage.hot_probe", _WINDOW), "s"),
        "storage.hot_admit_s": (seconds("storage.hot_admit", _WINDOW), "s"),
        "storage.write_s": (seconds("storage.write", _WRITES), "s"),
        "storage.bytes_written_per_write": (
            ratio(counters.get(_WRITES, "bytes_written"), writes), "B"),
        "storage.bulk_load_s": (seconds("storage.bulk_load", _SETUP), "s"),
        "storage.open_s": (seconds("storage.open", _SETUP), "s"),
        "storage.scan_reads": (len(scans), "count"),
        "storage.scan_s": (sum(s.seconds for s in scans), "s"),
        "simd.decode_calls": (len(select("simd.decode", _WINDOW)), "count"),
        "simd.decode_s": (seconds("simd.decode", _WINDOW), "s"),
        "trace.untraced_ops_per_cpu_s": (untraced_rate, "ops/cpu_s"),
        "trace.traced_ops_per_cpu_s": (traced_rate, "ops/cpu_s"),
        "trace.overhead_ratio": (
            1.0 - ratio(traced_rate, untraced_rate), "ratio"),
        "trace.unexplained_batch_share": (ratio(unexplained, wall), "ratio"),
    }
    return values
