"""The benchmark's workloads: inputs, set-up, timed window and checks.

One database configuration serves every workload (:data:`DB_CONFIG`).
A single client drives it in a closed loop: the next call starts when
the previous one returned.  Probes go through ``has_edge_batch`` in
batches of :data:`BATCH` pairs in stream order; writes go through
``add_edge``/``remove_edge`` one at a time.

Every timing is process CPU time (``time.process_time``), which counts
the client thread and both engine pool threads, rescaled by the
:class:`Clock`'s reference samples.  A run has a few input draws
(:data:`DRAWS`), each set up and timed on its own share of the window.  Inputs
and ground truth are generated from the seed outside every timed
interval.
"""

from __future__ import annotations

import ctypes
import gc
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.apps.database import VendGraphDB
from repro.core.batch import warm_batch_snapshot
from repro.graph import Graph
from repro.graph.generators import powerlaw_graph
from repro.workloads.streams import (
    OP_DELETE,
    OP_INSERT,
    OP_PROBE,
    WorkloadStream,
    churn_stream,
    edge_stream,
    uniform_stream,
)

import spans

GRAPH_N = 20_000
GRAPH_AVG_DEGREE = 48
DB_CONFIG = dict(method="hyb+", k=6, shards=2, workers=2, compress=True,
                 use_mmap=True, cache_bytes=0, hot_cache_bytes=1 << 20,
                 executor="thread")
BATCH = 4096
#: Batches in one pass of a read-only stream.  The window replays the
#: pass in a loop, so one pass of warm-up reaches the steady state.
BASE_BATCHES = 64
#: Input draws per run, by workload.  Each draw is a graph, stream,
#: sweep and write tail of its own, generated from the run's seed, with
#: a set-up of its own and an equal share of the window; the metrics
#: pool the draws.  A graph's hubs set much of a run's cost, most of
#: all on ``hot_edges``, whose cache misses each decode a whole
#: adjacency list: there, graphs of different seeds differ by up to
#: 40%.  More graphs per run narrow the spread across seeds; each costs
#: a set-up.  ``setup_s`` is the median of the draws' set-ups.
DRAWS = {"hot_edges": 3, "churn": 2, "restart": 2}
#: Draw ``d`` of the run with seed ``s`` has seed ``DRAW_STRIDE * s + d``.
DRAW_STRIDE = 4
#: Fresh non-edges a read-only workload inserts, then deletes, after
#: its windows, shared out over the draws, so that its write metrics
#: exist.
TAIL_EDGES = 2048
#: The percentile each tail metric reports, over all the run's samples
#: of its kind.  The write tails' deletes are bimodal: the 6-10% that
#: touch a hub cost about five times the rest.  Their 90th percentile
#: sat on the edge between the two modes and jumped between them from
#: seed to seed (0.49-1.25 cpu_ms on ``restart``), so the delete tail
#: is the 95th, inside the dear mode on every seed measured.  Inserts
#: have 1-3% dear calls, so their 95th percentile sits on that edge and
#: their 90th does not.
TAIL_PERCENTILE = {"probe_batch": 90, "insert": 90, "delete": 95}
#: Uniform pairs probed after the windows to measure the VEND score,
#: shared out over the draws.
SWEEP_PAIRS = 16 * BATCH
#: Churn cycles: six probe batches, then a storm of single writes.
#: The first batch after a storm pays the NDF snapshot rebuild, and
#: about one batch in six pays a hot-cache admission round.  So two
#: thirds of the batches are plain, which puts the batch median among
#: them and the batch tail (11th largest) among the expensive ones.
CHURN_PROBE_BATCHES = 6
CHURN_STORM = 64
#: Churn cycles generated per second of a draw's window.  A cycle takes
#: about
#: 0.6 CPU s, so the program can get about ten times faster before the
#: stream runs out; if it does, the window ends there (see the notes).
CHURN_CYCLES_PER_S = 16

WORKLOADS = ("hot_edges", "churn", "restart")

#: One pass of the reference kernel: this many dict updates, then
#: ``REFERENCE_GATHERS`` gathers of ``REFERENCE_PICKS`` random entries
#: from an 8 MiB array.  A sample runs the pass twice and times the
#: second, which takes about 0.3 ms.
REFERENCE_LOOPS = 2_500
REFERENCE_GATHERS = 4
REFERENCE_PICKS = 1 << 13
REFERENCE_ARRAY = 1 << 20
#: A round figure near the CPU seconds of one timed reference pass on
#: the 2.0 GHz Xeon vCPU the benchmark was tuned on; it sets the scale
#: of every reported CPU time.
REFERENCE_NOMINAL_S = 0.0003
#: Program CPU seconds between two reference samples, and wall seconds
#: between two samples of the sampler thread during a set-up call.
REFERENCE_EVERY_S = 0.010
#: A CPU time is rescaled by the median of this many reference
#: samples on each side of it.
REFERENCE_SPAN = 6
#: Reference samples taken right before and right after each set-up
#: call.
SETUP_BRACKET = 4

cpu = time.process_time


class Clock:
    """Process CPU time of program work, rescaled by a reference kernel.

    On a shared host the CPU time of fixed work moves by a fifth or
    more within seconds, as other tenants load the machine.  The
    program's CPU time moves with that of a fixed kernel of interpreter
    work (dict updates) and numpy gathers.  So the clock runs the
    kernel between calls whenever :data:`REFERENCE_EVERY_S` of program
    CPU has passed since the last sample.  The samples cut the run into
    *epochs*.  A CPU time measured in epoch ``e`` is multiplied by
    :meth:`scale`, ``REFERENCE_NOMINAL_S`` over the median of the
    :data:`REFERENCE_SPAN` samples on either side of the epoch.  The
    kernel's own CPU is never counted as the program's.

    A sample runs the kernel twice and times only the second pass.  The
    first brings the kernel's data back into the caches, so the timed
    pass starts from the same cache state whatever the program did
    before it, and a change in the program's memory footprint does not
    move the scale.
    """

    def __init__(self):
        # The kernel allocates nothing: its keys, values and output
        # already exist, so its time does not depend on the program's
        # heap.
        self._keys = [(i * 2654435761) & 1023
                      for i in range(REFERENCE_LOOPS)]
        self._table = dict.fromkeys(range(1024), 0)
        rng = np.random.default_rng(0)
        self._array = rng.integers(0, 1 << 40, REFERENCE_ARRAY)
        self._picks = rng.integers(0, REFERENCE_ARRAY, REFERENCE_PICKS)
        self._out = np.empty(REFERENCE_PICKS, dtype=self._array.dtype)
        self.reference: list[float] = []
        #: Program CPU per epoch; the last entry is the open epoch.
        self.work: list[float] = [0.0]
        self._closed = 0.0
        self._mark = cpu()

    @property
    def epoch(self) -> int:
        return len(self.reference)

    def used(self) -> float:
        """Program CPU seconds since the clock started."""
        return self._closed + cpu() - self._mark

    def kernel(self) -> None:
        """One pass of the reference kernel."""
        table = self._table
        for key in self._keys:
            table[key] = table[key] ^ 1
        for _ in range(REFERENCE_GATHERS):
            np.take(self._array, self._picks, out=self._out)

    def sample(self) -> None:
        """Close the open epoch with one reference sample."""
        self.work[-1] += cpu() - self._mark
        self._closed += self.work[-1]
        self.kernel()  # untimed: warms the caches for the timed pass
        start = cpu()
        self.kernel()
        self._mark = cpu()
        self.reference.append(self._mark - start)
        self.work.append(0.0)

    def tick(self) -> None:
        """Take a reference sample when one is due."""
        if cpu() - self._mark >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, epoch: int) -> float:
        """Multiply a CPU time measured in ``epoch`` by this."""
        return REFERENCE_NOMINAL_S / statistics.median(
            self.reference[max(epoch - REFERENCE_SPAN, 0):
                           epoch + REFERENCE_SPAN])

    def scaled(self, samples) -> list[float]:
        """``(seconds, epoch)`` samples, rescaled."""
        return [seconds * self.scale(epoch) for seconds, epoch in samples]

    def long_call(self, call, *args):
        """Run one program call; returns its result and its rescaled CPU
        seconds.

        A set-up call runs for seconds, and the host's speed changes
        while it runs, so samples taken only around it miss most of what
        it met.  A :class:`Sampler` thread takes a sample every
        :data:`REFERENCE_EVERY_S` of wall time during the call.  The
        call's CPU time, less the sampler's, is rescaled by the median of
        those samples and of :data:`SETUP_BRACKET` samples taken on each
        side of the call.  A short call meets no sampler sample, and the
        bracket alone sets its scale.
        """
        for _ in range(SETUP_BRACKET):
            self.sample()
        first = self.epoch - SETUP_BRACKET
        sampler = Sampler(self)
        start = cpu()
        sampler.start()
        try:
            result = call(*args)
        finally:
            sampler.finish()
        taken = cpu() - start - sampler.own_cpu
        for _ in range(SETUP_BRACKET):
            self.sample()
        reference = self.reference[first:] + sampler.reference
        return result, taken * REFERENCE_NOMINAL_S / statistics.median(
            reference)

    def scaled_work(self, first: int, last: int) -> float:
        """Rescaled program CPU of epochs ``first`` to ``last - 1``."""
        return sum(self.work[e] * self.scale(e) for e in range(first, last))


class Sampler(threading.Thread):
    """Reference samples on a thread of their own while a call runs.

    Each sample is timed in the thread's own CPU time, after an untimed
    warming pass, like :meth:`Clock.sample`.  ``own_cpu`` is all the CPU
    the thread used, so that it can be taken off the process's.
    """

    def __init__(self, clock: Clock):
        super().__init__(name="perfbench-reference", daemon=True)
        self._clock = clock
        self._done = threading.Event()
        self.reference: list[float] = []
        self.own_cpu = 0.0

    def run(self) -> None:
        begin = time.thread_time()
        while not self._done.wait(REFERENCE_EVERY_S):
            self._clock.kernel()
            start = time.thread_time()
            self._clock.kernel()
            self.reference.append(time.thread_time() - start)
        self.own_cpu = time.thread_time() - begin

    def finish(self) -> None:
        self._done.set()
        self.join()


@dataclass
class Inputs:
    """Everything generated from the seed, before any timing."""

    graph: Graph
    stream: WorkloadStream
    expected: np.ndarray | None  # per probe op of a read-only stream
    sweep: WorkloadStream        # uniform pairs for the VEND score
    tail: np.ndarray             # (TAIL_EDGES, 2) fresh non-edges, or empty
    loop: bool                   # replay ``stream`` until the window ends


@dataclass
class Tally:
    """Ops attempted and failed, with per-call ``(cpu_s, epoch)`` samples."""

    attempted: int = 0
    failed: int = 0
    probes: int = 0
    writes: int = 0
    batch_cpu: list = field(default_factory=list)
    insert_cpu: list = field(default_factory=list)
    delete_cpu: list = field(default_factory=list)

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "probes", "writes"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.batch_cpu += other.batch_cpu
        self.insert_cpu += other.insert_cpu
        self.delete_cpu += other.delete_cpu


def _seeds(seed: int) -> tuple[int, int, int]:
    """Stream, sweep and tail seeds, all derived from a draw's seed."""
    return 4 * seed + 1, 4 * seed + 2, 4 * seed + 3


def draw_seeds(workload: str, seed: int) -> list[int]:
    """The graph seed of each input draw of the run with ``seed``."""
    return [DRAW_STRIDE * seed + draw for draw in range(DRAWS[workload])]


def expected_results(graph: Graph, stream: WorkloadStream,
                     upto: int | None = None) -> tuple[np.ndarray, Graph]:
    """Ground truth for ``stream[:upto]`` and the graph it leaves.

    A stream without writes is checked against ``Graph.has_edge`` on
    the generated graph.  A stream with writes replays them on a shadow
    copy of the graph, in stream order, beside its probes.  A write's
    expected result is True: every generated write changes the graph.
    """
    upto = len(stream) if upto is None else upto
    shadow = graph
    if np.any(stream.kinds[:upto] != OP_PROBE):
        shadow = Graph(graph.edges())
    expected = np.ones(upto, dtype=bool)
    for kind, lo, hi in stream.segments():
        if lo >= upto:
            break
        hi = min(hi, upto)
        pairs = zip(stream.us[lo:hi].tolist(), stream.vs[lo:hi].tolist())
        if kind == OP_PROBE:
            expected[lo:hi] = [shadow.has_edge(u, v) for u, v in pairs]
        elif kind == OP_INSERT:
            for u, v in pairs:
                shadow.add_edge(u, v)
        else:
            for u, v in pairs:
                shadow.remove_edge(u, v)
    return expected, shadow


def fresh_non_edges(graph: Graph, count: int, seed: int) -> np.ndarray:
    """``count`` distinct vertex pairs that are not edges of ``graph``."""
    rng = np.random.default_rng(seed)
    verts = np.asarray(sorted(graph.vertices()), dtype=np.int64)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < count:
        u, v = (int(x) for x in verts[rng.integers(0, len(verts), 2)])
        if u != v and not graph.has_edge(u, v):
            chosen.add((min(u, v), max(u, v)))
    return np.asarray(sorted(chosen), dtype=np.int64)


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """Generate one draw's graph, op stream, sweep and write tail, for a
    window of ``seconds``; ``seed`` is the draw's.

    Churn's ground truth depends on how far its window gets, so it is
    computed after the window (:func:`check_window`); a read-only
    stream's is computed here.
    """
    graph = powerlaw_graph(GRAPH_N, avg_degree=GRAPH_AVG_DEGREE, seed=seed)
    stream_seed, sweep_seed, tail_seed = _seeds(seed)
    draws = DRAWS[workload]
    sweep = uniform_stream(graph, SWEEP_PAIRS // draws, seed=sweep_seed)
    if workload == "churn":
        probe_len = CHURN_PROBE_BATCHES * BATCH
        cycles = math.ceil(CHURN_CYCLES_PER_S * seconds) + 4
        stream = churn_stream(graph, cycles * (probe_len + CHURN_STORM),
                              seed=stream_seed, skew=1.0, probe_len=probe_len,
                              storm_len=CHURN_STORM)
        return Inputs(graph, stream, None, sweep,
                      np.zeros((0, 2), dtype=np.int64), loop=False)
    n = BASE_BATCHES * BATCH
    if workload == "hot_edges":
        stream = edge_stream(graph, n, seed=stream_seed, skew=1.0)
    else:
        stream = uniform_stream(graph, n, seed=stream_seed)
    return Inputs(graph, stream, expected_results(graph, stream)[0], sweep,
                  fresh_non_edges(graph, TAIL_EDGES // draws, tail_seed),
                  loop=True)


def steps_of(stream: WorkloadStream) -> list[tuple[int, int, int]]:
    """``(kind, lo, hi)`` calls: probe runs cut into batches, single writes."""
    steps = []
    for kind, lo, hi in stream.segments():
        if kind == OP_PROBE:
            steps += [(kind, a, min(a + BATCH, hi))
                      for a in range(lo, hi, BATCH)]
        else:
            steps += [(kind, i, i + 1) for i in range(lo, hi)]
    return steps


def probe(db, us, vs, clock: Clock, tally: Tally) -> np.ndarray | None:
    """One ``has_edge_batch`` call, CPU-timed; its verdicts, or None if
    it raised (the caller counts every pair of it as failed)."""
    tally.attempted += len(us)
    tally.probes += len(us)
    epoch = clock.epoch
    start = cpu()
    try:
        verdicts = db.has_edge_batch(us, vs)
    except Exception:
        verdicts = None
    tally.batch_cpu.append((cpu() - start, epoch))
    return None if verdicts is None else np.asarray(verdicts, dtype=bool)


def wrong(verdicts: np.ndarray | None, expected: np.ndarray) -> int:
    """Pairs of a probe call that raised or answered wrong."""
    if verdicts is None:
        return len(expected)
    return int(np.count_nonzero(verdicts != expected))


def write(db, kind: int, u: int, v: int, clock: Clock, tally: Tally) -> None:
    """One checked ``add_edge``/``remove_edge`` call, CPU-timed.

    Every generated write is valid when it runs, so each must report
    that it changed the graph.
    """
    inserting = kind == OP_INSERT
    call = db.add_edge if inserting else db.remove_edge
    tally.attempted += 1
    tally.writes += 1
    epoch = clock.epoch
    start = cpu()
    try:
        changed = call(u, v)
    except Exception:
        changed = False
    (tally.insert_cpu if inserting else tally.delete_cpu).append(
        (cpu() - start, epoch))
    tally.failed += not changed


def run_window(db, inputs: Inputs, steps: list, position: int,
               seconds: float, clock: Clock, tally: Tally,
               verdicts: list) -> tuple[int, float]:
    """Closed loop from ``steps[position]`` for ``seconds`` of program CPU.

    Appends ``(lo, hi, verdicts)`` for every probe call to ``verdicts``
    and returns the position to resume from and the window's rescaled
    CPU seconds (the client's loop included, reference samples not).
    """
    stream = inputs.stream
    clock.sample()
    first = clock.epoch
    start = clock.used()
    while clock.used() - start < seconds:
        if position == len(steps):
            if not inputs.loop:
                break  # the stream ran out: the window ends early
            position = 0
        kind, lo, hi = steps[position]
        position += 1
        if kind == OP_PROBE:
            verdicts.append((lo, hi, probe(db, stream.us[lo:hi],
                                           stream.vs[lo:hi], clock, tally)))
        else:
            write(db, kind, int(stream.us[lo]), int(stream.vs[lo]), clock,
                  tally)
        clock.tick()
    clock.sample()
    return position, clock.scaled_work(first, clock.epoch)


def check_window(inputs: Inputs, expected: np.ndarray | None,
                 verdicts: list, executed: int) -> tuple[int, Graph]:
    """Wrong probe pairs of a window and the graph its writes left.

    ``expected`` is the read-only stream's ground truth; for a stream
    with writes it is None and is replayed here up to op ``executed``.
    """
    live = inputs.graph
    if expected is None:
        expected, live = expected_results(inputs.graph, inputs.stream,
                                          executed)
    failed = sum(wrong(got, expected[lo:hi]) for lo, hi, got in verdicts)
    return failed, live


class Setup:
    """One draw's set-up: returns the live database and its CPU."""

    def __init__(self, workload: str, inputs: Inputs, workdir: Path,
                 clock: Clock, tracer: spans.Tracer | None):
        self.workload = workload
        self.inputs = inputs
        self.clock = clock
        self.tracer = tracer
        self.path = workdir / "db"
        self.path.parent.mkdir(parents=True)
        self.before: np.ndarray | None = None

    def _open(self) -> VendGraphDB:
        if self.tracer is None:
            return VendGraphDB(self.path, **DB_CONFIG)
        span = self.tracer.open("storage.open")
        try:
            return VendGraphDB(self.path, **DB_CONFIG)
        finally:
            self.tracer.close(span)

    def prepare(self, tally: Tally) -> None:
        """Restart only: write the store, record its verdicts, close it.

        The index is not built, so the engine answers every pair of the
        uniform pass from storage; these verdicts, checked against the
        graph, are what the reopened database must reproduce.
        """
        if self.workload != "restart":
            return
        stream = self.inputs.stream
        db = self._open()
        try:
            db.store.bulk_load(self.inputs.graph)
            self.before = np.concatenate([
                np.asarray(db.has_edge_batch(stream.us[lo:lo + BATCH],
                                             stream.vs[lo:lo + BATCH]),
                           dtype=bool)
                for lo in range(0, len(stream), BATCH)])
        finally:
            db.close()
        tally.attempted += len(stream)
        tally.probes += len(stream)
        tally.failed += wrong(self.before, self.inputs.expected)

    def run(self, tally: Tally) -> tuple[VendGraphDB, float]:
        """The set-up; returns the database and its rescaled CPU seconds,
        which count only the program's own calls.  Each call is timed by
        :meth:`Clock.long_call`; the warm-up pass is rescaled batch by
        batch, like the window."""
        seconds = 0.0

        def timed(call, *args):
            nonlocal seconds
            result, taken = self.clock.long_call(call, *args)
            seconds += taken
            return result

        db = timed(self._open)
        if self.workload == "restart":
            timed(db.rebuild_index)
        else:
            timed(db.load_graph, self.inputs.graph)
        timed(warm_batch_snapshot, db.vend)
        if self.workload == "hot_edges":
            # One pass of the replayed stream fills the hot cache the
            # window then runs against; it is set-up, not dropped.
            warm = Tally()
            stream = self.inputs.stream
            for lo in range(0, len(stream), BATCH):
                got = probe(db, stream.us[lo:lo + BATCH],
                            stream.vs[lo:lo + BATCH], self.clock, warm)
                tally.failed += wrong(got,
                                      self.inputs.expected[lo:lo + BATCH])
                self.clock.tick()
            seconds += sum(self.clock.scaled(warm.batch_cpu))
            tally.attempted += warm.attempted
        return db, seconds


def probe_sweep(db, inputs: Inputs, clock: Clock,
                tally: Tally) -> tuple[list, int, int]:
    """Probe the uniform sweep; returns its per-batch verdicts, the pairs
    the NDF certified and the non-edge pairs probed, from
    ``query_stats``.  Their ratio is the paper's VEND score.
    :func:`check_sweep` checks the verdicts."""
    stats = db.query_stats
    before = (stats.total, stats.filtered, stats.positives)
    sweep = inputs.sweep
    verdicts = [probe(db, sweep.us[lo:lo + BATCH], sweep.vs[lo:lo + BATCH],
                      clock, tally)
                for lo in range(0, len(sweep), BATCH)]
    total = stats.total - before[0]
    filtered = stats.filtered - before[1]
    positives = stats.positives - before[2]
    return verdicts, filtered, total - positives


def check_sweep(inputs: Inputs, live: Graph, verdicts: list) -> int:
    """Wrong pairs of the sweep, checked against the graph ``live``."""
    sweep = inputs.sweep
    expected = np.fromiter((live.has_edge(u, v) for u, v in
                            zip(sweep.us.tolist(), sweep.vs.tolist())),
                           dtype=bool, count=len(sweep))
    return sum(wrong(got, expected[lo:lo + BATCH])
               for lo, got in zip(range(0, len(sweep), BATCH), verdicts))


def write_tail(db, tail: np.ndarray, clock: Clock, tally: Tally) -> None:
    """Insert fresh non-edges, then delete them, one at a time.

    After the inserts every pair must probe present, and after the
    deletes absent; those probes are checks, not timed samples.
    """
    us, vs = tail[:, 0], tail[:, 1]
    clock.sample()
    for kind, present in ((OP_INSERT, True), (OP_DELETE, False)):
        for u, v in tail.tolist():
            write(db, kind, u, v, clock, tally)
            clock.tick()
        check = Tally()
        got = probe(db, us, vs, clock, check)
        tally.attempted += check.attempted
        tally.failed += wrong(got, np.full(len(us), present))
    clock.sample()


def tail_value(samples: list[float], percentile: float) -> tuple[float, float]:
    """The ``percentile`` of ``samples`` and the percentile it stands for.

    At least ten samples must lie beyond a tail; with too few for
    ``percentile``, the 11th-largest sample is the tail.
    """
    beyond = len(samples) * (100 - percentile) / 100
    if beyond >= 10:
        return float(np.percentile(samples, percentile)), percentile
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[max(n - 11, 0)], 100.0 * max(n - 10, 0) / n


def store_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())


def _status_mib(field: str) -> float:
    """A memory field of ``/proc/self/status``, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def peak_rss_mib() -> float:
    """The process's peak resident set since the last reset."""
    return _status_mib("VmHWM")


def rss_mib() -> float:
    """The process's resident set now."""
    return _status_mib("VmRSS")


def reset_peak_rss() -> bool:
    """Lower the process's peak resident set to the current one (Linux
    ``clear_refs``); False where that is not allowed."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        return False
    return True


def release_free_memory() -> None:
    """Hand memory the process freed back to the system.

    Input generation frees tens of MiB; while the C library keeps them,
    they count in the resident set, and the program's first allocations
    reuse them without growing it.  How much gets reused varies from run
    to run, so it would blur ``peak_rss_mb``.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not the GNU C library: nothing to trim


class Counters:
    """Counter deltas the program exports, summed over traced intervals."""

    _STORAGE = ("bytes_written",)
    _HOT = ("hits", "misses", "evictions", "invalidations")

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {}

    @classmethod
    def read(cls, db) -> dict[str, float]:
        values = {name: db.storage_stats.snapshot()[name]
                  for name in cls._STORAGE}
        for name in cls._HOT:
            values["hot_" + name] = sum(getattr(h.stats, name)
                                        for h in db.hot_caches())
        values["maintenance_reads"] = db.maintenance_reads
        return values

    def add(self, phase: str, before: dict, after: dict) -> None:
        total = self.totals.setdefault(phase, {})
        for name, value in after.items():
            total[name] = total.get(name, 0) + value - before[name]

    def get(self, phases, name: str) -> float:
        return sum(self.totals.get(p, {}).get(name, 0) for p in phases)


@dataclass
class Window:
    """A timed window's tally and its rescaled CPU seconds."""

    tally: Tally = field(default_factory=Tally)
    cpu_s: float = 0.0

    @property
    def ops(self) -> int:
        return self.tally.probes + self.tally.writes

    def merge(self, other: "Window") -> None:
        self.tally.merge(other.tally)
        self.cpu_s += other.cpu_s


@dataclass
class Draw:
    """What one input draw's set-up, window, sweep and write tail left.

    ``tally`` holds the ops outside the window (restart's preparation,
    the warm-up pass, the sweep and the write tail's checks);
    ``verdicts`` and ``sweep`` are checked after every draw has run.
    """

    inputs: Inputs
    tally: Tally = field(default_factory=Tally)
    untraced: Window = field(default_factory=Window)
    traced: Window = field(default_factory=Window)
    tail: Tally = field(default_factory=Tally)
    setup_s: float = 0.0
    expected: np.ndarray | None = None
    verdicts: list = field(default_factory=list)
    executed: int = 0
    ran_out: bool = False
    sweep: list = field(default_factory=list)
    certified: int = 0
    non_edges: int = 0
    segment_bytes: int = 0
    index_bytes: int = 0
    num_vertices: int = 0
    threads: int = 0


def run_draw(workload: str, inputs: Inputs, seconds: float, clock: Clock,
             tracer: spans.Tracer | None, counters: Counters,
             workdir: Path, traced_first: bool) -> Draw:
    """Set up one draw, run its window of ``seconds``, its sweep and its
    write tail, and close its database.  With a ``tracer``, the window
    is split into an untraced and a traced half, in the order
    ``traced_first`` gives; the draws alternate it, so that both halves
    see early and late stream positions and cache states alike."""
    draw = Draw(inputs)
    setup = Setup(workload, inputs, workdir, clock, tracer)
    undo = []
    db = None
    try:
        if tracer is not None:
            tracer.phase = "prepare"
            undo = spans.install(tracer)
        setup.prepare(draw.tally)
        if tracer is not None:
            tracer.phase = "setup"
        db, draw.setup_s = setup.run(draw.tally)
        spans.uninstall(undo)
        undo = []
        # The store as set-up left it: later writes append to the log
        # for as long as the CPU budget lasts, so the end state's size
        # would vary with the host's speed.
        db.store.flush()
        draw.segment_bytes = store_bytes(setup.path.parent)
        draw.expected = inputs.expected if setup.before is None \
            else setup.before
        steps = steps_of(inputs.stream)
        position = 0
        parts = [draw.untraced] if tracer is None \
            else [draw.untraced, draw.traced][::-1 if traced_first else 1]
        for part in parts:
            if part is draw.traced:
                tracer.phase = "window"
                undo = spans.install(tracer)
                before = Counters.read(db)
            position, cpu_s = run_window(db, inputs, steps, position,
                                         seconds / len(parts), clock,
                                         part.tally, draw.verdicts)
            part.cpu_s += cpu_s
            if part is draw.traced:
                spans.uninstall(undo)
                undo = []
                counters.add("window", before, Counters.read(db))
        draw.threads = threading.active_count()
        draw.ran_out = position == len(steps) and not inputs.loop
        draw.executed = steps[position - 1][2] if position else 0
        draw.sweep, draw.certified, draw.non_edges = probe_sweep(
            db, inputs, clock, draw.tally)
        if len(inputs.tail):
            if tracer is not None:
                tracer.phase = "tail"
                undo = spans.install(tracer)
                before = Counters.read(db)
            write_tail(db, inputs.tail, clock, draw.tail)
            if tracer is not None:
                spans.uninstall(undo)
                undo = []
                counters.add("tail", before, Counters.read(db))
        draw.index_bytes = db.index_memory_bytes()
        draw.num_vertices = db.num_vertices
    finally:
        spans.uninstall(undo)
        if db is not None:
            db.close()
    return draw


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> tuple[dict, int, int, list[str]]:
    """Run one workload; returns ``(metrics, attempted, failed, notes)``.

    ``metrics`` maps name to ``(value, unit)``: the end-to-end metrics,
    or with ``trace`` the per-layer metrics.  The draws run one after
    the other, each on its share of the window's ``seconds``.
    """
    draws = DRAWS[workload]
    inputs = [make_inputs(workload, draw_seed, seconds / draws)
              for draw_seed in draw_seeds(workload, seed)]
    clock = Clock()
    # The inputs are millions of objects the garbage collector would
    # otherwise walk in every full collection the program triggers, at
    # a cost that grows with each draw's inputs; frozen, it skips them.
    gc.collect()
    gc.freeze()
    tracer = spans.Tracer() if trace else None
    counters = Counters()
    done, rss_growth, peak_reset = [], [], True
    for index, one in enumerate(inputs):
        # A draw's growth of the peak over the resident set it starts
        # from: the inputs, the ground truth, the clock and whatever
        # earlier draws left live.  Freed memory is handed back and the
        # peak reset first, so that it does not count what input
        # generation used and freed.  A later draw still reuses some of
        # the heap an earlier one freed, by a different amount each run
        # (its growth spread 71-98 MiB on ``restart``, the first draw's
        # 102-111), so ``peak_rss_mb`` is the largest growth of a draw.
        release_free_memory()
        peak_reset = reset_peak_rss() and peak_reset
        rss_before = rss_mib()
        done.append(run_draw(workload, one, seconds / draws, clock, tracer,
                             counters, workdir / f"draw{index}",
                             index % 2 == 1))
        rss_growth.append(peak_rss_mib() - rss_before)

    # Checks.  The checksums copy the stream and churn's ground truth
    # replays it on a copy of the graph, so they come after the peak
    # resident set is read.
    notes = [] if peak_reset else [
        "peak_rss_mb: the peak could not be reset, so it also counts "
        "memory that input generation used and freed"]
    tally = Tally()
    untraced, traced, tails = Window(), Window(), Tally()
    for draw_seed, draw in zip(draw_seeds(workload, seed), done):
        one = draw.inputs
        notes.append(f"inputs: workload={workload} seed={seed} "
                     f"draw_seed={draw_seed} "
                     f"vertices={one.graph.num_vertices} "
                     f"edges={one.graph.num_edges} ops={len(one.stream)} "
                     f"stream_checksum={one.stream.checksum()} "
                     f"sweep_checksum={one.sweep.checksum()}")
        if draw.ran_out:
            notes.append(f"draw_seed={draw_seed}: the stream ran out, so "
                         f"its window ended early")
        failed, live = check_window(one, draw.expected, draw.verdicts,
                                    draw.executed)
        draw.tally.failed += failed + check_sweep(one, live, draw.sweep)
        tally.merge(draw.tally)
        tally.merge(draw.tail)
        untraced.merge(draw.untraced)
        traced.merge(draw.traced)
        tails.merge(draw.tail)
    window = Window()
    window.merge(untraced)
    window.merge(traced)
    tally.merge(window.tally)
    notes.append(f"threads during the windows: "
                 f"{max(d.threads for d in done)} (client + "
                 f"{DB_CONFIG['workers']} engine workers expected)")
    if trace:
        metrics = spans.layer_metrics(tracer, counters, untraced, traced)
        notes.append(f"spans recorded: {len(tracer.spans)}")
        notes.append(f"tracing overhead: untraced {untraced.ops} ops in "
                     f"{untraced.cpu_s:.3f} cpu_s, traced {traced.ops} ops "
                     f"in {traced.cpu_s:.3f} cpu_s")
        return metrics, tally.attempted, tally.failed, notes
    writes = window.tally if window.tally.writes else tails
    batch = clock.scaled(window.tally.batch_cpu)
    inserts = clock.scaled(writes.insert_cpu)
    deletes = clock.scaled(writes.delete_cpu)
    tail_of = {}
    for name, samples in (("probe_batch", batch), ("insert", inserts),
                          ("delete", deletes)):
        tail_of[name], percentile = tail_value(samples,
                                               TAIL_PERCENTILE[name])
        notes.append(f"{name}_tail_cpu_ms: p{percentile:.2f} of "
                     f"{len(samples)} samples")
    notes.append("write metrics from the "
                 + ("window" if writes is window.tally else "write tail"))
    scales = [clock.scale(e) for e in range(clock.epoch + 1)]
    notes.append(f"reference scale over {clock.epoch} samples: "
                 f"min {min(scales):.4f} median "
                 f"{statistics.median(scales):.4f} max {max(scales):.4f}")
    notes.append(f"peak_rss_mb of each draw: "
                 f"{', '.join(f'{g:.1f}' for g in rss_growth)}")
    setup_s = [d.setup_s for d in done]
    notes.append(f"setup_s of each draw: "
                 f"{', '.join(f'{s:.4f}' for s in setup_s)}")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_cpu_s": (window.ops / window.cpu_s, "ops/cpu_s"),
        "probe_ops_per_cpu_s": (window.tally.probes / sum(batch),
                                "ops/cpu_s"),
        "probe_batch_p50_cpu_ms": (statistics.median(batch) * 1e3, "cpu_ms"),
        "probe_batch_tail_cpu_ms": (tail_of["probe_batch"] * 1e3, "cpu_ms"),
        "write_ops_per_cpu_s": (
            (len(inserts) + len(deletes)) / (sum(inserts) + sum(deletes)),
            "ops/cpu_s"),
        "insert_p50_cpu_ms": (statistics.median(inserts) * 1e3, "cpu_ms"),
        "insert_tail_cpu_ms": (tail_of["insert"] * 1e3, "cpu_ms"),
        "delete_p50_cpu_ms": (statistics.median(deletes) * 1e3, "cpu_ms"),
        "delete_tail_cpu_ms": (tail_of["delete"] * 1e3, "cpu_ms"),
        "vend_score": (sum(d.certified for d in done)
                       / max(sum(d.non_edges for d in done), 1), "ratio"),
        "store_bytes_per_edge": (
            sum(d.segment_bytes for d in done)
            / sum(d.inputs.graph.num_edges for d in done), "B"),
        "index_bytes_per_vertex": (
            sum(d.index_bytes for d in done)
            / sum(d.num_vertices for d in done), "B"),
        "peak_rss_mb": (max(rss_growth), "MiB"),
    }
    return metrics, tally.attempted, tally.failed, notes
