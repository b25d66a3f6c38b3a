"""Fault-injection tests: retries, degraded mode, torn-write crashes.

The fault seed comes from ``$REPRO_FAULT_SEED`` (CI sweeps a small
matrix of seeds); every assertion here must hold for *any* seed —
probabilistic behaviors use rates of 0.0/1.0 or enough retries that
the failure probability is negligible (< 2^-50).
"""

import dataclasses
import time

import pytest

from repro.apps.edge_query import EdgeQueryEngine
from repro.graph import Graph
from repro.storage import (
    DiskKVStore,
    FaultConfig,
    FaultInjectingKVStore,
    GraphStore,
    InjectedIOError,
    InMemoryKVStore,
    SimulatedCrashError,
)
from repro.storage.faults import FAULT_SEED_ENV


def test_from_env_reads_seed(monkeypatch):
    monkeypatch.setenv(FAULT_SEED_ENV, "17")
    config = FaultConfig.from_env(read_error_rate=0.25)
    assert config.seed == 17
    assert config.read_error_rate == 0.25
    monkeypatch.delenv(FAULT_SEED_ENV)
    assert FaultConfig.from_env().seed == 0


def test_clean_passthrough(tmp_path):
    config = FaultConfig.from_env()
    with FaultInjectingKVStore(DiskKVStore(tmp_path / "db.log"), config) as store:
        store.put(1, b"hello")
        store.put(2, b"world")
        assert store.get(1) == b"hello"
        data, lengths = store.get_many_packed([1, 2])
        assert (bytes(data), lengths.tolist()) == (b"helloworld", [5, 5])
        assert store.delete(2)
        assert len(store) == 1 and 1 in store
        assert sorted(store.keys()) == [1]
        assert not store.degraded
        assert store.fault_stats.retries == 0
        assert store.stats.disk_writes == 3


def test_read_retries_eventually_succeed(tmp_path):
    config = FaultConfig.from_env(read_error_rate=0.5, max_retries=64)
    inner = DiskKVStore(tmp_path / "db.log")
    store = FaultInjectingKVStore(inner, config)
    for key in range(25):
        inner.put(key, bytes([key]) * 8)
    for key in range(25):
        assert store.get(key) == bytes([key]) * 8
    # 25 reads at a 50% fault rate: the odds of zero injections are
    # 2^-25 per seed — retries must have happened, and answers were
    # still exact.
    assert store.fault_stats.injected_read_errors > 0
    assert store.fault_stats.retries > 0
    assert store.degraded
    store.reset_degraded()
    assert not store.degraded
    store.close()


def test_exhausted_retries_raise_and_degrade(tmp_path):
    config = FaultConfig.from_env(read_error_rate=1.0, max_retries=2)
    inner = DiskKVStore(tmp_path / "db.log")
    inner.put(1, b"x")
    store = FaultInjectingKVStore(inner, config)
    with pytest.raises(InjectedIOError):
        store.get(1)
    assert store.fault_stats.retries == 2
    assert store.fault_stats.gave_up == 1
    assert store.degraded
    store.close()


def test_write_retries_keep_store_consistent(tmp_path):
    path = tmp_path / "db.log"
    config = FaultConfig.from_env(write_error_rate=0.5, max_retries=64)
    store = FaultInjectingKVStore(DiskKVStore(path), config)
    for key in range(25):
        store.put(key, bytes([key % 251]) * 16)
    store.delete(0)
    assert store.fault_stats.injected_write_errors > 0
    store.close()
    with DiskKVStore(path) as reopened:  # every committed write recovers
        assert 0 not in reopened
        for key in range(1, 25):
            assert reopened.get(key) == bytes([key % 251]) * 16


def _sleeps_for(config) -> list[float]:
    """Drive a read to exhaustion, capturing every backoff delay."""
    inner = InMemoryKVStore()
    inner.put(1, b"x")
    store = FaultInjectingKVStore(inner, config)
    slept: list[float] = []
    original = store._backoff_delay

    def capture(try_no):
        delay = original(try_no)
        slept.append(delay)
        return delay

    store._backoff_delay = capture
    store._sleep = lambda _seconds: None
    with pytest.raises(InjectedIOError):
        store.get(1)
    assert len(slept) == config.max_retries
    return slept


def test_backoff_waits_between_retries(tmp_path):
    config = FaultConfig.from_env(
        read_error_rate=1.0, max_retries=2,
        backoff_base=0.01, backoff_factor=2.0, jitter=False,
    )
    inner = DiskKVStore(tmp_path / "db.log")
    inner.put(1, b"x")
    store = FaultInjectingKVStore(inner, config)
    start = time.perf_counter()
    with pytest.raises(InjectedIOError):
        store.get(1)
    assert time.perf_counter() - start >= 0.03  # 0.01 + 0.02
    store.close()


def test_backoff_is_capped_by_backoff_max():
    config = FaultConfig.from_env(
        read_error_rate=1.0, max_retries=8,
        backoff_base=0.01, backoff_factor=2.0, backoff_max=0.05,
        jitter=False,
    )
    slept = _sleeps_for(config)
    # Uncapped the schedule would reach 0.01 * 2**7 = 1.28s; every
    # sleep must now sit at min(schedule, cap).
    assert slept == [0.01, 0.02, 0.04, 0.05, 0.05, 0.05, 0.05, 0.05]


def test_backoff_jitter_stays_within_envelope_and_varies():
    config = FaultConfig.from_env(
        seed=5, read_error_rate=1.0, max_retries=8,
        backoff_base=0.01, backoff_factor=2.0, backoff_max=0.05,
    )
    slept = _sleeps_for(config)
    schedule = [min(0.01 * 2.0 ** n, 0.05) for n in range(8)]
    for actual, bound in zip(slept, schedule):
        assert 0.0 <= actual <= bound
    # Full jitter must actually decorrelate: sleeps are not all equal
    # to the deterministic schedule (probability ~0 for a real RNG).
    assert slept != schedule


def test_backoff_jitter_is_seed_deterministic():
    def run(seed):
        return _sleeps_for(FaultConfig(
            seed=seed, read_error_rate=1.0, max_retries=5,
            backoff_base=0.001, backoff_factor=2.0,
        ))

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_jitter_draws_do_not_perturb_fault_dice():
    """Enabling backoff must not change *which* operations fail."""
    def failure_pattern(backoff_base):
        inner = InMemoryKVStore()
        inner.put(1, b"x")
        store = FaultInjectingKVStore(inner, FaultConfig(
            seed=11, read_error_rate=0.5, max_retries=0,
            backoff_base=backoff_base,
        ))
        store._sleep = lambda _s: None
        pattern = []
        for _ in range(64):
            try:
                store.get(1)
                pattern.append(True)
            except InjectedIOError:
                pattern.append(False)
        return pattern

    assert failure_pattern(0.0) == failure_pattern(0.01)


def test_latency_injection(tmp_path):
    config = FaultConfig.from_env(read_latency=0.01)
    inner = DiskKVStore(tmp_path / "db.log")
    inner.put(1, b"x")
    store = FaultInjectingKVStore(inner, config)
    start = time.perf_counter()
    assert store.get(1) == b"x"
    assert time.perf_counter() - start >= 0.01
    store.close()


@pytest.mark.parametrize("seed_offset", range(8))
def test_torn_write_crash_never_corrupts_committed_data(tmp_path, seed_offset):
    """The acceptance scenario: kill-9 mid-put.  After reopen the store
    returns exactly the pre-crash committed values; the torn record is
    truncated away, never served short.  Eight seed offsets make the
    random cut land both inside the frame header and inside the
    payload."""
    path = tmp_path / "db.log"
    committed = {key: bytes([key]) * 48 for key in range(6)}
    inner = DiskKVStore(path)
    for key, value in committed.items():
        inner.put(key, value)
    inner.flush()
    committed_size = path.stat().st_size

    base = FaultConfig.from_env(torn_write_rate=1.0)
    config = dataclasses.replace(base, seed=base.seed + seed_offset)
    store = FaultInjectingKVStore(inner, config)
    with pytest.raises(SimulatedCrashError):
        store.put(99, b"Z" * 48)
    assert store.fault_stats.torn_writes == 1
    assert store.degraded
    # The "process" is dead: every further operation refuses.
    with pytest.raises(SimulatedCrashError):
        store.get(1)
    with pytest.raises(SimulatedCrashError):
        store.put(5, b"after-death")
    # Some prefix of the record reached disk.
    assert path.stat().st_size > committed_size

    with DiskKVStore(path) as recovered:
        assert 99 not in recovered
        data, lengths = recovered.get_many_packed(list(committed))
        assert bytes(data) == b"".join(committed.values())
        assert lengths.tolist() == [len(v) for v in committed.values()]
        recovered.put(100, b"life-goes-on")
    assert path.stat().st_size > committed_size
    with DiskKVStore(path) as recovered:
        assert recovered.get(100) == b"life-goes-on"


def test_torn_write_ignored_for_inmemory_backend():
    config = FaultConfig.from_env(torn_write_rate=1.0)
    store = FaultInjectingKVStore(InMemoryKVStore(), config)
    store.put(1, b"no file to tear")
    assert store.get(1) == b"no file to tear"
    assert store.fault_stats.torn_writes == 0


def test_compact_fault_leaves_inner_usable(tmp_path):
    config = FaultConfig.from_env(write_error_rate=1.0, max_retries=1)
    inner = DiskKVStore(tmp_path / "db.log")
    inner.put(1, b"a" * 64)
    inner.put(1, b"b" * 64)
    store = FaultInjectingKVStore(inner, config)
    with pytest.raises(InjectedIOError):
        store.compact()
    assert inner.get(1) == b"b" * 64
    assert inner.compact() > 0  # the real compaction still works
    assert inner.get(1) == b"b" * 64
    store.close()


def test_degraded_surfaces_through_graphstore_and_engine(tmp_path):
    graph = Graph([(1, 2), (1, 3), (2, 3), (3, 4)])
    inner = DiskKVStore(tmp_path / "g.log")
    faulty = FaultInjectingKVStore(
        inner, FaultConfig.from_env(read_error_rate=0.5, max_retries=64),
    )
    store = GraphStore(kv=faulty)
    store.bulk_load(graph)
    assert not store.degraded or faulty.fault_stats.retries > 0

    engine = EdgeQueryEngine(store)
    for _ in range(25):  # zero injections across 25 reads: p = 2^-25
        assert engine.has_edge(1, 2)
    assert engine.has_edge_batch([(1, 2), (2, 4)]).tolist() == [True, False]
    assert store.degraded
    assert engine.stats.degraded
    # degraded is derived from the store at read time: clearing the
    # engine's counters cannot hide a store that is still failing.
    engine.stats.reset()
    assert engine.stats.degraded
    faulty.reset_degraded()
    assert not engine.stats.degraded
    store.close()


def test_plain_backends_never_degraded(tmp_path):
    assert not GraphStore().degraded
    with GraphStore(tmp_path / "g.log") as store:
        store.bulk_load(Graph([(1, 2)]))
        engine = EdgeQueryEngine(store)
        assert engine.has_edge(1, 2)
        assert not store.degraded
        assert not engine.stats.degraded
