"""Tests for the disk KV store and graph store."""

import logging
import os

import pytest

from repro.graph import DiGraph, Graph, erdos_renyi_graph
from repro.storage import (
    CorruptRecordError,
    DiskKVStore,
    GraphStore,
    InMemoryKVStore,
)
from repro.storage.kvstore import _FRAME, _HEADER_V1, _V1_TOMBSTONE, LOG_MAGIC


class _HugeValue(bytes):
    """A bytes stand-in reporting a 4 GiB length without allocating it."""

    def __len__(self):
        return 0xFFFFFFFF


class TestDiskKVStore:
    def test_put_get_roundtrip(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"hello")
            store.put(2, b"world")
            assert store.get(1) == b"hello"
            assert store.get(2) == b"world"
            assert store.get(99) is None
            assert len(store) == 2
            assert 1 in store and 99 not in store

    def test_overwrite_returns_latest(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"old")
            store.put(1, b"new")
            assert store.get(1) == b"new"
            assert len(store) == 1

    def test_delete(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"x")
            assert store.delete(1)
            assert store.get(1) is None
            assert not store.delete(1)

    def test_recovery_replays_log(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            store.put(1, b"one")
            store.put(2, b"two")
            store.put(1, b"one-v2")
            store.delete(2)
        with DiskKVStore(path) as store:
            assert store.get(1) == b"one-v2"
            assert store.get(2) is None
            assert len(store) == 1

    def test_read_counters(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"abcd")
            store.get(1)
            store.get(1)
            assert store.stats.disk_reads == 2
            assert store.stats.bytes_read == 8
            assert store.stats.disk_writes == 1

    def test_stats_reset_and_snapshot(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"x")
            snap = store.stats.snapshot()
            assert snap["disk_writes"] == 1
            store.stats.reset()
            assert store.stats.disk_writes == 0


class TestInMemoryKVStore:
    def test_same_interface(self):
        store = InMemoryKVStore()
        store.put(1, b"v")
        assert store.get(1) == b"v"
        assert store.stats.disk_reads == 1
        assert store.delete(1)
        assert not store.delete(1)
        assert store.get(1) is None


class TestGraphStore:
    def test_bulk_load_and_read(self, tmp_path):
        g = Graph([(1, 2), (1, 3), (2, 3)])
        with GraphStore(tmp_path / "g.log") as store:
            store.bulk_load(g)
            assert store.get_neighbors(1) == [2, 3]
            assert store.num_vertices == 3
            assert sorted(store.vertices()) == [1, 2, 3]

    def test_in_memory_backend(self):
        g = Graph([(1, 2)])
        store = GraphStore()
        store.bulk_load(g)
        assert store.get_neighbors(2) == [1]

    def test_has_edge_costs_one_read(self, tmp_path):
        g = Graph([(1, 2), (1, 3)])
        with GraphStore(tmp_path / "g.log") as store:
            store.bulk_load(g)
            store.stats.reset()
            assert store.has_edge(1, 2)
            assert not store.has_edge(1, 99)
            assert store.stats.disk_reads == 2

    def test_missing_vertex_raises(self):
        store = GraphStore()
        with pytest.raises(KeyError):
            store.get_neighbors(42)

    def test_insert_edge_updates_both_sides(self):
        store = GraphStore()
        store.bulk_load(Graph([(1, 2)]))
        assert store.insert_edge(1, 3)
        assert store.get_neighbors(1) == [2, 3]
        assert store.get_neighbors(3) == [1]
        assert not store.insert_edge(1, 3)

    def test_insert_self_loop_rejected(self):
        store = GraphStore()
        with pytest.raises(ValueError):
            store.insert_edge(1, 1)

    def test_delete_edge(self):
        store = GraphStore()
        store.bulk_load(Graph([(1, 2), (1, 3)]))
        assert store.delete_edge(1, 2)
        assert store.get_neighbors(1) == [3]
        assert store.get_neighbors(2) == []
        assert not store.delete_edge(1, 2)

    def test_delete_vertex(self):
        store = GraphStore()
        store.bulk_load(Graph([(1, 2), (1, 3), (2, 3)]))
        assert store.delete_vertex(1)
        assert not store.has_vertex(1)
        assert store.get_neighbors(2) == [3]
        assert not store.delete_vertex(1)

    def test_delete_vertex_writes_each_neighbor_once(self):
        # A degree-d vertex must cost exactly d neighbor rewrites plus
        # one key deletion — not the 2d + 1 writes a delete_edge loop
        # pays (each delete_edge also rewrote v's own shrinking list).
        d = 7
        hub = 0
        store = GraphStore()
        store.bulk_load(Graph([(hub, leaf) for leaf in range(1, d + 1)]))
        writes_before = store.stats.disk_writes
        assert store.delete_vertex(hub)
        assert store.stats.disk_writes - writes_before == d + 1
        for leaf in range(1, d + 1):
            assert store.get_neighbors(leaf) == []

    def test_directed_graph_stored_undirected(self):
        g = DiGraph([(1, 2), (3, 1)])
        store = GraphStore()
        store.bulk_load(g)
        assert store.get_neighbors(1) == [2, 3]

    def test_roundtrip_large(self, tmp_path):
        g = erdos_renyi_graph(200, 800, seed=4)
        with GraphStore(tmp_path / "g.log") as store:
            store.bulk_load(g)
            for v in list(g.vertices())[:50]:
                assert store.get_neighbors(v) == g.sorted_neighbors(v)


class TestCompaction:
    def test_compact_reclaims_space(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            for round_no in range(5):
                for key in range(20):
                    store.put(key, bytes([round_no]) * 50)
            for key in range(10):
                store.delete(key)
            saved = store.compact()
            assert saved > 0
            # Live data survives compaction.
            for key in range(10, 20):
                assert store.get(key) == bytes([4]) * 50
            for key in range(10):
                assert store.get(key) is None

    def test_compacted_store_recovers(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            store.put(1, b"a")
            store.put(1, b"b")
            store.put(2, b"c")
            store.compact()
            store.put(3, b"d")  # writes after compaction append normally
        with DiskKVStore(path) as store:
            assert store.get(1) == b"b"
            assert store.get(2) == b"c"
            assert store.get(3) == b"d"

    def test_compact_empty_store(self, tmp_path):
        with DiskKVStore(tmp_path / "e.log") as store:
            assert store.compact() == 0

class TestValueSizeLimit:
    """The v1 tombstone sentinel must never be writable as a length."""

    def test_disk_put_rejects_sentinel_sized_value(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            before = store.path.stat().st_size
            with pytest.raises(ValueError, match="tombstone sentinel"):
                store.put(1, _HugeValue())
            store.flush()
            assert store.path.stat().st_size == before
            assert 1 not in store

    def test_inmemory_put_rejects_sentinel_sized_value(self):
        store = InMemoryKVStore()
        with pytest.raises(ValueError, match="tombstone sentinel"):
            store.put(1, _HugeValue())
        assert 1 not in store


class TestCrashRecovery:
    """Torn-write recovery: replay truncates to the last intact record."""

    def _build_log(self, path):
        """Three committed records; returns their cumulative file sizes."""
        sizes = []
        with DiskKVStore(path) as store:
            for key, value in ((1, b"alpha"), (2, b"bravo-bravo"),
                               (3, b"the-final-record")):
                store.put(key, value)
                store.flush()
                sizes.append(path.stat().st_size)
        return sizes

    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        src = tmp_path / "src.log"
        sizes = self._build_log(src)
        data = src.read_bytes()
        assert len(data) == sizes[-1]
        for cut in range(sizes[1], sizes[2]):
            path = tmp_path / f"cut{cut}.log"
            path.write_bytes(data[:cut])
            with DiskKVStore(path) as store:
                assert store.get(1) == b"alpha"
                assert store.get(2) == b"bravo-bravo"
                assert 3 not in store and store.get(3) is None
                # The log was physically truncated to the last boundary,
                # so a new append lands on a clean tail.
                store.put(4, b"post-recovery")
            assert path.stat().st_size > sizes[1]
            with DiskKVStore(path) as store:
                assert store.get(2) == b"bravo-bravo"
                assert store.get(4) == b"post-recovery"

    def test_fully_committed_log_replays_unchanged(self, tmp_path):
        src = tmp_path / "src.log"
        sizes = self._build_log(src)
        with DiskKVStore(src) as store:
            assert store.get(3) == b"the-final-record"
        assert src.stat().st_size == sizes[-1]

    def test_recovery_logs_a_warning(self, tmp_path, caplog):
        src = tmp_path / "src.log"
        self._build_log(src)
        data = src.read_bytes()
        src.write_bytes(data[:-3])
        with caplog.at_level(logging.WARNING, logger="repro.storage.kvstore"):
            with DiskKVStore(src) as store:
                assert 3 not in store
        assert any("truncating torn tail" in rec.message
                   for rec in caplog.records)

    def test_corrupt_tail_checksum_detected(self, tmp_path):
        """A bit flip in the final record (torn page, bit rot) must not
        surface as a short/garbage value after reopen."""
        src = tmp_path / "src.log"
        sizes = self._build_log(src)
        data = bytearray(src.read_bytes())
        data[-4] ^= 0xFF  # corrupt the final record's payload
        src.write_bytes(bytes(data))
        with DiskKVStore(src) as store:
            assert store.get(2) == b"bravo-bravo"
            assert 3 not in store
        assert src.stat().st_size == sizes[1]

    def test_read_time_checksum_verification(self, tmp_path):
        path = tmp_path / "db.log"
        store = DiskKVStore(path)
        store.put(1, b"x" * 32)
        store.flush()
        with open(path, "r+b") as raw:  # corrupt behind the store's back
            raw.seek(len(LOG_MAGIC) + _FRAME.size + 5)
            raw.write(b"\xee")
        with pytest.raises(CorruptRecordError, match="checksum"):
            store.get(1)
        assert store.stats.checksum_failures == 1
        store.close()

    def test_verification_can_be_disabled(self, tmp_path):
        path = tmp_path / "db.log"
        store = DiskKVStore(path, verify_reads=False)
        store.put(1, b"x" * 32)
        store.flush()
        with open(path, "r+b") as raw:
            raw.seek(len(LOG_MAGIC) + _FRAME.size + 5)
            raw.write(b"\xee")
        assert store.get(1) != b"x" * 32  # garbage, but no exception
        store.close()

    def test_tombstone_is_explicit_record_type(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            store.put(7, b"gone-soon")
            store.delete(7)
        data = path.read_bytes()
        rtype, key, size, _crc = _FRAME.unpack_from(data, len(data) - _FRAME.size)
        assert (rtype, key, size) == (0x02, 7, 0)
        with DiskKVStore(path) as store:
            assert 7 not in store


class TestV1Compatibility:
    """Logs written by the pre-checksum format still replay."""

    @staticmethod
    def _v1_record(key, value):
        return _HEADER_V1.pack(key, len(value)) + value

    @staticmethod
    def _v1_tombstone(key):
        return _HEADER_V1.pack(key, _V1_TOMBSTONE)

    def _write_v1_log(self, path):
        path.write_bytes(
            self._v1_record(1, b"aaaa")
            + self._v1_record(2, b"bbbbbb")
            + self._v1_tombstone(1)
            + self._v1_record(3, b"cc")
        )

    def test_v1_log_replays(self, tmp_path):
        path = tmp_path / "legacy.log"
        self._write_v1_log(path)
        with DiskKVStore(path) as store:
            assert store.format_version == 1
            assert store.get(1) is None
            assert store.get(2) == b"bbbbbb"
            assert store.get(3) == b"cc"

    def test_v1_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "legacy.log"
        self._write_v1_log(path)
        full = path.read_bytes()
        path.write_bytes(full[:-1])  # tear the final record
        with DiskKVStore(path) as store:
            assert store.get(2) == b"bbbbbb"
            assert 3 not in store
        assert path.stat().st_size == len(full) - len(self._v1_record(3, b"cc"))

    def test_v1_header_only_tail_truncated(self, tmp_path):
        """A v1 record whose length field says 1 GiB but whose payload
        never hit the disk must not be indexed past EOF."""
        path = tmp_path / "legacy.log"
        self._write_v1_log(path)
        with open(path, "ab") as raw:
            raw.write(_HEADER_V1.pack(9, 1 << 30))
        with DiskKVStore(path) as store:
            assert 9 not in store
            assert store.get(3) == b"cc"

    def test_v1_log_keeps_appending_v1(self, tmp_path):
        path = tmp_path / "legacy.log"
        self._write_v1_log(path)
        with DiskKVStore(path) as store:
            store.put(4, b"dddd")
            store.delete(2)
        with DiskKVStore(path) as store:
            assert store.format_version == 1
            assert store.get(4) == b"dddd"
            assert store.get(2) is None

    def test_compact_upgrades_v1_to_v2(self, tmp_path):
        path = tmp_path / "legacy.log"
        self._write_v1_log(path)
        with DiskKVStore(path) as store:
            assert store.format_version == 1
            store.compact()
            assert store.format_version == 2
            store.put(5, b"new-style")
        assert path.read_bytes()[:len(LOG_MAGIC)] == LOG_MAGIC
        with DiskKVStore(path) as store:
            assert store.format_version == 2
            assert store.get(2) == b"bbbbbb"
            assert store.get(3) == b"cc"
            assert store.get(5) == b"new-style"


class TestAtomicCompaction:
    def _loaded_store(self, path):
        store = DiskKVStore(path)
        for key in range(8):
            store.put(key, bytes([key]) * 32)
            store.put(key, bytes([key]) * 16)  # garbage for GC
        store.flush()
        return store

    def test_interrupted_replace_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "db.log"
        store = self._loaded_store(path)
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr("repro.storage.kvstore.os.replace", boom)
        with pytest.raises(OSError, match="before rename"):
            store.compact()
        monkeypatch.undo()
        # Original log untouched, no temp left, store still serves reads.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert store.get(3) == bytes([3]) * 16
        store.close()
        with DiskKVStore(path) as reopened:
            assert reopened.get(3) == bytes([3]) * 16

    def test_interrupted_fsync_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "db.log"
        store = self._loaded_store(path)
        before = path.read_bytes()
        real_fsync = os.fsync

        def boom(fd):
            raise OSError("simulated crash before fsync completes")

        monkeypatch.setattr("repro.storage.kvstore.os.fsync", boom)
        with pytest.raises(OSError, match="before fsync"):
            store.compact()
        monkeypatch.setattr("repro.storage.kvstore.os.fsync", real_fsync)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert store.get(3) == bytes([3]) * 16
        saved = store.compact()  # and compaction still works afterwards
        assert saved > 0
        assert store.get(3) == bytes([3]) * 16
        store.close()

    def test_successful_compact_is_checksummed(self, tmp_path):
        path = tmp_path / "db.log"
        store = self._loaded_store(path)
        store.compact()
        store.close()
        with DiskKVStore(path) as reopened:
            for key in range(8):
                assert reopened.get(key) == bytes([key]) * 16


class TestBatchedReads:
    """get_many_packed: counter parity and packed contract."""

    def _loaded(self, path, count=64):
        store = DiskKVStore(path)
        for key in range(count):
            store.put(key, bytes([key % 251]) * (17 + key % 13))
        store.flush()
        return store

    def test_packed_counts_one_read_per_key(self, tmp_path):
        """Span coalescing is physical-layer only: the logical counters
        must book exactly one disk read per key, as if each record had
        its own syscall — on the cold (verifying) pass and warm."""
        store = self._loaded(tmp_path / "db.log")
        store.stats.reset()
        keys = [3, 9, 27, 44, 45, 46]  # 44-46: one coalesced span
        store.get_many_packed(keys)
        assert store.stats.disk_reads == len(keys)
        store.get_many_packed(keys)
        assert store.stats.disk_reads == 2 * len(keys)
        store.close()

    def test_packed_counts_match_scalar_gets(self, tmp_path):
        one = self._loaded(tmp_path / "a.log")
        two = self._loaded(tmp_path / "b.log")
        keys = list(range(0, 64, 3))
        one.stats.reset(); two.stats.reset()
        for key in keys:
            one.get(key)
        two.get_many_packed(keys)
        assert one.stats.disk_reads == two.stats.disk_reads
        assert one.stats.bytes_read == two.stats.bytes_read
        one.close(); two.close()

    def test_packed_returns_input_order(self, tmp_path):
        store = self._loaded(tmp_path / "db.log")
        keys = [40, 2, 2, 17, 5]
        data, lengths = store.get_many_packed(keys)
        offset = 0
        for key, length in zip(keys, lengths.tolist()):
            assert bytes(data[offset:offset + length]) == store.get(key)
            offset += length
        assert offset == len(data)
        store.close()

    def test_packed_warm_pass_matches_cold_pass(self, tmp_path):
        """The cold pass pre-verifies armed records unbooked and serves
        through the numpy tier; a warm pass must return the same bytes
        and book the same counters."""
        store = self._loaded(tmp_path / "db.log")
        keys = list(range(64))
        cold = store.get_many_packed(keys)
        # Pre-verification disarmed every crc and rebuilt the mirror.
        assert store._vindex is not None
        assert not store._vindex[3].any()  # varmed all clear
        disk_reads_cold = store.stats.disk_reads
        store.stats.reset()
        warm = store.get_many_packed(keys)
        assert bytes(cold[0]) == bytes(warm[0])
        assert cold[1].tolist() == warm[1].tolist()
        # One logical read per key on both passes: verification I/O is
        # maintenance and never double-books.
        assert disk_reads_cold == 64
        assert store.stats.disk_reads == 64
        store.close()

    def test_packed_missing_keys_raise_with_list(self, tmp_path):
        store = self._loaded(tmp_path / "db.log")
        with pytest.raises(KeyError) as err:
            store.get_many_packed([1, 999, 2, 1000])
        assert sorted(err.value.args[0]) == [999, 1000]
        store.get_many_packed(list(range(64)))  # warm the numpy tier
        with pytest.raises(KeyError) as err:
            store.get_many_packed([1, 999])
        assert sorted(err.value.args[0]) == [999]
        store.close()

    def test_packed_detects_corruption_on_first_read(self, tmp_path):
        path = tmp_path / "db.log"
        store = self._loaded(path, count=4)
        with open(path, "r+b") as raw:  # flip a payload byte
            raw.seek(len(LOG_MAGIC) + _FRAME.size + 2)
            raw.write(b"\xee")
        with pytest.raises(CorruptRecordError, match="checksum"):
            store.get_many_packed([0, 1, 2, 3])
        assert store.stats.checksum_failures == 1
        store.close()

    def test_checksums_verify_once_per_open(self, tmp_path):
        """The verify-once trade, pinned: after a clean first read the
        crc is cleared, so later corruption behind a live store goes
        unseen until reopen — which re-arms every checksum."""
        path = tmp_path / "db.log"
        store = self._loaded(path, count=4)
        assert store.get(1) is not None  # verified now
        payload_offset = store._index[1][0]
        with open(path, "r+b") as raw:
            raw.seek(payload_offset + 2)
            raw.write(b"\xee")
        store.get(1)  # crc cleared: no re-verification, no raise
        store.close()
        # Reopen re-checks everything: replay spots the bad record and
        # truncates back to the last intact prefix.
        with DiskKVStore(path) as reopened:
            assert reopened.get(0) is not None
            assert 1 not in reopened

    def test_inmemory_packed_matches_disk_contract(self):
        store = InMemoryKVStore()
        for key in range(8):
            store.put(key, bytes([key]) * (4 + key))
        data, lengths = store.get_many_packed([5, 0, 5])
        assert lengths.tolist() == [9, 4, 9]
        assert bytes(data[:9]) == bytes([5]) * 9
        with pytest.raises(KeyError):
            store.get_many_packed([1, 99])
