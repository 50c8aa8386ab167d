"""Unit tests for the MVCC storage engine: CLOG, WAL, heap, visibility."""

import pytest

from repro.profiling.counters import COUNTERS
from repro.sim import Simulator
from repro.storage import (
    Clog,
    HeapTable,
    Snapshot,
    TxnStatus,
    Wal,
    WalRecord,
    WalRecordKind,
)


@pytest.fixture
def sim():
    return Simulator(seed=1)


@pytest.fixture
def clog(sim):
    return Clog(sim, node_id="n1")


@pytest.fixture
def heap(sim, clog):
    return HeapTable(sim, clog, shard_id=("t", 0))


def run(sim, gen):
    return sim.run_until_complete(sim.spawn(gen))


# ----------------------------------------------------------------------
# CLOG
# ----------------------------------------------------------------------
def test_clog_lifecycle(clog):
    clog.begin(1)
    assert clog.status(1) is TxnStatus.IN_PROGRESS
    clog.set_prepared(1)
    assert clog.status(1) is TxnStatus.PREPARED
    clog.set_committed(1, commit_ts=100)
    assert clog.status(1) is TxnStatus.COMMITTED
    assert clog.commit_ts(1) == 100


def test_clog_unknown_xid_reads_aborted(clog):
    assert clog.status(999) is TxnStatus.ABORTED


def test_clog_commit_without_prepare_is_allowed(clog):
    clog.begin(2)
    clog.set_committed(2, commit_ts=5)
    assert clog.status(2) is TxnStatus.COMMITTED


def test_clog_cannot_abort_committed(clog):
    clog.begin(3)
    clog.set_committed(3, 1)
    with pytest.raises(ValueError):
        clog.set_aborted(3)


def test_clog_cannot_begin_twice(clog):
    clog.begin(4)
    with pytest.raises(ValueError):
        clog.begin(4)


def test_clog_wait_completion_wakes_on_commit(sim, clog):
    clog.begin(5)
    clog.set_prepared(5)
    results = []

    def reader():
        status = yield clog.wait_completion(5)
        results.append((status, sim.now))

    sim.spawn(reader())
    sim.schedule(2.0, clog.set_committed, 5, 42)
    sim.run()
    assert results == [(TxnStatus.COMMITTED, 2.0)]


def test_clog_wait_completion_already_done_fires_immediately(sim, clog):
    clog.begin(6)
    clog.set_aborted(6)

    def reader():
        status = yield clog.wait_completion(6)
        return status

    assert run(sim, reader()) is TxnStatus.ABORTED


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
def test_wal_assigns_monotonic_lsns(sim):
    wal = Wal(sim)
    lsns = [
        wal.append(WalRecord(WalRecordKind.INSERT, xid=1, key=k)) for k in range(3)
    ]
    assert lsns == [0, 1, 2]
    assert wal.tail_lsn == 3


def test_wal_reader_consumes_in_order(sim):
    wal = Wal(sim)
    for k in range(3):
        wal.append(WalRecord(WalRecordKind.INSERT, xid=1, key=k))
    reader = wal.reader()
    assert [reader.poll().key for _ in range(3)] == [0, 1, 2]
    assert reader.poll() is None
    assert reader.lag == 0


def test_wal_reader_blocks_until_append(sim):
    wal = Wal(sim)
    reader = wal.reader()
    got = []

    def consume():
        record = yield from reader.next_record()
        got.append((record.key, sim.now))

    sim.spawn(consume())
    sim.schedule(3.0, wal.append, WalRecord(WalRecordKind.COMMIT, xid=7, key="k"))
    sim.run()
    assert got == [("k", 3.0)]


def test_wal_reader_from_middle(sim):
    wal = Wal(sim)
    for k in range(5):
        wal.append(WalRecord(WalRecordKind.UPDATE, xid=1, key=k))
    reader = wal.reader(from_lsn=3)
    assert reader.poll().key == 3


def test_wal_records_between(sim):
    wal = Wal(sim)
    for k in range(5):
        wal.append(WalRecord(WalRecordKind.UPDATE, xid=1, key=k))
    middle = wal.records_between(1, 3)
    assert [r.key for r in middle] == [1, 2]


def test_wal_record_kind_is_change():
    assert WalRecordKind.INSERT.is_change
    assert WalRecordKind.LOCK.is_change
    assert not WalRecordKind.COMMIT.is_change
    assert not WalRecordKind.PREPARE.is_change


# ----------------------------------------------------------------------
# Heap / visibility
# ----------------------------------------------------------------------
def committed_insert(heap, clog, xid, key, value, cts):
    clog.begin(xid)
    heap.put_version(key, value, xmin=xid)
    clog.set_committed(xid, cts)


def test_read_sees_committed_before_snapshot(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value=10, cts=5)

    def reader():
        value, _ = yield from heap.read("a", Snapshot(start_ts=5))
        return value

    assert run(sim, reader()) == 10


def test_read_skips_committed_after_snapshot(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value=10, cts=50)

    def reader():
        value, _ = yield from heap.read("a", Snapshot(start_ts=5))
        return value

    assert run(sim, reader()) is None


def test_read_skips_aborted_and_in_progress(sim, heap, clog):
    clog.begin(1)
    heap.put_version("a", 1, xmin=1)
    clog.set_aborted(1)
    clog.begin(2)
    heap.put_version("a", 2, xmin=2)  # still in progress

    def reader():
        value, _ = yield from heap.read("a", Snapshot(start_ts=100))
        return value

    assert run(sim, reader()) is None


def test_read_sees_own_uncommitted_write(sim, heap, clog):
    clog.begin(9)
    heap.put_version("a", "mine", xmin=9)

    def reader():
        value, _ = yield from heap.read("a", Snapshot(start_ts=0, xid=9))
        return value

    assert run(sim, reader()) == "mine"


def test_read_sees_newest_visible_version(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=5)
    old = heap.chain("a")[0]
    clog.begin(2)
    heap.mark_deleted(old, 2)
    heap.put_version("a", "v2", xmin=2)
    clog.set_committed(2, 8)

    def read_at(ts):
        def reader():
            value, _ = yield from heap.read("a", Snapshot(start_ts=ts))
            return value

        return run(sim, reader())

    assert read_at(5) == "v1"
    assert read_at(8) == "v2"


def test_read_deleted_row_invisible_after_delete_commit(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=5)
    version = heap.chain("a")[0]
    clog.begin(2)
    heap.mark_deleted(version, 2)
    clog.set_committed(2, 7)

    def read_at(ts):
        def reader():
            value, _ = yield from heap.read("a", Snapshot(start_ts=ts))
            return value

        return run(sim, reader())

    assert read_at(6) == "v1"
    assert read_at(7) is None


def test_prepare_wait_blocks_reader_until_commit(sim, heap, clog):
    clog.begin(1)
    heap.put_version("a", "w", xmin=1)
    clog.set_prepared(1)
    results = []

    def reader():
        value, _ = yield from heap.read("a", Snapshot(start_ts=100))
        results.append((value, sim.now))

    sim.spawn(reader())
    sim.schedule(4.0, clog.set_committed, 1, 10)
    sim.run()
    assert results == [("w", 4.0)]


def test_prepare_wait_reader_skips_if_commit_ts_too_new(sim, heap, clog):
    clog.begin(1)
    heap.put_version("a", "w", xmin=1)
    clog.set_prepared(1)
    results = []

    def reader():
        value, _ = yield from heap.read("a", Snapshot(start_ts=100))
        results.append(value)

    sim.spawn(reader())
    sim.schedule(1.0, clog.set_committed, 1, 500)
    sim.run()
    assert results == [None]


def test_prepare_wait_on_deleting_txn(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=5)
    version = heap.chain("a")[0]
    clog.begin(2)
    heap.mark_deleted(version, 2)
    clog.set_prepared(2)
    results = []

    def reader():
        value, _ = yield from heap.read("a", Snapshot(start_ts=100))
        results.append((value, sim.now))

    sim.spawn(reader())
    sim.schedule(2.5, clog.set_committed, 2, 50)
    sim.run()
    assert results == [(None, 2.5)]


def test_scan_at_returns_consistent_pairs(sim, heap, clog):
    for i in range(5):
        committed_insert(heap, clog, xid=10 + i, key=i, value=i * 100, cts=i)

    def scanner():
        pairs = yield from heap.scan_at(Snapshot(start_ts=2))
        return pairs

    assert run(sim, scanner()) == [(0, 0), (1, 100), (2, 200)]


def test_vacuum_reclaims_dead_versions(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=1)
    old = heap.chain("a")[0]
    clog.begin(2)
    heap.mark_deleted(old, 2)
    heap.put_version("a", "v2", xmin=2)
    clog.set_committed(2, 3)
    clog.begin(3)
    heap.put_version("b", "junk", xmin=3)
    clog.set_aborted(3)

    assert heap.chain_length("a") == 2
    removed = heap.vacuum(horizon_ts=10)
    assert removed == 2
    assert heap.chain_length("a") == 1
    assert "b" not in heap


def test_vacuum_respects_horizon(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=1)
    old = heap.chain("a")[0]
    clog.begin(2)
    heap.mark_deleted(old, 2)
    heap.put_version("a", "v2", xmin=2)
    clog.set_committed(2, 30)
    # A snapshot at ts=10 still needs v1: horizon below 30 keeps it.
    assert heap.vacuum(horizon_ts=10) == 0
    assert heap.chain_length("a") == 2


def vacuum_visiting(heap, horizon_ts):
    """(versions removed, chains visited) of one vacuum pass."""
    before = COUNTERS.vacuum_chains_visited
    removed = heap.vacuum(horizon_ts)
    return removed, COUNTERS.vacuum_chains_visited - before


def test_vacuum_chain_held_above_horizon_stays_candidate(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=1)
    committed_insert(heap, clog, xid=2, key="cold", value="c", cts=1)
    assert vacuum_visiting(heap, 10) == (0, 2)
    assert vacuum_visiting(heap, 10) == (0, 0)  # all settled: nothing to visit
    clog.begin(3)
    heap.mark_deleted(heap.chain("a")[0], 3)
    heap.put_version("a", "v2", xmin=3)
    clog.set_committed(3, 30)
    # A snapshot at ts=10 pins the horizon below the deletion: the chain
    # is looked at on every pass (and only it), and nothing goes.
    assert vacuum_visiting(heap, 10) == (0, 1)
    assert vacuum_visiting(heap, 29) == (0, 1)
    # The hold drops: no heap call since, yet the next pass reclaims v1.
    assert vacuum_visiting(heap, 30) == (1, 1)
    assert [v.value for v in heap.chain("a")] == ["v2"]
    assert vacuum_visiting(heap, 30) == (0, 0)


def test_vacuum_reclaims_aborted_insert_on_fresh_key(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=1)
    assert heap.sorted_keys() == ["a"]  # the key index is live from here on
    clog.begin(2)
    heap.put_version("b", "junk", xmin=2)
    assert heap.sorted_keys() == ["a", "b"]
    assert vacuum_visiting(heap, 10) == (0, 2)  # still in progress: kept, watched
    clog.set_aborted(2)
    assert vacuum_visiting(heap, 10) == (1, 1)
    assert "b" not in heap
    assert list(heap.keys()) == ["a"]
    assert heap.sorted_keys() == ["a"]
    assert heap.version_count == 1
    assert vacuum_visiting(heap, 10) == (0, 0)


def test_vacuum_skips_bulk_installed_rows_until_first_delete(sim, heap, clog):
    clog.begin(1)
    clog.set_committed(1, 0)  # the bootstrap transaction
    for key in range(50):
        heap.put_version(key, "loaded", xmin=1, committed=True)
    assert vacuum_visiting(heap, 10) == (0, 0)
    clog.begin(2)
    heap.mark_deleted(heap.chain(7)[0], 2)
    assert vacuum_visiting(heap, 10) == (0, 1)  # deleter in progress
    clog.set_committed(2, 5)
    assert vacuum_visiting(heap, 10) == (1, 1)
    assert 7 not in heap and heap.key_count == 49
    assert vacuum_visiting(heap, 10) == (0, 0)


def test_unmark_deleted_restores_version(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=1)
    version = heap.chain("a")[0]
    heap.mark_deleted(version, 2)
    heap.unmark_deleted(version, 2)
    assert version.xmax is None
    heap.mark_deleted(version, 3)
    heap.unmark_deleted(version, 2)  # someone else's stamp stays
    assert version.xmax == 3


def test_latest_committed_or_locked_skips_aborted(sim, heap, clog):
    committed_insert(heap, clog, xid=1, key="a", value="v1", cts=1)
    clog.begin(2)
    heap.put_version("a", "junk", xmin=2)
    clog.set_aborted(2)
    latest = heap.latest_committed_or_locked("a")
    assert latest.value == "v1"
