"""Unit tests for the MVCC storage engine: CLOG, WAL, heap, visibility."""

import gc

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.profiling.counters import COUNTERS
from repro.sim import Simulator
from repro.sim.resources import CpuResource
from repro.storage import (
    Clog,
    HeapTable,
    Snapshot,
    TxnStatus,
    Wal,
    WalRecord,
    WalRecordKind,
    WalTailer,
)
from repro.storage.tuples import BOOTSTRAP_XID, RESERVED_MIN_TS


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


def change(shard, key, kind=WalRecordKind.INSERT):
    return WalRecord(kind, xid=1, shard_id=shard, key=key)


def start_tailer(sim, wal, from_lsn=0, cost=1.0, batch=1):
    """A tailer over shard "a" on a 1-slot CPU; returns (tailer, handled)
    where ``handled`` collects (lsn, sim time) per handled record."""
    tailer = WalTailer(wal, ["a"], from_lsn, CpuResource(sim, 1), cost, batch)
    handled = []
    sim.spawn(tailer.run(lambda record: handled.append((record.lsn, sim.now))))
    return tailer, handled


def test_wal_tailer_skipped_records_pay_their_charges(sim):
    """Every record passed costs ``cost`` — one charge per ``batch`` records
    at the instant the boundary is crossed — but only shard "a" changes and
    control records reach the handler."""
    wal = Wal(sim)
    for record in (
        change("a", 0),
        change("b", 1),
        change("b", 2),
        change("b", 3),
        WalRecord(WalRecordKind.COMMIT, xid=1),
        change("a", 5),
    ):
        wal.append(record)
    skipped = COUNTERS.migration_pump_skipped
    tailer, handled = start_tailer(sim, wal, batch=2)
    sim.run(until=10.0)
    # lsn 0 handled before any charge; the gap (1-3) crosses two batch
    # boundaries (t=2, t=4) before the COMMIT; lsn 5 closes the third.
    assert handled == [(0, 0.0), (4, 4.0), (5, 6.0)]
    assert COUNTERS.migration_pump_skipped - skipped == 3
    assert tailer.handled_lsn == wal.tail_lsn and tailer.lag == 0


def test_wal_tailer_waits_at_the_tail(sim):
    wal = Wal(sim)
    tailer, handled = start_tailer(sim, wal, batch=100)
    sim.schedule(3.0, wal.append, WalRecord(WalRecordKind.COMMIT, xid=7))
    sim.run(until=5.0)
    assert handled == [(0, 3.0)]
    assert tailer.handled_lsn == 1


def test_wal_tailer_starts_mid_log(sim):
    wal = Wal(sim)
    for k in range(5):
        wal.append(change("a", k, WalRecordKind.UPDATE))
    tailer, handled = start_tailer(sim, wal, from_lsn=3, batch=100)
    assert tailer.lag == 2
    sim.run(until=1.0)
    assert [lsn for lsn, _t in handled] == [3, 4]
    assert tailer.handled_lsn == 5 and tailer.lag == 0


def test_wal_tailer_handled_trails_consumed_only_inside_a_charge(sim):
    """A routed record is consumed, then charged, then handled: only while
    parked in that charge does handled_lsn trail the consumed cursor, by
    exactly one. A skipped record is handled the moment it is consumed, so
    a charge paid for a gap leaves no distance."""
    wal = Wal(sim)
    for record in (change("a", 0), change("b", 1), change("a", 2)):
        wal.append(record)
    tailer, handled = start_tailer(sim, wal, cost=1.0, batch=1)
    trail = []

    def probe():
        for _ in range(4):
            yield 0.5 if not trail else 1.0
            consumed = wal.tail_lsn - tailer.lag
            trail.append(consumed - tailer.handled_lsn)

    sim.spawn(probe())
    sim.run(until=5.0)
    # t=0.5: lsn 0's charge; t=1.5: the gap's; t=2.5: lsn 2's; t=3.5: idle.
    assert trail == [1, 0, 1, 0]
    assert handled == [(0, 1.0), (2, 3.0)]


def test_wal_recycle_keeps_what_a_tailer_a_hold_or_an_active_change_needs(sim):
    """Recycling stops at the lowest of the floor it is given (the oldest
    active change), a live tailer's handled_lsn and every hold; LSNs stay
    absolute and a recycled one cannot be read."""
    wal = Wal(sim)
    for k in range(10):
        wal.append(change("b", k))
    tailer = WalTailer(wal, ["a"], 4, CpuResource(sim, 1), 1.0, 1)
    wal.hold("migration", 6)
    assert wal.recycle(8) == 4  # the tailer has handled nothing below 4
    assert wal.tail_lsn == 10 and wal.record(4).lsn == 4
    with pytest.raises(LookupError):
        wal.record(3)
    tailer.handled_lsn = 9  # as if it had moved on
    assert wal.recycle(8) == 2  # the hold at 6
    wal.release("migration")
    assert wal.recycle(8) == 2  # the oldest active change at 8
    assert wal.recycle(20) == 1  # the tailer at 9
    assert [wal.record(lsn).key for lsn in (9,)] == [9]
    assert wal.append(change("b", 10)) == 10


def test_wal_tailer_started_at_a_held_lsn_reads_every_record_after_a_recycle(sim):
    """A migration holds its destination's WAL at the position it started
    from; a tailer built from there after recycles (and one already running,
    whose route cursors the recycle shifts) still handles every record."""
    wal = Wal(sim)
    for k in range(3):
        wal.append(change("a", k))
    early, early_handled = start_tailer(sim, wal, batch=100)
    sim.run(until=1.0)
    wal.hold("migration", 3)
    for k in range(3, 8):
        wal.append(change("a" if k % 2 else "b", k))
        wal.append(WalRecord(WalRecordKind.COMMIT, xid=k))
    sim.run(until=2.0)
    assert wal.recycle(wal.tail_lsn) == 3  # the held floor
    with pytest.raises(LookupError):
        wal.record(2)
    with pytest.raises(LookupError):
        WalTailer(wal, ["a"], 2, CpuResource(sim, 1), 1.0, 1)
    late, late_handled = start_tailer(sim, wal, from_lsn=3, batch=100)
    for k in range(8, 10):
        wal.append(change("a", k))
    assert wal.recycle(wal.tail_lsn) == 0  # the late tailer has not run yet
    sim.run(until=3.0)
    routed = [3, 4, 6, 7, 8, 10, 11, 12, 13, 14]  # shard a and commits
    assert [lsn for lsn, _t in early_handled] == [0, 1, 2] + routed
    assert [lsn for lsn, _t in late_handled] == routed
    wal.release("migration")
    assert wal.recycle(wal.tail_lsn) == wal.tail_lsn - 3
    wal.append(change("a", 10))
    sim.run(until=4.0)
    assert early_handled[-1][0] == late_handled[-1][0] == 15


def test_wal_recycled_routing_index_drops_its_lsns(sim):
    wal = Wal(sim)
    for k in range(6):
        wal.append(change("a" if k % 2 else "b", k))
    change_index, control_index = wal.routing_index()
    wal.append(WalRecord(WalRecordKind.COMMIT, xid=1))
    assert wal.recycle(4) == 4
    assert change_index == {"a": [5], "b": [4]} and control_index == [6]


def test_wal_recycling_is_bounded_after_a_remus_migration(monkeypatch):
    """After a smoke-size ``load_balancing`` Remus run every node keeps no
    more WAL records than it appended since its last vacuum pass plus those
    held back at that pass, and recycling did happen."""
    from repro.experiments import common, registry

    passes = {}
    recycle = Wal.recycle

    def recording_recycle(wal, floor):
        held = min(
            [floor, wal.tail_lsn]
            + [tailer.handled_lsn for tailer in wal._tailers]
            + list(wal._holds.values())
        )
        passes[wal] = (wal.tail_lsn, held)
        return recycle(wal, floor)

    clusters = []

    def recording_cluster(*args, **kwargs):
        clusters.append(Cluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(Wal, "recycle", recording_recycle)
    monkeypatch.setattr(common, "Cluster", recording_cluster)
    spec = registry.get("load_balancing")
    registry.run(spec, approach="remus", seed=0, **dict(spec.smoke))
    (cluster,) = clusters
    recycled = 0
    for node in cluster.nodes.values():
        wal = node.wal
        tail_at_pass, held = passes[wal]
        kept = len(wal._records)
        assert kept <= (wal.tail_lsn - tail_at_pass) + (tail_at_pass - held)
        recycled += wal.tail_lsn - kept
    assert recycled > 0


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


def test_vacuum_skips_frozen_rows_until_first_delete(sim, heap, clog):
    """The bootstrap variant: bulk-installed rows are frozen, and the one
    a deleter stamps materializes and is vacuumed like any other."""
    clog.begin(BOOTSTRAP_XID)
    clog.set_committed(BOOTSTRAP_XID, RESERVED_MIN_TS)
    heap.bulk_install((key, "loaded") for key in range(50))
    assert heap.version_count == 50 and heap.chain_length(7) == 1
    assert vacuum_visiting(heap, 10) == (0, 0)
    clog.begin(2)
    (version,) = heap.chain(7)
    assert (version.xmin, version.value) == (BOOTSTRAP_XID, "loaded")
    heap.mark_deleted(version, 2)
    assert vacuum_visiting(heap, 10) == (0, 1)  # deleter in progress
    clog.set_committed(2, 5)
    assert vacuum_visiting(heap, 10) == (1, 1)
    assert 7 not in heap and heap.key_count == 49 and heap.version_count == 49
    assert vacuum_visiting(heap, 10) == (0, 0)


def test_frozen_row_reads_store_nothing_and_writes_materialize_in_place(sim, heap, clog):
    clog.begin(BOOTSTRAP_XID)
    clog.set_committed(BOOTSTRAP_XID, RESERVED_MIN_TS)
    heap.bulk_install([("a", "A"), ("b", "B"), ("c", "C")])
    snapshot = Snapshot(5)
    assert run(sim, heap.read("b", snapshot)) == ("B", 1)
    version, traversed = run(sim, heap.visible_version("b", snapshot))
    assert (version.xmin, version.value, traversed) == (BOOTSTRAP_XID, "B", 1)
    assert heap.scan_visible_fast("b", snapshot).value == "B"
    assert heap.committed_version("b").value == "B"
    assert run(sim, heap.visible_version("b", snapshot))[0] is not version
    latest = heap.latest_committed_or_locked("b")  # a writer's entry point
    assert latest is heap.latest_committed_or_locked("b") is heap.chain("b")[0]
    clog.begin(1)
    heap.mark_deleted(latest, 1)
    heap.put_version("b", "B2", 1)
    heap.put_version("c", "C2", 1)  # over a frozen row: the row goes under it
    clog.set_committed(1, 3)
    assert list(heap.keys()) == ["a", "b", "c"]
    assert [v.value for v in heap.chain("c")] == ["C2", "C"]
    assert heap.chain_length("b") == heap.chain_length("c") == 2
    assert run(sim, heap.read("b", snapshot)) == ("B2", 1)
    assert run(sim, heap.read("b", Snapshot(2))) == ("B", 2)


def test_bulk_install_adds_no_tracked_object_per_row():
    """Shape guard: a loaded row is frozen, its bare value in the heap's
    dict, with no version object for the garbage collector to track."""
    cluster = Cluster(ClusterConfig(num_nodes=1))
    cluster.create_table("kv", num_shards=1)
    shard = cluster.tables["kv"].shard_ids()[0]
    node = cluster.nodes[cluster.shard_owner(shard)]
    node.heap_for(shard)
    rows = [(key, key) for key in range(10_000)]
    gc.collect()
    before = len(gc.get_objects())
    node.bulk_install(shard, rows)
    assert len(gc.get_objects()) - before <= 50


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
