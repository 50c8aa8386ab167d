"""Focused tests for the propagation pipeline (§3.3) and migration base."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.migration.base import MigrationStats, consolidation_batches
from repro.migration.propagation import Propagation
from repro.storage.wal import WalRecord, WalRecordKind


@pytest.fixture
def cluster():
    c = Cluster(ClusterConfig(num_nodes=2))
    c.create_table("t", num_shards=2, tuple_size=100)
    c.bulk_load("t", [(k, {"v": k}) for k in range(40)])
    return c


def make_propagation(cluster, snapshot_ts=0):
    shard_ids = cluster.tables["t"].shard_ids()
    stats = MigrationStats()
    prop = Propagation(
        cluster, shard_ids, "node-1", "node-2", snapshot_ts, from_lsn=0, stats=stats
    )
    return prop, stats


def wal_change(cluster, xid, shard_id, key, value, start_ts=1):
    cluster.nodes["node-1"].wal.append(
        WalRecord(
            WalRecordKind.INSERT,
            xid=xid,
            shard_id=shard_id,
            key=key,
            value=value,
            size=100,
            start_ts=start_ts,
        )
    )


def test_cache_dropped_on_abort(cluster):
    prop, stats = make_propagation(cluster)
    shard = cluster.tables["t"].shard_ids()[0]
    prop.start()
    wal_change(cluster, xid=900, shard_id=shard, key=1000, value={"v": 1})
    cluster.run(until=0.1)
    assert prop.pending_records == 1
    cluster.nodes["node-1"].wal.append(WalRecord(WalRecordKind.ABORT, xid=900))
    cluster.run(until=0.2)
    assert prop.pending_records == 0
    assert stats.records_applied == 0
    prop.stop()


def test_cache_dropped_when_commit_predates_snapshot(cluster):
    prop, stats = make_propagation(cluster, snapshot_ts=10**9)
    shard = cluster.tables["t"].shard_ids()[0]
    prop.start()
    wal_change(cluster, xid=901, shard_id=shard, key=1001, value={"v": 1})
    cluster.nodes["node-1"].wal.append(
        WalRecord(WalRecordKind.COMMIT, xid=901, commit_ts=5)  # <= snapshot
    )
    cluster.run(until=0.2)
    assert prop.pending_records == 0
    assert stats.shadow_txns == 0
    prop.stop()


def test_records_for_other_shards_ignored(cluster):
    prop, stats = make_propagation(cluster)
    prop.start()
    wal_change(cluster, xid=902, shard_id=("other", 0), key=1, value={})
    cluster.run(until=0.1)
    assert prop.pending_records == 0
    prop.stop()


def test_async_apply_creates_committed_shadow(cluster):
    prop, stats = make_propagation(cluster)
    shard = cluster.tables["t"].shard_ids()[0]
    prop.start()
    # Simulate a committed source txn's records arriving via the WAL.
    node1 = cluster.nodes["node-1"]
    node1.clog.begin(903)
    wal_change(cluster, xid=903, shard_id=shard, key=2000, value={"v": "new"}, start_ts=1)
    node1.clog.set_committed(903, 100)
    node1.wal.append(WalRecord(WalRecordKind.COMMIT, xid=903, commit_ts=100))
    cluster.run(until=0.5)
    assert stats.shadow_txns == 1
    assert stats.records_applied == 1
    dest_heap = cluster.nodes["node-2"].heap_for(shard)
    assert 2000 in dest_heap
    # The shadow committed with the source's commit timestamp.
    version = dest_heap.latest_committed_or_locked(2000)
    assert cluster.nodes["node-2"].clog.commit_ts(version.xmin) == 100
    prop.stop()


def test_applied_watermark_advances_with_reader(cluster):
    prop, _stats = make_propagation(cluster)
    prop.start()
    shard = cluster.tables["t"].shard_ids()[0]
    for i in range(5):
        wal_change(cluster, xid=910 + i, shard_id=shard, key=3000 + i, value={})
    cluster.run(until=0.1)
    # All records consumed (cached); no replay in flight.
    assert prop.applied_watermark() == cluster.nodes["node-1"].wal.tail_lsn
    event = prop.wait_applied_through(cluster.nodes["node-1"].wal.tail_lsn)
    assert event.triggered
    prop.stop()


def test_spill_threshold_adds_reload_latency(cluster):
    costs = cluster.config.costs
    costs.spill_threshold = 3  # tiny, to trigger spilling
    prop, stats = make_propagation(cluster)
    shard = cluster.tables["t"].shard_ids()[0]
    node1 = cluster.nodes["node-1"]
    node1.clog.begin(920)
    for i in range(10):
        wal_change(cluster, xid=920, shard_id=shard, key=4000 + i, value={"v": i})
    node1.clog.set_committed(920, 50)
    prop.start()
    node1.wal.append(WalRecord(WalRecordKind.COMMIT, xid=920, commit_ts=50))
    cluster.run(until=5.0)
    assert stats.records_applied == 10
    prop.stop()


def test_consolidation_batches_cover_all_shards(cluster):
    batches = consolidation_batches(cluster, "node-1", table="t", group_size=1)
    moved = [s for group, _src, _dst in batches for s in group]
    assert set(moved) == set(cluster.shards_on_node("node-1", table="t"))
    assert all(src == "node-1" and dst != "node-1" for _g, src, dst in batches)


def test_migration_stats_merge():
    a = MigrationStats()
    b = MigrationStats()
    a.tuples_copied = 5
    a.sync_waits = 2
    a.sync_wait_total = 0.4
    b.tuples_copied = 7
    b.ww_conflicts = 1
    a.merge(b)
    assert a.tuples_copied == 12
    assert a.ww_conflicts == 1
    assert a.avg_sync_wait == pytest.approx(0.2)


def test_migration_rejects_wrong_source(cluster):
    from repro.migration import RemusMigration

    shard = cluster.shards_on_node("node-2", table="t")[0]
    with pytest.raises(ValueError, match="not on source"):
        RemusMigration(cluster, [shard], "node-1", "node-2")


def test_ww_conflict_interrupt_mid_abort_releases_slot(cluster):
    """Regression (SIM102): a crash-teardown Interrupt landing inside the
    WW-conflict shadow abort must still release the replay slot and the
    record accounting — the old handler-local cleanup skipped both, wedging
    ``drain()`` (and every later validation) on the leaked slot."""
    from repro.sim import Interrupt

    prop, stats = make_propagation(cluster)
    shard = cluster.shards_on_node("node-2", table="t")[0]

    class MoccStub:
        def __init__(self):
            self.results = []

        def post_result(self, xid, ok):
            self.results.append((xid, ok))

    mocc = MoccStub()
    prop.mocc = mocc  # synchronous mode, as MoccCoordinator.install() sets it
    prop.start()

    # A destination transaction commits key `key` at ts=100, after the
    # source transaction's snapshot (start_ts=1): the shadow's replayed
    # UPDATE hits first-updater-wins and raises SerializationFailure.
    node2 = cluster.nodes["node-2"]
    heap = node2.heap_for(shard)
    key = next(k for k in range(40) if k in heap)
    stomped = heap.latest_committed_or_locked(key)
    node2.clog.begin(777)
    heap.mark_deleted(stomped, 777)
    heap.put_version(key, {"v": "dest"}, 777)
    node2.clog.set_committed(777, 100)

    real_end = prop.end_shadow

    def crash_mid_abort(shadow, commit_ts=None):
        # Tear the migration down while the shadow abort is suspended —
        # interrupt() lands at this generator's next yield, i.e. inside
        # the SerializationFailure handler of _replay.
        task = next(
            e.process for e in prop._tasks
            if e.process is not None and e.process.name == "shadow-validate"
        )
        task.interrupt("teardown mid-abort")
        yield 0.0
        yield from real_end(shadow, commit_ts)

    prop.end_shadow = crash_mid_abort

    cluster.nodes["node-1"].wal.append(
        WalRecord(
            WalRecordKind.UPDATE,
            xid=950,
            shard_id=shard,
            key=key,
            value={"v": "src"},
            size=100,
            start_ts=1,
        )
    )
    cluster.nodes["node-1"].wal.append(
        WalRecord(WalRecordKind.PREPARE, xid=950, start_ts=1)
    )
    cluster.run(until=1.0)
    prop.end_shadow = real_end

    assert stats.ww_conflicts == 1
    # The leaked-slot bug: in_use stayed 1 forever and drain() wedged.
    assert prop._slots.in_use == 0
    assert prop._slots.queued == 0
    assert prop.pending_records == 0
    assert prop.unreplayed_records == 0
    assert not prop._inflight
    # The ack never went out (the task died first), and the only process
    # failure is the interrupted validate task itself.
    assert mocc.results == []
    failures = cluster.sim.failed_processes
    assert [type(exc) for _proc, exc in failures] == [Interrupt]
    assert failures[0][0].name == "shadow-validate"
    cluster.sim.failed_processes.clear()
    prop.crash()


def test_applied_watermark_waits_for_a_consumed_commit_to_be_handled():
    """Regression (publish before effect). The send process consumes a
    record, *then* pays its per-batch CPU charge, *then* handles it. A
    ``wait_applied_through(tail)`` registered inside that window used to
    fire at once, read off the consumed cursor, while the committed row was
    not yet on the destination: the guarantee Remus's mode change (§3.4)
    and the baselines' final catch-up rely on was void."""
    from repro.config import CostModel

    config = ClusterConfig(
        num_nodes=2, pump_batch_records=1, costs=CostModel(cpu_propagate=0.01)
    )
    cluster = Cluster(config)
    cluster.create_table("t", num_shards=2, tuple_size=100)
    cluster.bulk_load("t", [(k, {"v": k}) for k in range(40)])
    shard = cluster.shards_on_node("node-1", table="t")[0]
    source = cluster.nodes["node-1"]
    prop = Propagation(
        cluster, [shard], "node-1", "node-2", 0, from_lsn=source.wal.tail_lsn,
        stats=MigrationStats(),
    )
    prop.start()
    # A 2PC participant's records, all at t=0: one charge per record puts
    # the COMMIT_PREPARED's charge over (0.02, 0.03).
    source.clog.begin(960)
    wal_change(cluster, xid=960, shard_id=shard, key=5000, value={"v": "new"})
    source.wal.append(WalRecord(WalRecordKind.PREPARE, xid=960, start_ts=1))
    source.clog.set_committed(960, 100)
    source.wal.append(WalRecord(WalRecordKind.COMMIT_PREPARED, xid=960, commit_ts=100))
    cluster.run(until=0.0201)

    dest_heap = cluster.nodes["node-2"].heap_for(shard)
    fired = {}

    def on_fire(_event):
        version = dest_heap.latest_committed_or_locked(5000)
        fired["at"] = cluster.sim.now
        fired["row"] = None if version is None else version.value

    event = prop.wait_applied_through(source.wal.tail_lsn)
    assert not event.triggered, "fired on a consumed but unhandled COMMIT_PREPARED"
    event.add_callback(on_fire)
    cluster.run(until=1.0)
    assert fired["row"] == {"v": "new"}
    assert fired["at"] > 0.03
    prop.stop()


def test_prepare_consumed_but_not_yet_handled_waits_for_its_validation():
    """Regression (the MOCC wedge: 10 of 40 ``load_balancing`` seeds). The
    send process moves its cursor past a record, *then* may wait for its
    per-batch CPU charge, *then* handles the record. A source transaction
    whose PREPARE is caught in that window used to read the cursor, take
    itself for TS_unsync and commit unvalidated; the validation started a
    moment later left its shadow PREPARED for ever. Parked here on purpose:
    one charge per record, long enough to straddle the WAL flush."""
    from repro.config import CostModel
    from repro.migration.mocc import MoccCoordinator
    from repro.txn.transaction import TxnState

    config = ClusterConfig(
        num_nodes=2, pump_batch_records=1, costs=CostModel(cpu_propagate=0.01)
    )
    cluster = Cluster(config)
    cluster.create_table("t", num_shards=2, tuple_size=100)
    cluster.bulk_load("t", [(k, {"v": k}) for k in range(40)])
    shard = cluster.shards_on_node("node-1", table="t")[0]
    source = cluster.nodes["node-1"]
    stats = MigrationStats()
    prop = Propagation(
        cluster, [shard], "node-1", "node-2", 0, from_lsn=source.wal.tail_lsn, stats=stats
    )
    mocc = MoccCoordinator(cluster, [shard], stats, prop)
    mocc.install()
    prop.start()

    seen = {}
    expects_validation = mocc._expects_validation

    def probe(participant):
        # Consumed (the cursor is past it) but not handled (handling a
        # PREPARE moves the transaction's cached changes into a validation).
        seen["straddled"] = (
            participant.prepare_lsn < prop.tailer._consumed_lsn
            and participant.xid in prop._caches
        )
        seen["expects"] = expects_validation(participant)
        return seen["expects"]

    mocc._expects_validation = probe
    shadows = []
    make_shadow = prop._make_shadow

    def recording_make_shadow(*args, **kwargs):
        shadows.append(make_shadow(*args, **kwargs))
        return shadows[-1]

    prop._make_shadow = recording_make_shadow
    schema = cluster.tables["t"]
    key = next(k for k in range(1000, 2000) if schema.shard_for_key(k) == shard)
    session = cluster.session("node-1")

    def writer():
        txn = yield from session.begin(label="straddled")
        yield from session.insert(txn, "t", key, {"v": "new"})
        yield 0.05  # the pump has handled the INSERT and idles at the tail
        yield from session.commit(txn)
        seen["committed_at"] = cluster.sim.now

    cluster.sim.run_until_complete(cluster.spawn(writer()), limit=5.0)
    cluster.run(until=cluster.sim.now + 1.0)
    assert seen["straddled"], "the charge did not straddle the PREPARE"
    assert seen["expects"] and stats.sync_waits == 1  # the source waited for the ack
    assert seen["committed_at"] > 0.05 + 0.01  # ... which cannot precede the charge
    assert [shadow.state for shadow in shadows] == [TxnState.COMMITTED]
    assert not prop._shadows  # a finished shadow is let go
    assert cluster.nodes["node-2"].heap_for(shard).latest_committed_or_locked(key).value == {
        "v": "new"
    }
    prop.stop()


# ----------------------------------------------------------------------
# The replay backlog is data: a process per slot, not per transaction
# ----------------------------------------------------------------------
def _hot_remus_migration(scan_per_tuple, num_clients):
    """Write-only YCSB clients on two shards, and a Remus migration of
    node-1's shard (not yet run) whose copy costs ``scan_per_tuple`` each."""
    from repro.config import CostModel
    from repro.migration import RemusMigration
    from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

    cluster = Cluster(
        ClusterConfig(num_nodes=2, costs=CostModel(snapshot_scan_per_tuple=scan_per_tuple))
    )
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(num_tuples=400, num_shards=2, num_clients=num_clients, tuple_size=256,
                   think_time=0.002, read_ratio=0.0),
    )
    workload.create()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.2)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    return cluster, pool, migration, cluster.spawn(migration.run(), name="remus")


def test_replay_processes_never_outnumber_the_replay_slots(monkeypatch):
    """A snapshot copy that outlasts hundreds of commits to the migrating
    shard parks every one of them behind the apply gate. Sampled at every
    kernel step: no more than ``replay_parallelism`` replay or validation
    processes are alive at once, and an entry that has not been granted a
    slot owns no process. (Had every committed transaction its own
    process, more than 600 would be alive at the end of the copy.)"""
    from repro.sim.process import Process

    replays = []
    init = Process.__init__

    def recording_init(self, sim, generator, name=""):
        init(self, sim, generator, name)
        if self.name in ("async-apply", "shadow-validate"):
            replays.append(self)

    monkeypatch.setattr(Process, "__init__", recording_init)
    cluster, pool, migration, proc = _hot_remus_migration(2e-3, num_clients=4)
    slots = cluster.config.replay_parallelism
    peak = peak_parked = 0
    while not proc.finished:
        assert cluster.sim.step()
        replays[:] = [p for p in replays if not p.finished]
        peak = max(peak, len(replays))
        assert len(replays) <= slots
        prop = migration.propagation
        if prop is not None:
            parked = [
                t for t in prop._tasks if not isinstance(t, Process) and t.cursor is not None
            ]
            assert all(entry.process is None for entry in parked)
            peak_parked = max(peak_parked, len(parked))
    pool.stop()
    assert peak == slots and peak_parked > 500
    assert migration.stats.shadow_txns > 600


def test_validation_started_forgets_each_resolved_transaction():
    """MOCC asks ``validation_started`` only about a source transaction
    still preparing; its COMMIT or ABORT record retires the xid. After a
    migration whose dual execution validated several transactions, the set
    is empty (it kept every validated xid for the pipeline's lifetime)."""
    cluster, pool, migration, proc = _hot_remus_migration(2e-4, num_clients=8)
    cluster.sim.run_until_complete(proc, limit=30.0)
    pool.stop()
    assert migration.stats.sync_waits >= 5
    assert not migration.propagation.validation_started


def _commit_source_txn(cluster, xid, kind, key):
    """A committed source transaction with one change, as the WAL shows it."""
    shard = cluster.tables["t"].shard_ids()[0]
    wal = cluster.nodes["node-1"].wal
    wal.append(
        WalRecord(kind, xid=xid, shard_id=shard, key=key, value={"v": xid},
                  size=100, start_ts=1)
    )
    wal.append(WalRecord(WalRecordKind.COMMIT, xid=xid, commit_ts=100 + xid))


def _park_behind_gate(prop, entries):
    from repro.migration.propagation import _GATED

    prop.hold_applies()
    return lambda: len(entries) == 1 and entries[0].cursor == _GATED


def _park_behind_predecessor(prop, entries):
    return lambda: (
        len(entries) == 2 and entries[0].process is not None and entries[1].cursor == 1
    )


def _park_on_slot_queue(prop, entries):
    return lambda: (
        len(entries) == 2 and entries[1].request is not None
        and not entries[1].request.triggered
    )


def _gate_release_queued(prop, entries):
    """Behind the gate, released in the crash's own instant: the entry's
    wakeup is queued when the crash comes."""
    gated = _park_behind_gate(prop, entries)

    def reached():
        if not gated():
            return False
        prop.release_applies()
        return True

    return reached


def _granted_not_yet_run(prop, entries):
    return lambda: (
        len(entries) == 2 and entries[1].request is not None
        and entries[1].request.triggered and entries[1].process is None
    )


@pytest.mark.parametrize(
    "state",
    [
        _park_behind_gate, _gate_release_queued, _park_behind_predecessor,
        _park_on_slot_queue, _granted_not_yet_run,
    ],
)
def test_crash_sweep_clears_an_entry_in_every_pre_grant_state(state):
    """``crash()`` with the last committed transaction's entry
    parked behind the apply gate, released from it in this instant, behind
    an unfinished predecessor, queued on the slot ``Resource``, or granted
    a slot in this instant but not yet run. In the two same-instant states
    the entry's wakeup is already queued when the crash comes. Afterwards
    the entry never started a replay, no slot is held or queued, no record
    is counted, nothing is in flight, ``drain()`` returns, no shadow is
    ACTIVE and no process failed."""
    from repro.migration.propagation import _Replay
    from repro.txn.transaction import TxnState

    cluster = Cluster(ClusterConfig(num_nodes=2, replay_parallelism=1))
    cluster.create_table("t", num_shards=2, tuple_size=100)
    prop, _stats = make_propagation(cluster)
    shadows = []
    make_shadow = prop._make_shadow

    def recording_make_shadow(*args, **kwargs):
        shadows.append(make_shadow(*args, **kwargs))
        return shadows[-1]

    prop._make_shadow = recording_make_shadow
    entries = []
    enqueue = prop._enqueue

    def recording_enqueue(*args):
        enqueue(*args)
        entries.append(next(reversed(list(prop._inflight))))

    prop._enqueue = recording_enqueue
    replayed = []
    replay = prop._replay

    def recording_replay(entry, *args):
        replayed.append(entry)
        return replay(entry, *args)

    prop._replay = recording_replay
    reached = state(prop, entries)
    prop.start()
    _commit_source_txn(cluster, 1, WalRecordKind.INSERT, 2000)
    if state not in (_park_behind_gate, _gate_release_queued):
        same_key = state is _park_behind_predecessor
        _commit_source_txn(
            cluster, 2, WalRecordKind.UPDATE if same_key else WalRecordKind.INSERT,
            2000 if same_key else 2001,
        )
    sim = cluster.sim
    while not reached():
        assert sim.now < 1.0 and sim.step()
    parked = entries[-1]
    assert type(parked) is _Replay and parked.process is None
    queued = any(call[2] is parked and call[0] == sim.now for call in sim._heap)
    assert queued is (state in (_gate_release_queued, _granted_not_yet_run))
    prop.crash()
    cluster.run(until=sim.now + 1.0)

    assert parked not in replayed and parked.process is None
    assert prop._slots.in_use == 0 and prop._slots.queued == 0
    assert prop.pending_records == prop.unreplayed_records == 0
    assert not prop._inflight and not prop._tasks
    drain = cluster.spawn(prop.drain())
    cluster.run(until=cluster.sim.now + 0.1)
    assert drain.finished
    assert all(shadow.state is not TxnState.ACTIVE for shadow in shadows)
    assert not cluster.sim.failed_processes
