"""Crash-recovery tests for in-flight Remus migrations (§3.7)."""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.migration import RemusMigration
from repro.migration.recovery import crash_migration, recover_migration
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def build():
    from repro.config import CostModel

    # Stretch the snapshot copy so there is a window to crash in.
    cluster = Cluster(
        ClusterConfig(num_nodes=3, costs=CostModel(snapshot_scan_per_tuple=2e-3))
    )
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(num_tuples=600, num_shards=6, num_clients=4,
                   tuple_size=256, think_time=0.004),
    )
    workload.create()
    return cluster, workload


def recover(cluster, migration, residual):
    proc = cluster.spawn(recover_migration(cluster, migration, residual))
    cluster.run(until=cluster.sim.now + 30.0)
    assert proc.finished
    return proc.result()


def test_crash_before_tm_rolls_back():
    """A crash before T_m leaves the source authoritative; the destination's
    partial copy is dropped and the migration can be retried."""
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    # Crash mid snapshot copy / propagation, before T_m exists.
    cluster.run(until=0.6)
    assert migration.stats.tm_commit_ts is None
    proc.interrupt("crash")
    cluster.run(until=0.7)
    residual = crash_migration(migration)
    outcome = recover(cluster, migration, residual)
    assert outcome == "rolled_back"
    assert cluster.shard_owner(shard) == "node-1"
    assert not cluster.nodes["node-2"].has_shard_data(shard)
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples

    # The migration can be initiated again and completes.
    retry = RemusMigration(cluster, [shard], "node-1", "node-2")
    retry_proc = cluster.spawn(retry.run())
    cluster.run(until=cluster.sim.now + 30.0)
    assert retry_proc.finished
    retry_proc.result()
    assert cluster.shard_owner(shard) == "node-2"
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples


def test_crash_after_tm_continues_migration():
    """A crash after T_m committed: the destination owns the shard; recovery
    completes the migration without losing any committed write."""
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]

    # A long transaction keeps dual execution open so we can crash inside it.
    session = cluster.session("node-3")

    def long_txn():
        txn = yield from session.begin(label="long")
        keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
        yield from session.read(txn, "ycsb", keys[0])
        yield 5.0
        if not txn.finished:
            yield from session.abort(txn)

    cluster.spawn(long_txn())
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    # Let it run until T_m commits (dual execution), then crash.
    while migration.stats.tm_commit_ts is None and not proc.finished:
        cluster.run(until=cluster.sim.now + 0.02)
    assert not proc.finished, "migration finished before we could crash it"
    proc.interrupt("crash")
    cluster.run(until=cluster.sim.now + 0.05)
    residual = crash_migration(migration)
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    outcome = recover(cluster, migration, residual)
    assert outcome == "completed"
    assert cluster.shard_owner(shard) == "node-2"
    assert not cluster.nodes["node-1"].has_shard_data(shard)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples


def test_crash_after_tm_recovers_under_live_workload():
    """The "completed" recovery path with the YCSB workload still running
    *through* the recovery: post-T_m the destination is authoritative, new
    transactions keep routing there while recovery repairs the copy, and no
    committed write is lost."""
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]

    # A long transaction keeps dual execution open so the crash lands inside.
    session = cluster.session("node-3")

    def long_txn():
        txn = yield from session.begin(label="long")
        keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
        yield from session.read(txn, "ycsb", keys[0])
        yield 5.0
        if not txn.finished:
            yield from session.abort(txn)

    cluster.spawn(long_txn())
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    while migration.stats.tm_commit_ts is None and not proc.finished:
        cluster.run(until=cluster.sim.now + 0.02)
    assert not proc.finished, "migration finished before we could crash it"
    proc.interrupt("crash")
    cluster.run(until=cluster.sim.now + 0.05)
    residual = crash_migration(migration)
    # NOTE: the client pool keeps committing during the whole recovery.
    outcome = recover(cluster, migration, residual)
    assert outcome == "completed"
    assert cluster.shard_owner(shard) == "node-2"
    cluster.run(until=cluster.sim.now + 0.5)
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples
    # The deliberately interrupted migration process is the only casualty;
    # no client or background process may have died.
    crashes = [
        (p.name, e) for p, e in cluster.sim.failed_processes
        if p.name != "migration"
    ]
    assert not crashes, crashes


def _recover_residual_shadow(source_commits, settle):
    """Crash a Remus migration while a validated shadow awaits its source's
    decision, then recover after ``settle`` seconds; ``source_commits`` picks
    whether the source is already committing or still waiting for its
    validation ack."""
    from repro.txn.transaction import TxnState

    cluster, workload = build()
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
    session = cluster.session("node-1")
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")

    # Drive a source transaction into its validation stage mid-migration by
    # writing while in sync mode, then crash before the commit record ships.
    outcome = {}

    def writer():
        txn = outcome["txn"] = yield from session.begin(label="writer")
        yield from session.update(txn, "ycsb", keys[0], {"f0": "recovered"})
        yield 0.8  # stay open across the sync barrier
        try:
            yield from session.commit(txn)
            outcome["committed"] = True
        except Exception:
            if not txn.finished:
                yield from session.abort(txn)
            outcome["committed"] = False

    def crash_point():
        if not migration.propagation._validated:
            return False
        return not source_commits or outcome["txn"].state is TxnState.COMMITTING

    proc = cluster.spawn(migration.run(), name="migration")
    cluster.spawn(writer())
    while migration.stats.tm_commit_ts is None and not proc.finished:
        cluster.run(until=cluster.sim.now + 0.02)
    while not crash_point() and not proc.finished:
        cluster.sim.step()
    assert not proc.finished
    proc.interrupt("crash")
    residual = crash_migration(migration)
    if settle:
        cluster.run(until=cluster.sim.now + settle)
    recover(cluster, migration, residual)
    return cluster, keys[0], outcome["committed"], residual


def test_residual_prepared_shadow_committed_iff_source_committed():
    """Prepared shadows take the same action as their source transaction,
    and end like every other transaction: finished, out of the registry.

    Once the crashed source still waits for its validation ack (it is
    terminated, so the shadow rolls back), once it is already committing
    (the shadow commits at the source's commit timestamp). Each case runs
    after the supervisor's settle time and with no settle at all: recovery
    must learn a still-PREPARED source's decision, never presume it."""
    from repro.migration.supervisor import GRACE

    cases = [(c, s) for c in (False, True) for s in (GRACE, 0.0)]
    for source_commits, settle in cases:
        cluster, key, committed, residual = _recover_residual_shadow(
            source_commits, settle
        )
        assert residual, "no prepared shadow left for recovery to resolve"
        assert committed is source_commits
        # The committed value is consistent on the new owner.
        dump = cluster.dump_table("ycsb")
        if committed:
            assert dump[key] == {"f0": "recovered"}
        else:
            assert dump[key] == {"f0": key}
        dest_clog = cluster.nodes["node-2"].clog
        for shadow, _entry in residual.values():
            status = dest_clog.status(shadow.participant("node-2").xid)
            assert shadow.finished
            assert shadow.state.value == status.value
            assert shadow.tid not in cluster.active_txns


def test_lossy_destination_mid_replay_wounds_and_recovers():
    """A destination link that turns lossy mid-replay must surface through
    ``Propagation.wounded`` (never a hang), trigger supervised crash
    recovery, and leave no replay slot leaked."""
    from repro.migration import MigrationPlan
    from repro.migration.supervisor import MigrationSupervisor

    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = MigrationPlan(RemusMigration, [([shard], "node-1", "node-2")])
    supervisor = MigrationSupervisor(cluster, plan)
    proc = cluster.spawn(supervisor.run(), name="supervised-plan")

    wounded_pipelines = []

    def nemesis():
        # Fire at the exact async-propagation phase entry: the buffered
        # replay burst is about to ship, so its transfers hit the dead link.
        yield supervisor.phase_event("async_propagation")
        propagation = supervisor.current.propagation
        cluster.network.set_loss("node-1", "node-2", 1.0)
        while propagation.wounded is None:
            yield 0.01
        wounded_pipelines.append(propagation)
        yield 0.2  # keep the link down through the watchdog's crash
        cluster.network.set_loss("node-1", "node-2", 0.0)

    cluster.spawn(nemesis(), name="nemesis")
    cluster.run(until=60.0)
    assert proc.finished
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)

    assert wounded_pipelines, "the lossy link never wounded the pipeline"
    propagation = wounded_pipelines[0]
    # No leaked replay slots: every interrupted task released its slot.
    assert propagation._slots.in_use == 0
    assert propagation._slots.queued == 0
    assert plan.stats.crash_recoveries >= 1
    # Recovery (plus the batch retry) finished the move without losing data.
    assert cluster.shard_owner(shard) == "node-2"
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples
