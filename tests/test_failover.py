"""Node failure / failover tests (§3.7's fault-tolerance model)."""

from repro.cluster import Cluster
from repro.cluster.shard import ShardId
from repro.config import ClusterConfig
from repro.migration import RemusMigration
from repro.migration.recovery import crash_migration, recover_migration
from repro.profiling import COUNTERS
from repro.storage.clog import TxnStatus
from repro.txn.errors import StaleEpoch, TransactionError
from repro.txn.transaction import TxnState
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def build():
    cluster = Cluster(ClusterConfig(num_nodes=3))
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(num_tuples=600, num_shards=6, num_clients=6,
                   tuple_size=256, think_time=0.004),
    )
    workload.create()
    return cluster, workload


def test_failed_node_blocks_new_work_until_failover():
    cluster, workload = build()
    session = cluster.session("node-2")
    key = sorted(cluster.nodes["node-1"].heaps[
        cluster.shards_on_node("node-1", table="ycsb")[0]
    ].keys())[0]
    times = {}

    def reader():
        yield 0.1  # after the failure below
        txn = yield from session.begin(label="r")
        value = yield from session.read(txn, "ycsb", key)
        yield from session.commit(txn)
        times["done"] = cluster.sim.now
        times["value"] = value

    cluster.spawn(reader())
    cluster.fail_node("node-1", failover_time=1.0)
    cluster.run(until=5.0)
    # The read had to wait for the failover to complete.
    assert times["done"] >= 1.0
    assert times["value"] == {"f0": key}


def test_failover_aborts_in_flight_txns_but_keeps_committed_data():
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    cluster.fail_node("node-2", failover_time=0.5)
    cluster.run(until=3.0)
    pool.stop()
    cluster.run(until=3.5)
    # Some transactions died with the node; all committed data survives.
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples
    assert cluster.metrics.abort_count(kind="migration") >= 0
    crashes = [
        (p.name, e) for p, e in cluster.sim.failed_processes
    ]
    assert not crashes, crashes


def test_throughput_dips_during_failover_and_recovers():
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=1.0)
    cluster.fail_node("node-1", failover_time=1.0)
    cluster.run(until=4.0)
    pool.stop()
    cluster.run(until=4.5)
    metrics = cluster.metrics
    before = metrics.average_throughput(label="ycsb", start=0.2, end=1.0)
    during = metrics.average_throughput(label="ycsb", start=1.1, end=1.9)
    after = metrics.average_throughput(label="ycsb", start=2.5, end=4.0)
    assert during < 0.8 * before
    assert after > during


def test_fail_node_is_deterministic_across_runs():
    """Same seed, same failover scenario => bit-identical event timeline.

    Chaos replayability rests on this: a node crash plus failover under a
    running workload must not introduce any hidden nondeterminism."""

    def run_once():
        cluster, workload = build()
        pool = workload.make_clients()
        pool.start()
        cluster.run(until=0.5)
        cluster.fail_node("node-2", failover_time=0.5)
        cluster.run(until=2.5)
        pool.stop()
        cluster.run(until=3.0)
        return (
            tuple(cluster.metrics.marks),
            cluster.network.messages_sent,
            sorted(cluster.dump_table("ycsb").items()),
        )

    first = run_once()
    second = run_once()
    assert first == second


def test_source_failure_mid_migration_then_recovery():
    """Crash the migration source before T_m; fail the node over; run the
    §3.7 recovery: the migration rolls back and can be retried."""
    from repro.config import CostModel

    cluster = Cluster(
        ClusterConfig(num_nodes=3, costs=CostModel(snapshot_scan_per_tuple=2e-3))
    )
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(num_tuples=600, num_shards=6, num_clients=4,
                   tuple_size=256, think_time=0.004),
    )
    workload.create()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    cluster.run(until=0.6)  # mid snapshot copy
    assert migration.stats.tm_commit_ts is None
    # The source primary dies: the migration machinery dies with it.
    proc.interrupt("source node failed")
    cluster.fail_node("node-1", failover_time=0.5)
    cluster.run(until=1.5)
    residual = crash_migration(migration)
    recovery = cluster.spawn(recover_migration(cluster, migration, residual))
    cluster.run(until=10.0)
    assert recovery.result() == "rolled_back"
    # Retry after failover succeeds.
    retry = RemusMigration(cluster, [shard], "node-1", "node-2")
    retry_proc = cluster.spawn(retry.run())
    cluster.run(until=40.0)
    retry_proc.result()
    assert cluster.shard_owner(shard) == "node-2"
    pool.stop()
    cluster.run(until=41.0)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples


# ----------------------------------------------------------------------
# Replica failover during 2PC (epoch-fenced commit)
# ----------------------------------------------------------------------
def build_replicated():
    COUNTERS.reset()
    cluster = Cluster(ClusterConfig(num_nodes=4))
    cluster.create_table("counters", num_shards=3, tuple_size=64)
    cluster.bulk_load("counters", [(k, {"n": 0}) for k in range(90)])
    cluster.enable_replication("counters", n_followers=2)
    shard_id = ShardId("counters", 0)
    schema = cluster.tables["counters"]
    key = next(k for k in range(90) if schema.shard_for_key(k) == shard_id)
    return cluster, cluster.replication.group_for(shard_id), key


def no_orphaned_prepares(cluster):
    orphans = []
    for node_id, node in cluster.nodes.items():
        orphans += [
            (node_id, xid)
            for xid, status in node.clog.statuses()
            if status is TxnStatus.PREPARED
        ]
    return orphans


def _probe_txn(cluster, key, crash_group=None, commit_delay=0.0, out=None):
    """Driver generator: one read-modify-write on ``key``; optionally crash
    ``crash_group``'s leader after the writes, wait ``commit_delay``, then
    commit — recording the outcome instead of raising."""
    session = cluster.session("node-3")
    txn = yield from session.begin(label="probe")
    try:
        row = yield from session.read(txn, "counters", key)
        yield from session.update(txn, "counters", key, {"n": row["n"] + 1})
        out["txn"] = txn
        if crash_group is not None:
            crash_group.crash_replica(crash_group.leader_node_id)
        if commit_delay:
            yield commit_delay
        out["committed"] = yield from session.commit(txn)
    except TransactionError as exc:
        out["error"] = exc
        try:
            yield from session.abort(txn)
        except TransactionError:
            pass


def test_leader_crash_between_prepare_and_commit_commits_exactly_once():
    """Satellite: a transaction prepared against the group leader survives
    that leader dying before the commit decision is delivered — the
    coordinator re-resolves through the group and the commit lands on the
    new leader exactly once (never wedged, never double-committed)."""
    cluster, group, key = build_replicated()
    out = {}
    cluster.spawn(
        _probe_txn(cluster, key, out=out), name="probe"
    )

    def crasher():
        # Crash the leader the moment the probe enters its commit phase
        # (prepare acks in, decision not yet quorum-replicated).
        while "txn" not in out or out["txn"].state is not TxnState.COMMITTING:
            if "committed" in out or "error" in out:
                return
            yield 1e-4
        group.crash_replica(group.leader_node_id)

    cluster.spawn(crasher(), name="crasher")
    cluster.run(until=5.0)
    assert "committed" in out, out.get("error")
    assert group.epoch == 2
    assert COUNTERS.failover_elections == 1
    # Exactly once: the increment is visible exactly once on the new leader.
    assert cluster.dump_table("counters")[key] == {"n": 1}
    assert no_orphaned_prepares(cluster) == []
    assert not cluster.sim.failed_processes


def test_stale_epoch_prepare_rejected_then_retry_commits():
    """Satellite: a prepare that lands after an election is fenced by the
    shard-map epoch — the participant rejects it, the coordinator aborts
    cleanly (no orphaned PREPARED entries), and the client's retry commits
    exactly once on the new leader."""
    cluster, group, key = build_replicated()
    out = {}
    # The delay is tuned so the election completes while the prepare's WAL
    # flush is in flight: validation then sees epoch 2 against the txn's
    # routed epoch 1 (default cost model; retune if flush costs change).
    cluster.spawn(
        _probe_txn(cluster, key, crash_group=group, commit_delay=0.1998, out=out),
        name="probe",
    )
    cluster.run(until=5.0)
    assert isinstance(out.get("error"), StaleEpoch), out
    assert COUNTERS.stale_epoch_rejects >= 1
    assert group.epoch == 2
    assert cluster.dump_table("counters")[key] == {"n": 0}
    assert no_orphaned_prepares(cluster) == []
    # The client-style retry re-routes through the shard map and commits on
    # the new leader.
    out2 = {}
    cluster.spawn(_probe_txn(cluster, key, out=out2), name="retry")
    cluster.run(until=10.0)
    assert "committed" in out2, out2.get("error")
    assert cluster.dump_table("counters")[key] == {"n": 1}
    assert no_orphaned_prepares(cluster) == []
    assert not cluster.sim.failed_processes


def test_election_dooms_active_writers_cleanly():
    """A transaction still ACTIVE when its shard's leader is deposed is
    doomed by the election (its snapshot lives on the dead leader) and
    aborts cleanly; nothing is left prepared and no update is lost."""
    cluster, group, key = build_replicated()
    out = {}
    cluster.spawn(
        _probe_txn(cluster, key, crash_group=group, commit_delay=0.5, out=out),
        name="probe",
    )
    cluster.run(until=5.0)
    assert "error" in out and "committed" not in out
    assert cluster.dump_table("counters")[key] == {"n": 0}
    assert no_orphaned_prepares(cluster) == []
    assert not cluster.sim.failed_processes
