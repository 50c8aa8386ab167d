"""Integration tests for Remus migrations under live workloads."""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.migration import MigrationPlan, RemusMigration, run_plan
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def build(num_nodes=3, num_tuples=600, num_shards=6, num_clients=6, seed=0):
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(
            num_tuples=num_tuples,
            num_shards=num_shards,
            num_clients=num_clients,
            tuple_size=256,
            think_time=0.004,
        ),
    )
    workload.create()
    return cluster, workload


def migrate_one(cluster, shard_ids, source, dest, runtime=10.0, approach=RemusMigration, **kwargs):
    plan = MigrationPlan(approach, [(shard_ids, source, dest)], **kwargs)
    proc = cluster.spawn(run_plan(cluster, plan), name="migration")
    cluster.run(until=runtime)
    assert proc.finished, "migration did not finish within the run window"
    proc.result()  # re-raise failures
    return plan


def test_remus_idle_migration_moves_all_data():
    cluster, workload = build()
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    before = cluster.dump_table("ycsb")
    migrate_one(cluster, [shard], "node-1", "node-2")
    assert cluster.shard_owner(shard) == "node-2"
    assert cluster.dump_table("ycsb") == before
    assert not cluster.nodes["node-1"].has_shard_data(shard)
    assert cluster.nodes["node-2"].has_shard_data(shard)


def test_remus_under_load_loses_no_data_and_aborts_nothing():
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=1.0)
    shards = cluster.shards_on_node("node-1", table="ycsb")[:2]
    migrate_one(cluster, shards, "node-1", "node-3", runtime=20.0)
    pool.stop()
    cluster.run(until=25.0)
    dump = cluster.dump_table("ycsb")
    assert len(dump) == workload.config.num_tuples
    assert cluster.metrics.abort_count(kind="migration") == 0
    for shard in shards:
        assert cluster.shard_owner(shard) == "node-3"


def test_remus_txn_started_before_tm_commits_on_source():
    """A long transaction spanning T_m keeps running and commits via MOCC."""
    cluster, workload = build(num_clients=0)
    session = cluster.session("node-2")
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    heap = cluster.nodes["node-1"].heap_for(shard)
    victim_key = sorted(heap.keys())[0]
    outcome = {}

    def long_txn():
        txn = yield from session.begin(label="long")
        value = yield from session.read(txn, "ycsb", victim_key)
        yield from session.update(txn, "ycsb", victim_key, {"f0": "long-write"})
        yield 3.0  # straddle the whole migration
        yield from session.commit(txn)
        outcome["committed"] = True
        outcome["value"] = value

    cluster.spawn(long_txn())
    cluster.run(until=0.1)
    migrate_one(cluster, [shard], "node-1", "node-2", runtime=20.0)
    cluster.run()
    assert outcome.get("committed")
    dump = cluster.dump_table("ycsb")
    assert dump[victim_key] == {"f0": "long-write"}


def test_remus_new_txns_route_to_destination_after_tm():
    cluster, workload = build(num_clients=0)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    key = sorted(cluster.nodes["node-1"].heap_for(shard).keys())[0]
    migrate_one(cluster, [shard], "node-1", "node-2")
    session = cluster.session("node-3")
    seen = {}

    def reader_and_writer():
        txn = yield from session.begin()
        seen["value"] = yield from session.read(txn, "ycsb", key)
        yield from session.update(txn, "ycsb", key, {"f0": "post-tm"})
        seen["participants"] = txn.participant_nodes
        yield from session.commit(txn)

    cluster.sim.run_until_complete(cluster.spawn(reader_and_writer()))
    # The source copy is gone, so the value can only have come from node-2,
    # and the write participant must be the destination.
    assert seen["value"] == {"f0": key}
    assert not cluster.nodes["node-1"].has_shard_data(shard)
    assert seen["participants"] == ["node-2"]


def test_remus_mocc_ww_conflict_aborts_source_and_keeps_dest():
    """A destination txn and a straddling source txn write the same key:
    MOCC detects the WW conflict and aborts the source pair."""
    cluster, workload = build(num_clients=0)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
    key = keys[0]
    source_session = cluster.session("node-1")
    dest_session = cluster.session("node-3")
    outcome = {}

    def straddler():
        txn = yield from source_session.begin(label="straddler")
        # Touch another key first so the txn exists before T_m but writes the
        # contended key after the destination txn committed.
        yield from source_session.update(txn, "ycsb", keys[1], {"f0": "other"})
        yield 4.0
        try:
            yield from source_session.update(txn, "ycsb", key, {"f0": "source"})
            yield from source_session.commit(txn)
            outcome["source"] = "committed"
        except Exception as exc:  # SerializationFailure from MOCC
            yield from source_session.abort(txn, reason=exc)
            outcome["source"] = type(exc).__name__

    def dest_writer():
        yield 2.0  # after T_m (migration is fast when idle)
        txn = yield from dest_session.begin(label="dest")
        yield from dest_session.update(txn, "ycsb", key, {"f0": "dest"})
        yield from dest_session.commit(txn)
        outcome["dest"] = "committed"

    cluster.spawn(straddler())
    cluster.spawn(dest_writer())
    cluster.run(until=0.05)
    migrate_one(cluster, [shard], "node-1", "node-2", runtime=30.0)
    cluster.run()
    assert outcome["dest"] == "committed"
    assert outcome["source"] == "SerializationFailure"
    assert cluster.dump_table("ycsb")[key] == {"f0": "dest"}


def test_remus_records_sync_wait_stats():
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = migrate_one(cluster, [shard], "node-1", "node-2", runtime=20.0)
    pool.stop()
    cluster.run(until=22.0)
    stats = plan.stats
    assert stats.tuples_copied > 0
    # Phase bookkeeping exists for all four phases.
    migration = plan.migrations[0]
    for phase in ("snapshot_copy", "async_propagation", "mode_change", "dual_execution"):
        assert migration.stats.phase_duration(phase) >= 0.0
        assert phase in migration.stats.phase_times


def test_remus_collocated_group_migrates_together():
    cluster = Cluster(ClusterConfig(num_nodes=3))
    for name in ("left", "right"):
        cluster.create_table(
            name, num_shards=3, tuple_size=128, collocation_group="pair"
        )
        cluster.bulk_load(name, [((name, k), k) for k in range(60)])
    shard_left = cluster.shards_on_node("node-1", table="left")[0]
    group = cluster.collocated_shards(shard_left)
    assert len(group) == 2
    migrate_one(cluster, group, "node-1", "node-3")
    for shard in group:
        assert cluster.shard_owner(shard) == "node-3"
    assert len(cluster.dump_table("left")) == 60
    assert len(cluster.dump_table("right")) == 60


def test_remus_consecutive_migrations_drain_a_node():
    from repro.migration.base import consolidation_batches

    cluster, workload = build(num_nodes=3, num_shards=6)
    batches = consolidation_batches(cluster, "node-1", table="ycsb", group_size=1)
    assert batches, "node-1 should own shards"
    plan = MigrationPlan(RemusMigration, batches)
    proc = cluster.spawn(run_plan(cluster, plan))
    cluster.run(until=30.0)
    assert proc.finished
    assert cluster.shards_on_node("node-1", table="ycsb") == []
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples


def test_remus_propagation_lets_finished_shadows_go():
    """The pipeline keeps a shadow transaction only while it can still need
    the crash sweep: once replayed and ended, it is let go."""
    cluster, workload = build(num_tuples=6000, num_clients=12)
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=1.0)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = migrate_one(cluster, [shard], "node-1", "node-2")
    pool.stop()
    cluster.run(until=12.0)
    (migration,) = plan.migrations
    assert migration.stats.shadow_txns > 0
    assert [s for s in migration.propagation._shadows if s.finished] == []
