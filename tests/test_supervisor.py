"""Self-healing migration supervision tests (watchdog + crash recovery)."""

from repro.cluster import Cluster
from repro.config import ClusterConfig, CostModel
from repro.migration import (
    MigrationPlan,
    MigrationSupervisor,
    RemusMigration,
)
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def build(num_nodes=3, snapshot_cost=2e-3):
    # Stretch the snapshot copy so crash injection has a window to hit.
    cluster = Cluster(
        ClusterConfig(
            num_nodes=num_nodes, costs=CostModel(snapshot_scan_per_tuple=snapshot_cost)
        )
    )
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(num_tuples=600, num_shards=6, num_clients=4,
                   tuple_size=256, think_time=0.004),
    )
    workload.create()
    return cluster, workload


def test_clean_plan_behaves_like_run_plan():
    cluster, workload = build()
    shards = cluster.shards_on_node("node-1", table="ycsb")[:2]
    plan = MigrationPlan(RemusMigration, [(shards, "node-1", "node-2")])
    proc = cluster.spawn(MigrationSupervisor(cluster, plan).run())
    cluster.run(until=30.0)
    stats = proc.result()
    assert stats.crash_recoveries == 0
    assert stats.batches_skipped == 0
    for shard in shards:
        assert cluster.shard_owner(shard) == "node-2"
    names = [name for _t, name in cluster.metrics.marks]
    assert "migration_start" in names and "migration_end" in names


def test_crash_mid_copy_recovers_and_retries_to_completion():
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = MigrationPlan(RemusMigration, [([shard], "node-1", "node-2")])
    supervisor = MigrationSupervisor(cluster, plan)
    proc = cluster.spawn(supervisor.run())

    def nemesis():
        yield supervisor.phase_event("snapshot_copy")
        yield 0.1  # well inside the stretched copy
        assert supervisor.crash_current("test crash")

    cluster.spawn(nemesis())
    cluster.run(until=60.0)
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    stats = proc.result()
    assert stats.crash_recoveries >= 1
    assert stats.migration_retries >= 1
    assert stats.batches_skipped == 0
    assert cluster.shard_owner(shard) == "node-2"
    names = [name for _t, name in cluster.metrics.marks]
    assert "migration_crash" in names
    assert any(n.startswith("migration_recovered:") for n in names)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples
    assert not cluster.sim.failed_processes


def test_unreachable_destination_degrades_batch_without_hanging():
    cluster, _workload = build()
    cluster.network.partition("node-1", "node-2")  # never healed
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = MigrationPlan(RemusMigration, [([shard], "node-1", "node-2")])
    supervisor = MigrationSupervisor(cluster, plan)
    proc = cluster.spawn(supervisor.run())
    cluster.run(until=60.0)
    stats = proc.result()  # finished: degraded, not wedged
    assert stats.batches_skipped == 1
    assert stats.crash_recoveries >= 1
    assert cluster.shard_owner(shard) == "node-1"
    assert any("skipped" in desc for _t, desc in supervisor.events)


def test_phase_events_fire_once_per_registration():
    cluster, _workload = build(snapshot_cost=0.0)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = MigrationPlan(RemusMigration, [([shard], "node-1", "node-3")])
    supervisor = MigrationSupervisor(cluster, plan)
    seen = {}

    def watcher(phase):
        event = supervisor.phase_event(phase)

        def wait():
            yield event
            seen[phase] = cluster.sim.now

        cluster.spawn(wait())

    for phase in ("snapshot_copy", "mode_change", "dual_execution"):
        watcher(phase)
    proc = cluster.spawn(supervisor.run())
    cluster.run(until=30.0)
    proc.result()
    assert set(seen) == {"snapshot_copy", "mode_change", "dual_execution"}
    assert seen["snapshot_copy"] <= seen["mode_change"] <= seen["dual_execution"]
