"""Ablations of the design choices DESIGN.md calls out.

1. **Parallel replay** (§3.6) — transaction-level parallel apply keeps
   ``speed_replay > speed_update``; serial replay inflates catch-up and the
   sync-wait latency of synchronized source transactions.
2. **Prepare-wait** (§2.2) — without it, a reader can miss the writes of a
   prepared-but-not-yet-committed transaction whose commit timestamp is
   below the reader's snapshot: read-modify-write workloads lose updates.
3. **Dual execution vs stop-and-copy** — the downtime axis: Remus migrates
   with zero downtime where stop-and-copy blocks everything for the copy.
4. **Cache read-through** (§3.5.1) — without it, a transaction that starts
   after T_m commits can be routed to the source by a stale cache entry and
   its writes are lost when the source copy is retired.
5. **GTS vs DTS** (§2.2) — the centralized sequencer pays two network round
   trips per transaction; DTS is local.
"""

from repro.cluster import Cluster
from repro.config import ClusterConfig, CostModel
from repro.experiments.common import check_run_ok, run_until_finished
from repro.migration import MigrationPlan, RemusMigration, run_plan
from repro.workloads.client import run_transaction
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def _ycsb_cluster(replay_parallelism=18, timestamp_scheme="dts", num_clients=8,
                  think=0.002, seed=0, snapshot_cost=None):
    costs = CostModel()
    if snapshot_cost is not None:
        costs = CostModel(snapshot_scan_per_tuple=snapshot_cost)
    cluster = Cluster(
        ClusterConfig(
            num_nodes=3,
            replay_parallelism=replay_parallelism,
            timestamp_scheme=timestamp_scheme,
            costs=costs,
            seed=seed,
        )
    )
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(
            num_tuples=3000,
            num_shards=6,
            num_clients=num_clients,
            tuple_size=512,
            read_ratio=0.2,  # write-heavy: stress the replay pipeline
            think_time=think,
        ),
    )
    workload.create()
    cluster.start_vacuum_daemons()
    return cluster, workload


def run_parallel_replay_ablation(parallelism):
    """Migrate half the shards under write-heavy load; returns timing stats."""
    cluster, workload = _ycsb_cluster(replay_parallelism=parallelism)
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=1.0)
    shards = cluster.shards_on_node("node-1", table="ycsb")
    plan = MigrationPlan(RemusMigration, [(shards, "node-1", "node-2")])
    proc = cluster.spawn(run_plan(cluster, plan))
    run_until_finished(cluster, proc, deadline=60.0)
    pool.stop()
    cluster.run(until=cluster.sim.now + 0.5)
    check_run_ok(cluster)
    migration = plan.migrations[0]
    return {
        "parallelism": parallelism,
        "duration": sum(
            migration.stats.phase_duration(p)
            for p in ("async_propagation", "mode_change", "dual_execution")
        ),
        "avg_sync_wait": migration.stats.avg_sync_wait,
        "records_applied": migration.stats.records_applied,
    }


def run_counter_correctness(prepare_wait, duration=1.5, num_keys=10, num_clients=8,
                            scheme="dts"):
    """Read-modify-write counters; returns (committed, final_sum, lost)."""
    cluster = Cluster(ClusterConfig(num_nodes=3, timestamp_scheme=scheme))
    if not prepare_wait:
        for node in cluster.nodes.values():
            node.clog.prepare_wait_enabled = False
    cluster.create_table("counters", num_shards=6, tuple_size=64)
    cluster.bulk_load("counters", [(k, {"n": 0}) for k in range(num_keys)])
    committed = {"count": 0}

    def client(i):
        rng = cluster.sim.rng("abl-counter-{}".format(i))
        session = cluster.session(cluster.node_ids()[i % 3])

        def body_for(key):
            def body(sess, txn):
                row = yield from sess.read(txn, "counters", key)
                yield from sess.update(txn, "counters", key, {"n": row["n"] + 1})

            return body

        def loop():
            while cluster.sim.now < duration:
                ok, _err = yield from run_transaction(
                    session, body_for(rng.randint(0, num_keys - 1)), label="inc"
                )
                if ok:
                    committed["count"] += 1

        return loop()

    for i in range(num_clients):
        cluster.spawn(client(i))
    cluster.run(until=duration + 5.0)
    total = sum(row["n"] for row in cluster.dump_table("counters").values())
    return {
        "committed": committed["count"],
        "final_sum": total,
        "lost_updates": committed["count"] - total,
    }


def run_downtime_ablation(approach_cls, **migration_kwargs):
    """One shard migration under uniform YCSB; returns downtime + aborts.

    The per-tuple copy cost is stretched so that stop-and-copy's blocking
    window is visible at simulator scale (Remus stays at zero regardless).
    """
    cluster, workload = _ycsb_cluster(snapshot_cost=1e-3)
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=1.0)
    shards = cluster.shards_on_node("node-1", table="ycsb")[:2]
    plan = MigrationPlan(approach_cls, [(shards, "node-1", "node-3")], **migration_kwargs)
    proc = cluster.spawn(run_plan(cluster, plan))
    run_until_finished(cluster, proc, deadline=60.0)
    end = cluster.sim.now + 1.0
    cluster.run(until=end)
    pool.stop()
    cluster.run(until=end + 0.5)
    check_run_ok(cluster)
    mig_start = cluster.metrics.first_mark("migration_start")
    mig_end = cluster.metrics.last_mark("migration_end")
    longest, total = cluster.metrics.downtime(
        label="ycsb", start=mig_start, end=mig_end, min_window=0.2
    )
    return {
        "downtime_longest": longest,
        "downtime_total": total,
        "migration_aborts": cluster.metrics.abort_count(kind="migration"),
        "window": (mig_start, mig_end),
    }


def run_cache_read_through_ablation(use_read_through, duration=3.0):
    """Counter workload across a Remus migration with/without read-through.

    Returns lost-update and error counts; without read-through (and with a
    delayed cache invalidation) post-T_m transactions can be misrouted to
    the source and their writes silently dropped with the source copy.
    """
    cluster = Cluster(ClusterConfig(num_nodes=3))
    cluster.create_table("counters", num_shards=6, tuple_size=64)
    num_keys = 30
    cluster.bulk_load("counters", [(k, {"n": 0}) for k in range(num_keys)])
    committed = {"count": 0}
    errors = {"count": 0}

    def client(i):
        rng = cluster.sim.rng("rt-counter-{}".format(i))
        session = cluster.session(cluster.node_ids()[i % 3])

        def body_for(key):
            def body(sess, txn):
                row = yield from sess.read(txn, "counters", key)
                if row is None:
                    raise KeyError(key)
                yield from sess.update(txn, "counters", key, {"n": row["n"] + 1})

            return body

        def loop():
            while cluster.sim.now < duration:
                try:
                    ok, _err = yield from run_transaction(
                        session, body_for(rng.randint(0, num_keys - 1)), label="inc"
                    )
                except KeyError:
                    errors["count"] += 1
                    continue
                if ok:
                    committed["count"] += 1

        return loop()

    for i in range(10):
        cluster.spawn(client(i))

    def migrate():
        yield 0.5
        for shard in cluster.shards_on_node("node-1", table="counters"):
            plan = MigrationPlan(
                RemusMigration,
                [([shard], "node-1", "node-2")],
                use_cache_read_through=use_read_through,
                cache_refresh_delay=0.05,
            )
            yield from run_plan(cluster, plan)

    proc = cluster.spawn(migrate())
    cluster.run(until=duration + 10.0)
    assert proc.finished
    dump = cluster.dump_table("counters")
    total = sum(row["n"] for row in dump.values())
    return {
        "committed": committed["count"],
        "final_sum": total,
        "lost_updates": committed["count"] - total,
        "routing_errors": errors["count"]
        + sum(1 for p, _e in cluster.sim.failed_processes),
    }


def run_timestamp_scheme_ablation(scheme, duration=2.0):
    """Plain YCSB throughput/latency under GTS vs DTS."""
    cluster, workload = _ycsb_cluster(timestamp_scheme=scheme, think=0.0,
                                      num_clients=6)
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=duration)
    pool.stop()
    cluster.run(until=duration + 0.5)
    check_run_ok(cluster)
    return {
        "scheme": scheme,
        "throughput": cluster.metrics.average_throughput(label="ycsb", end=duration),
        "avg_latency": cluster.metrics.average_latency(label="ycsb"),
    }
