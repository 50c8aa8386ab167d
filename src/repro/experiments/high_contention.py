"""High-contention hot-shard migration (§4.8, Figure 10).

200 clients read/update 100 tuples of a single shard while Remus migrates
that shard. Reproduced effects:

- a throughput dip during snapshot copying: the copy's snapshot pins the
  vacuum horizon, version chains on the hot tuples grow, and every MVCC read
  pays for the extra chain traversal (~26 % in the paper);
- elevated source-node CPU during the copy (scan work, ~+15 %) and a smaller
  bump afterwards for update propagation (~+6 %);
- destination CPU spent on transaction-level parallel replay (~+8 %);
- very few WW-conflicts between shadow and destination transactions (the
  dual execution window is short).
"""

from dataclasses import dataclass

from repro.experiments import registry
from repro.experiments.common import (
    ExperimentResult,
    build_cluster,
    check_run_ok,
    note_topology,
    run_until_finished,
    summarize,
)
from repro.migration import Migration
from repro.workloads.client import ClientPool, ClosedLoopClient


@dataclass
class HighContentionConfig:
    """Simulator-scale version of §4.8 (paper values in comments)."""

    num_nodes: int = 3
    shard_tuples: int = 4000  # the migrating shard's total tuples
    hot_tuples: int = 100  # 100 randomly-updated tuples
    num_clients: int = 24  # 200 clients
    read_ratio: float = 0.5
    tuple_size: int = 1024
    snapshot_cost: float = 8e-4  # stretches the copy so chains build up
    version_cost: float = 1e-5  # per dead version walked on a read
    vacuum_interval: float = 0.25
    warmup: float = 2.0  # steady state before migration
    run_after: float = 3.0  # observation after migration completes
    max_sim_time: float = 60.0
    topology: str = None  # network preset (single|multi_az|geo); None = flat
    pump_share: float = None  # migration's contended-trunk share cap
    seed: int = 0

    def make_costs(self):
        from repro.config import CostModel

        return CostModel(
            snapshot_scan_per_tuple=self.snapshot_cost,
            cpu_per_version=self.version_cost,
        )


@registry.register(
    "high_contention",
    config_cls=HighContentionConfig,
    approaches=("remus", "lock_and_abort", "wait_and_remaster", "stop_and_copy"),
    description="hot-shard migration under high contention with CPU accounting "
    "(Figure 10)",
)
def _high_contention(approach="remus", config=None):
    config = config or HighContentionConfig()
    cluster = build_cluster(
        config.num_nodes,
        approach,
        seed=config.seed,
        costs=config.make_costs(),
        vacuum_interval=config.vacuum_interval,
        cpu_bin_width=0.5,
        topology=config.topology,
        pump_share=config.pump_share,
    )
    # One single-shard table: the hot shard to be migrated.
    cluster.create_table("hot", num_shards=1, tuple_size=config.tuple_size)
    cluster.bulk_load("hot", [(k, {"f0": k}) for k in range(config.shard_tuples)])
    cluster.start_vacuum_daemons()
    shard = cluster.tables["hot"].shard_ids()[0]
    source = cluster.shard_owner(shard)
    dest = next(n for n in cluster.node_ids() if n != source)

    def body_factory(rng):
        def factory():
            def body(session, txn):
                key = rng.randint(0, config.hot_tuples - 1)
                if rng.random() < config.read_ratio:
                    yield from session.read(txn, "hot", key)
                else:
                    yield from session.update(txn, "hot", key, {"f0": rng.randint(0, 1 << 30)})

            return body

        return factory

    node_ids = cluster.node_ids()
    clients = [
        ClosedLoopClient(
            cluster,
            node_ids[i % len(node_ids)],
            body_factory(cluster.sim.rng("hot-client-{}".format(i))),
            "hot",
            think_time=0.002,
        )
        for i in range(config.num_clients)
    ]
    pool = ClientPool(clients)
    pool.start()
    cluster.run(until=config.warmup)

    plan = Migration.plan(approach, [([shard], source, dest)])
    proc = cluster.spawn(Migration.launch(cluster, plan), name="hot-migration")
    run_until_finished(cluster, proc, config.max_sim_time, what="hot-shard migration")
    end = cluster.sim.now + config.run_after
    cluster.run(until=end)
    pool.stop()
    cluster.run(until=end + 0.5)
    check_run_ok(cluster)

    metrics = cluster.metrics
    result = ExperimentResult(approach=approach, scenario="high_contention")
    # 0.5 s bins: the copy-phase dip of Figure 10 lasts a second or two.
    summarize(result, metrics, "hot", end, bin_width=0.5)
    result.abort_ratio = metrics.abort_ratio(label="hot")
    mig_start, mig_end = result.migration_window
    migration = plan.migrations[0]
    copy_start, copy_end = migration.stats.phase_times.get(
        "snapshot_copy", (mig_start, mig_end)
    )

    result.extra["cpu_source"] = cluster.nodes[source].cpu.usage_series(0.0, end)
    result.extra["cpu_dest"] = cluster.nodes[dest].cpu.usage_series(0.0, end)
    result.extra["tput_baseline"] = metrics.average_throughput(
        label="hot", start=0.5, end=mig_start
    )
    result.extra["tput_during_copy"] = metrics.average_throughput(
        label="hot", start=copy_start, end=max(copy_end, copy_start + 1e-9)
    )
    result.extra["tput_after"] = metrics.average_throughput(
        label="hot", start=mig_end + 0.5, end=end
    )
    result.extra["cpu_source_baseline"] = cluster.nodes[source].cpu.usage_between(
        0.5, mig_start
    )
    result.extra["cpu_source_copy"] = cluster.nodes[source].cpu.usage_between(
        copy_start, max(copy_end, copy_start + 1e-9)
    )
    result.extra["cpu_dest_baseline"] = cluster.nodes[dest].cpu.usage_between(
        0.5, mig_start
    )
    result.extra["cpu_dest_migration"] = cluster.nodes[dest].cpu.usage_between(
        mig_start, mig_end
    )
    result.extra["ww_conflicts_dual_exec"] = migration.stats.ww_conflicts
    result.extra["ww_aborts_total"] = metrics.abort_count(kind="ww_conflict")
    result.extra["copy_window"] = (copy_start, copy_end)
    result.extra["data_intact"] = len(cluster.dump_table("hot")) == config.shard_tuples
    if config.topology is not None:
        note_topology(result, cluster)
    return result
