"""Load balancing of hotspot shards (§4.5, Figure 8).

A skewed YCSB workload concentrates most accesses on the shards of one node.
The balancing plan migrates most of those hot shards to the other nodes
evenly, four shards together each time. Expected shapes: throughput rises
gradually for Remus / lock-and-abort / wait-and-remaster (lock-and-abort
recording thousands of migration aborts, the other two none), while Squall
drops and fluctuates because of pull blocking and shard-lock contention on
the hot shards.
"""

from dataclasses import dataclass

from repro.experiments import registry
from repro.experiments.common import build_cluster, build_ycsb, measure, migrate_and_settle
from repro.migration.base import spread_batches


@dataclass
class LoadBalancingConfig:
    """Simulator-scale version of §4.5 (paper values in comments)."""

    num_nodes: int = 6
    num_tuples: int = 12_000
    num_shards: int = 60  # 360 shards; 50 hot on one node, 40 migrated
    tuple_size: int = 1024
    ycsb_clients: int = 10  # skewed clients hammering the hot node
    ycsb_think: float = 0.0  # closed loop: the hot node is the bottleneck
    hotspot_fraction: float = 0.9
    migrate_fraction: float = 0.8  # 40 of 50 hot shards
    group_size: int = 4  # four shards migrated together each time
    cpu_per_node: int = 2  # scaled down with the data so the hot node
    op_cost: float = 2e-4  # saturates and balancing visibly lifts throughput
    snapshot_cost: float = 4e-4
    squall_chunk_bytes: int = 16384  # 8 MB scaled with the data volume
    topology: str = None  # network preset (single|multi_az|geo); None = flat
    pump_share: float = None  # migration's contended-trunk share cap
    warmup: float = 2.0
    settle: float = 3.0
    max_sim_time: float = 120.0
    seed: int = 0

    def make_costs(self):
        from repro.config import CostModel

        return CostModel(
            snapshot_scan_per_tuple=self.snapshot_cost,
            cpu_read=self.op_cost,
            cpu_write=self.op_cost * 1.5,
        )


@registry.register(
    "load_balancing",
    config_cls=LoadBalancingConfig,
    smoke=dict(
        num_tuples=1200, num_shards=12, ycsb_clients=4, warmup=1.0,
        settle=1.0, max_sim_time=60.0,
    ),
    description="hotspot-shard load balancing under skewed YCSB (Figure 8)",
)
def _load_balancing(approach, config):
    cluster = build_cluster(
        config.num_nodes,
        approach,
        seed=config.seed,
        costs=config.make_costs(),
        cpu_per_node=config.cpu_per_node,
        topology=config.topology,
        pump_share=config.pump_share,
    )
    workload = build_ycsb(
        cluster,
        num_tuples=config.num_tuples,
        num_shards=config.num_shards,
        tuple_size=config.tuple_size,
        num_clients=config.ycsb_clients,
        think_time=config.ycsb_think,
        distribution="hotspot",
        hotspot_fraction=config.hotspot_fraction,
    )
    hot_node = "node-1"
    workload.set_hot_node(hot_node)
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=config.warmup)

    # Spread migrate_fraction of the hot shards over the other nodes.
    hot_shards = workload.hot_shards
    to_move = hot_shards[: int(len(hot_shards) * config.migrate_fraction)]
    batches = spread_batches(cluster, to_move, hot_node, config.group_size)
    plan, end = migrate_and_settle(cluster, approach, "load_balancing", batches, config, pool)
    result = measure(cluster, approach, "load_balancing", config, "ycsb", end)
    mig_start, mig_end = result.migration_window
    metrics = cluster.metrics
    # Throughput gain: steady-state after balancing vs before.
    result.extra["tput_before"] = metrics.average_throughput(
        label="ycsb", start=0.5, end=mig_start
    )
    result.extra["tput_after"] = metrics.average_throughput(
        label="ycsb", start=mig_end + 0.5, end=end
    )
    result.extra["migration_aborts"] = metrics.abort_count(kind="migration")
    result.extra["ww_aborts"] = metrics.abort_count(kind="ww_conflict")
    result.extra["data_intact"] = len(cluster.dump_table("ycsb")) == config.num_tuples
    result.extra["plan_stats"] = plan.stats
    return result
