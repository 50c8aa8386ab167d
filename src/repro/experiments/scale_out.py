"""TPC-C scale-out (§4.6, Figure 9).

The cluster starts with five nodes, one of which hosts twice as many
warehouses as the others. A sixth node is added and the overloaded node's
extra warehouses migrate to it, several warehouses (x 8 collocated tables)
per batch. Expected shapes: throughput rises for every approach after the
scale-out; Remus shows the smallest fluctuation, lock-and-abort and
wait-and-remaster much larger troughs (blocked/aborted transactions during
transfer and waits on longer TPC-C transactions). Squall is not shown — as
in the paper, the port does not support multi-key range partitioning.
"""

from dataclasses import dataclass

from repro.cluster.shard import ShardId
from repro.experiments import registry
from repro.experiments.common import build_cluster, measure, migrate_and_settle
from repro.workloads.tpcc import TABLES, TpccConfig, TpccWorkload


@dataclass
class ScaleOutConfig:
    """Simulator-scale version of §4.6 (paper values in comments)."""

    initial_nodes: int = 5
    num_warehouses: int = 18  # 480 warehouses
    overloaded_node: str = "node-1"  # holds 2x the warehouses of the others
    warehouses_to_move: int = 3  # half the overloaded node's share (80/160)
    warehouses_per_batch: int = 1  # 3 warehouses (24 shards) per batch
    districts_per_warehouse: int = 2
    customers_per_district: int = 12
    items: int = 30
    clients_per_warehouse: int = 1
    client_think: float = 0.016  # paces the others below CPU capacity so
    cpu_per_node: int = 1  # only the overloaded node saturates and the
    op_cost: float = 2.5e-4  # scale-out visibly lifts throughput
    snapshot_cost: float = 1e-3  # stretched so consecutive migrations span
    warmup: float = 3.0  # several seconds, as in Figure 9
    settle: float = 3.0
    max_sim_time: float = 90.0
    topology: str = None  # network preset (single|multi_az|geo); None = flat
    pump_share: float = None  # migration's contended-trunk share cap
    seed: int = 0

    def make_costs(self):
        from repro.config import CostModel

        return CostModel(
            snapshot_scan_per_tuple=self.snapshot_cost,
            cpu_read=self.op_cost,
            cpu_write=self.op_cost,
        )


def overloaded_placement(config, node_ids):
    """Warehouse -> node map with the first node holding a double share
    (the paper's 160-vs-80 warehouse imbalance)."""
    others = [n for n in node_ids if n != config.overloaded_node]
    placement = {}
    share = config.num_warehouses // (config.initial_nodes + 1)
    cursor = 0
    for w in range(config.num_warehouses):
        if w < 2 * share:
            placement[w] = config.overloaded_node
        else:
            placement[w] = others[cursor % len(others)]
            cursor += 1
    return placement


@registry.register(
    "scale_out",
    config_cls=ScaleOutConfig,
    approaches=registry.NO_SQUALL,
    smoke=dict(
        num_warehouses=6, warehouses_to_move=2, districts_per_warehouse=2,
        customers_per_district=6, items=12, warmup=1.0, settle=1.0,
        max_sim_time=60.0,
    ),
    description="TPC-C scale-out: add a node, drain the overloaded one (Figure 9)",
)
def _scale_out(approach, config):
    cluster = build_cluster(
        config.initial_nodes,
        approach,
        seed=config.seed,
        costs=config.make_costs(),
        cpu_per_node=config.cpu_per_node,
        topology=config.topology,
        pump_share=config.pump_share,
    )
    workload = TpccWorkload(
        cluster,
        TpccConfig(
            num_warehouses=config.num_warehouses,
            districts_per_warehouse=config.districts_per_warehouse,
            customers_per_district=config.customers_per_district,
            items=config.items,
            client_think=config.client_think,
        ),
    )
    workload.create(
        placement_by_warehouse=overloaded_placement(config, cluster.node_ids())
    )
    pool = workload.make_clients(clients_per_warehouse=config.clients_per_warehouse)
    pool.start()
    cluster.run(until=config.warmup)

    new_node = "node-{}".format(config.initial_nodes + 1)
    cluster.add_node(new_node)
    # Migrate whole warehouses: all 8 collocated shards per warehouse.
    moving = [
        w
        for w in range(config.num_warehouses)
        if cluster.shard_owner(ShardId("warehouse", w)) == config.overloaded_node
    ][: config.warehouses_to_move]
    batches = []
    for i in range(0, len(moving), config.warehouses_per_batch):
        group = []
        for w in moving[i : i + config.warehouses_per_batch]:
            group.extend(ShardId(table, w) for table in TABLES)
        batches.append((group, config.overloaded_node, new_node))
    plan, end = migrate_and_settle(cluster, approach, "scale_out", batches, config, pool)
    result = measure(cluster, approach, "scale_out", config, "tpcc", end)
    mig_start, mig_end = result.migration_window
    metrics = cluster.metrics
    result.extra["tput_before"] = metrics.average_throughput(
        label="tpcc", start=0.5, end=mig_start
    )
    result.extra["tput_after"] = metrics.average_throughput(
        label="tpcc", start=mig_end + 0.2, end=end
    )
    result.extra["migration_aborts"] = metrics.abort_count(kind="migration")
    series_during = [
        v for t, v in result.throughput if mig_start <= t < mig_end
    ]
    if series_during:
        mean = sum(series_during) / len(series_during)
        variance = sum((v - mean) ** 2 for v in series_during) / len(series_during)
        result.extra["tput_stddev_during"] = variance ** 0.5
        result.extra["tput_mean_during"] = mean
        result.extra["tput_min_during"] = min(series_during)
    result.extra["warehouses_moved"] = len(moving)
    result.extra["new_node_shards"] = len(cluster.shards_on_node(new_node))
    result.extra["plan_stats"] = plan.stats
    return result
