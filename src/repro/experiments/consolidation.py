"""Cluster consolidation under hybrid workloads A and B (§4.4).

The scenario removes one node from the cluster: every shard on the source
node migrates to the other nodes evenly, in consecutive multi-shard batches,
while the hybrid workload runs. Reproduces:

- **Table 2** — batch-insert abort ratio and ingest throughput (hybrid A);
- **Figure 6** — YCSB throughput timeline during consolidation (hybrid A);
- **Figure 7** — YCSB throughput timeline during consolidation (hybrid B);
- rows of **Table 3** — latency increase for hybrid A and B.
"""

from dataclasses import dataclass

from repro.experiments import registry
from repro.experiments.common import (
    build_cluster,
    build_ycsb,
    measure,
    migrate_and_settle,
)
from repro.migration.base import consolidation_batches
from repro.workloads.hybrid import AnalyticalClient, BatchIngestClient


@dataclass
class ConsolidationConfig:
    """Simulator-scale version of the §4.4 setup (paper values in comments).

    The data volume is scaled down by ~10^4 versus the paper's 100 GB, so
    the per-tuple snapshot-copy cost is scaled *up* to keep the ratio of
    migration duration to workload timescales in the paper's regime (tens of
    seconds of consecutive migrations against second-scale batch
    transactions). The batch ingest is paced like a streaming source, as in
    the paper's IoT motivation (§2.3.1).
    """

    num_nodes: int = 6  # six-node cluster, remove one
    num_tuples: int = 12_000  # 100 M tuples
    num_shards: int = 60  # 360 shards (10 on the drained node)
    tuple_size: int = 1024
    ycsb_clients: int = 12  # 400 clients
    ycsb_think: float = 0.004
    group_size: int = 2  # shards per migration batch (hybrid A: 2, B: 4)
    batch_tuples: int = 10_000  # 1 M tuples per batch insert
    num_batches: int = 6  # 10 batch transactions
    batch_rate: float = 2000.0  # paced ingest (tuples/s)
    snapshot_cost: float = 1.5e-3  # scaled-up per-tuple copy cost (see above)
    warmup: float = 12.0  # 30 s batch run before consolidation
    settle: float = 2.0  # post-migration observation window
    max_sim_time: float = 150.0
    analytical_row_cost: float = 8e-4  # hybrid B: per-row aggregation work
    squall_chunk_bytes: int = 32768  # 8 MB scaled with the data volume
    topology: str = None  # network preset (single|multi_az|geo); None = flat
    pump_share: float = None  # migration's contended-trunk share cap
    seed: int = 0

    def make_costs(self):
        from repro.config import CostModel

        return CostModel(snapshot_scan_per_tuple=self.snapshot_cost)


#: The tiny scale every smoke run of hybrid A and B uses (seconds a cell).
SMOKE = dict(
    num_tuples=1200, num_shards=12, ycsb_clients=4, batch_tuples=600,
    num_batches=2, warmup=1.0, settle=1.0, snapshot_cost=3e-4,
    analytical_row_cost=5e-4, max_sim_time=60.0,
)


def _start(approach, config):
    """Cluster + uniform YCSB load, its clients already running."""
    cluster = build_cluster(
        config.num_nodes, approach, seed=config.seed, costs=config.make_costs(),
        topology=config.topology, pump_share=config.pump_share,
    )
    workload = build_ycsb(
        cluster,
        num_tuples=config.num_tuples,
        num_shards=config.num_shards,
        tuple_size=config.tuple_size,
        num_clients=config.ycsb_clients,
        think_time=config.ycsb_think,
    )
    pool = workload.make_clients()
    pool.start()
    return cluster, pool


@registry.register(
    "hybrid_a",
    config_cls=ConsolidationConfig,
    smoke=SMOKE,
    description="cluster consolidation under hybrid workload A: "
    "uniform YCSB + batch ingestion (Table 2, Figure 6)",
)
def _hybrid_a(approach, config):
    """Hybrid workload A: uniform YCSB + batch ingestion (Table 2, Fig. 6)."""
    cluster, pool = _start(approach, config)
    batch = BatchIngestClient(
        cluster,
        "node-2",  # the coordinator node for ingestion; node-1 is drained
        start_key=config.num_tuples,
        batch_tuples=config.batch_tuples,
        num_batches=config.num_batches,
        tuples_per_second=config.batch_rate,
    )
    batch.start()
    cluster.run(until=config.warmup)
    # The batch workload runs to completion so Table 2's abort ratio counts
    # every attempt (the paper's consolidation spans most of the ingestion).
    batches = consolidation_batches(cluster, "node-1", "ycsb", config.group_size)
    plan, end = migrate_and_settle(
        cluster, approach, "hybrid_a", batches, config, pool, wait_for=(batch.process,)
    )
    result = measure(
        cluster, approach, "hybrid_a", config, "ycsb", end, weighted_label="batch"
    )
    mig_start, mig_end = result.migration_window
    metrics = cluster.metrics
    result.abort_ratio = metrics.abort_ratio(label="batch")
    result.extra["batch_aborts"] = metrics.abort_count(label="batch")
    result.extra["batch_committed"] = batch.committed
    result.extra["batch_finished_at"] = batch.finished_at
    result.extra["ingest_before"] = metrics.average_throughput(
        label="batch", start=0.0, end=mig_start, weighted=True
    )
    batch_active_end = min(x for x in (batch.finished_at, mig_end) if x is not None)
    result.extra["ingest_during"] = metrics.average_throughput(
        label="batch", start=mig_start, end=max(batch_active_end, mig_start + 1e-9),
        weighted=True,
    )
    result.extra["plan_stats"] = plan.stats
    result.extra["data_intact"] = (
        len(cluster.dump_table("ycsb"))
        == config.num_tuples + batch.tuples_ingested
    )
    return result


@registry.register(
    "hybrid_b",
    config_cls=ConsolidationConfig,
    config_defaults=(("group_size", 4),),
    smoke=SMOKE,
    description="cluster consolidation under hybrid workload B: "
    "uniform YCSB + analytical duplicate check (Figure 7)",
)
def _hybrid_b(approach, config):
    """Hybrid workload B: uniform YCSB + analytical duplicate check (Fig. 7)."""
    cluster, pool = _start(approach, config)
    # The analytical query starts just before consolidation so it overlaps
    # the migrations, as in Figure 7 (red dashed lines inside the window).
    analytical = AnalyticalClient(
        cluster,
        "node-2",
        start_delay=max(0.0, config.warmup - 1.0),
        per_row_cost=config.analytical_row_cost,
    )
    analytical.start()
    cluster.run(until=config.warmup)
    # The consistency check needs the analytical transaction to complete (it
    # may outlive a fast consolidation).
    batches = consolidation_batches(cluster, "node-1", "ycsb", config.group_size)
    _plan, end = migrate_and_settle(
        cluster, approach, "hybrid_b", batches, config, pool, wait_for=(analytical.process,)
    )
    result = measure(cluster, approach, "hybrid_b", config, "ycsb", end)
    result.workload_window = (
        cluster.metrics.first_mark("analytical_start"),
        cluster.metrics.last_mark("analytical_end"),
    )
    result.extra["duplicates"] = analytical.duplicates
    result.extra["rows_seen"] = analytical.rows_seen
    result.extra["analytical_committed"] = analytical.committed
    result.extra["analytical_aborted"] = analytical.aborted
    result.extra["data_intact"] = len(cluster.dump_table("ycsb")) == config.num_tuples
    return result
