"""Cross-AZ migration over a contended inter-AZ trunk (the throttled pump).

The cluster spans two availability zones; the inter-AZ trunk is the scarce
resource (see :class:`~repro.config.TierProfiles`). One node's shards
migrate across the trunk while a uniform YCSB workload keeps issuing
cross-AZ statements over the same trunk, so the snapshot copy and the
foreground traffic genuinely compete for bandwidth.

The scenario's knobs map onto the paper's operational concerns:

- ``pump_share`` — the migration traffic class's cap on any contended
  trunk. At 1.0 the copy takes its full fair share and the foreground dips
  hardest; lowering it shrinks the dip monotonically at the price of a
  longer copy (the classic migration-speed/interference trade-off).
- ``backup`` — streams background ``BACKUP_CLASS`` bulk traffic across the
  same trunk for the whole run, the backup-interference variant.

The result's ``extra`` carries ``fg_dip`` (average foreground throughput
lost during the migration window, txns/s), the copy duration and the
network shape, so a pump-share sweep can assert the monotonic trade-off.
"""

from dataclasses import dataclass

from repro.config import TierProfiles
from repro.experiments import registry
from repro.experiments.common import (
    ExperimentResult,
    build_cluster,
    build_ycsb,
    check_run_ok,
    note_topology,
    run_until_finished,
    summarize,
)
from repro.migration import Migration
from repro.sim.network import BACKUP_CLASS


@dataclass
class CrossAzConfig:
    """A two-AZ cluster with a deliberately narrow inter-AZ trunk.

    The trunk bandwidth is scaled far below the intra-rack number so the
    snapshot copy is network-bound (the paper's testbed moves 100 GB over
    shared datacenter links; here the ratio of copy rate to foreground
    message sizes is what matters, not the absolute figures).
    """

    num_nodes: int = 4  # node-1/2 in AZ 1, node-3/4 in AZ 2
    topology: str = "multi_az"
    pump_share: float = 1.0
    backup: bool = False  # stream BACKUP_CLASS traffic across the trunk
    num_tuples: int = 8_000
    num_shards: int = 32
    tuple_size: int = 512
    ycsb_clients: int = 8
    ycsb_think: float = 0.002
    read_ratio: float = 0.9  # read-mostly: keeps version chains (and their
    # read cost, which also grows with copy duration) from drowning the
    # contention signal the scenario is about
    trunk_bandwidth: float = 5.0e5  # bytes/s on the inter-AZ trunk
    trunk_latency: float = 0.001
    warmup: float = 3.0
    settle: float = 2.0
    max_sim_time: float = 120.0
    seed: int = 0

    def make_tiers(self):
        return TierProfiles(
            region_latency=self.trunk_latency,
            region_bandwidth=self.trunk_bandwidth,
        )


def _backup_streamer(cluster, src, dst, deadline):
    """Generator: paced background bulk traffic tagged ``BACKUP_CLASS``."""
    rate = cluster.config.backup_rate
    chunk = cluster.config.backup_chunk_bytes
    period = chunk / rate
    while cluster.sim.now < deadline:
        yield from cluster.rpc_send(src, dst, chunk, traffic_class=BACKUP_CLASS)
        yield period


@registry.register(
    "cross_az",
    config_cls=CrossAzConfig,
    description="cross-AZ migration over a contended trunk; --pump-share "
    "trades copy speed against the foreground throughput dip",
)
def _cross_az(approach, config=None):
    config = config or CrossAzConfig()
    cluster = build_cluster(
        config.num_nodes,
        approach,
        seed=config.seed,
        topology=config.topology,
        pump_share=config.pump_share,
        tiers=config.make_tiers(),
    )
    workload = build_ycsb(
        cluster,
        num_tuples=config.num_tuples,
        num_shards=config.num_shards,
        tuple_size=config.tuple_size,
        num_clients=config.ycsb_clients,
        think_time=config.ycsb_think,
        read_ratio=config.read_ratio,
    )
    pool = workload.make_clients()
    pool.start()
    if config.backup:
        # Same trunk direction as the copy: AZ 1 -> AZ 2.
        cluster.spawn(
            _backup_streamer(cluster, "node-2", "node-4", config.max_sim_time),
            name="backup-streamer",
        )
    cluster.run(until=config.warmup)

    # Drain node-1 (AZ 1) across the trunk to node-3 (AZ 2) in a single
    # collocated batch, so the snapshot copy is one contiguous network-bound
    # stream with a well-defined phase window to measure the dip against.
    shards = cluster.shards_on_node("node-1", table="ycsb")
    plan = Migration.plan(approach, [(shards, "node-1", "node-3")])
    proc = cluster.spawn(Migration.launch(cluster, plan), name="cross-az")
    run_until_finished(
        cluster, proc, config.max_sim_time,
        what="{} cross-AZ migration".format(approach),
    )
    end = cluster.sim.now + config.settle
    cluster.run(until=end)
    pool.stop()
    cluster.run(until=end + 0.5)
    check_run_ok(cluster)

    result = ExperimentResult(approach=approach, scenario="cross_az")
    summarize(result, cluster.metrics, label="ycsb", end_time=end)
    note_topology(result, cluster)
    mig_start, mig_end = result.migration_window
    if mig_start is not None and mig_end is not None:
        result.extra["migration_duration"] = mig_end - mig_start
    # The dip is measured over the bulk-copy phase — the window where the
    # migration stream actually occupies the trunk. Approaches without a
    # distinct copy phase (Squall's pulls) fall back to the whole window.
    copy_window = plan.migrations[0].stats.phase_times.get("snapshot_copy")
    if copy_window is None or copy_window[1] is None:
        copy_window = (mig_start, mig_end)
    copy_start, copy_end = copy_window
    metrics = cluster.metrics
    fg_during_copy = metrics.average_throughput(
        label="ycsb", start=copy_start, end=copy_end
    )
    result.extra["copy_duration"] = copy_end - copy_start
    result.extra["fg_during_copy"] = fg_during_copy
    result.extra["fg_dip"] = max(
        0.0, result.avg_throughput_before - fg_during_copy
    )
    result.extra["backup"] = config.backup
    result.extra["plan_stats"] = plan.stats
    result.extra["data_intact"] = (
        len(cluster.dump_table("ycsb")) == config.num_tuples
    )
    return result
