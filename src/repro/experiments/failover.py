"""Failover soak: migrate a replicated shard while its replicas crash.

The scenario family behind the replicated-shard robustness claims:

* every ``counters`` shard runs as a leader + N followers replication
  group with quorum-acknowledged commit (:mod:`repro.cluster.replication`);
* a supervised Remus consolidation drains one node while a contended
  counter workload runs;
* the nemesis crashes the migrating shard's **group leader** exactly when
  the migration enters a chosen phase (snapshot copy or async
  propagation), forcing a lease-based election, an epoch bump, stale-epoch
  2PC rejections and a supervisor-driven migration recovery — all at once;
* the :class:`~repro.faults.invariants.InvariantChecker` watches
  single-owner, no-dual-leader and replica-divergence invariants
  throughout, and the run ends with the no-lost-updates counter audit plus
  a full leader-vs-follower state comparison.

It is the chaos soak's run (:func:`~repro.experiments.chaos.run_soak`)
with replication on and one phase-targeted crash as the fault plan, so
runs are fully determined by ``(config, seed)`` and the metrics mark
stream doubles as a replayable timeline, exactly as in the chaos soak.

:func:`run_remaster_comparison` is the STAR-style asymmetric-availability
probe: migrating a replicated shard onto a node that already holds an
in-sync follower (wait-and-remaster) must move strictly less data than a
full Remus copy onto a fresh node.
"""

from dataclasses import dataclass

from repro.experiments.chaos import TABLE, counters_cluster, run_soak
from repro.experiments.common import check_no_crashes, run_until_finished
from repro.faults import FaultPlan
from repro.faults.plan import Fault
from repro.migration import RemusMigration, WaitAndRemasterMigration


@dataclass
class FailoverConfig:
    """Scaled-down replicated consolidation for multi-seed soaks."""

    num_nodes: int = 4
    num_keys: int = 120
    num_shards: int = 4
    n_followers: int = 2
    num_clients: int = 6
    think_time: float = 0.002
    warmup: float = 0.25  # workload-only time before the plan starts
    snapshot_cost: float = 1.5e-3  # stretches the copy so crashes land inside
    batch_pause: float = 0.3
    crash_phase: str = "snapshot_copy"  # when the leader crash fires
    crash_at: float = 0.3  # earliest time the phase wait is armed
    crash_duration: float = 1.2  # leader heals (as a follower) after this
    follow_crash: bool = False  # also crash a follower later in the run
    fault_spec: str = None  # explicit plan spec; None => phase-targeted crash
    max_sim_time: float = 90.0
    settle: float = 3.0  # post-plan drain (election, catch-up, final ticks)
    seed: int = 0

    def make_costs(self):
        from repro.config import CostModel

        return CostModel(snapshot_scan_per_tuple=self.snapshot_cost)


def _build_replicated(config):
    """Soak cluster with every counters shard a replication group."""
    cluster = counters_cluster(config)
    cluster.enable_replication(TABLE, n_followers=config.n_followers)
    return cluster


def run_failover(config=None):
    """Run one failover soak iteration; returns a
    :class:`~repro.experiments.chaos.SoakResult`.

    Raises if any invariant is violated (including replica divergence and
    dual leadership), a background process crashes, the counter audit finds
    a lost update, or the supervised plan wedges."""
    config = config or FailoverConfig()
    cluster = _build_replicated(config)

    # Supervised Remus migration of one replicated shard from node-1 to the
    # node *outside* its replication group — the full copy + propagation
    # protocol (a member destination would take the remaster fast path and
    # never exercise the crash-mid-copy recovery this soak is about).
    target_shard = cluster.shards_on_node("node-1", table=TABLE)[0]
    member_nodes = {
        replica.node_id
        for replica in cluster.replication.group_for(target_shard).replicas
    }
    dest = min(n for n in cluster.node_ids() if n not in member_nodes)

    # Fault plan: crash the migrating shard's group leader once the
    # migration reaches the configured phase (plus, optionally, a later
    # follower crash on the same shard).
    if config.fault_spec:
        fault_plan = FaultPlan.parse(config.fault_spec)
    else:
        shard = (target_shard.table, target_shard.index)
        faults = [
            Fault(
                "crash_leader", at=config.crash_at, shard=shard,
                phase=config.crash_phase, duration=config.crash_duration,
            )
        ]
        if config.follow_crash:
            faults.append(
                Fault(
                    "crash_follower", at=config.crash_at + 1.5, shard=shard,
                    duration=config.crash_duration,
                )
            )
        fault_plan = FaultPlan(faults)
    result = run_soak(
        cluster, config, "failover", [([target_shard], "node-1", dest)], fault_plan
    )
    result.crash_phase = config.crash_phase
    return result


def run_remaster_comparison(config=None):
    """STAR-style probe: bytes moved by a full Remus copy onto a fresh node
    vs wait-and-remaster onto a node already holding an in-sync follower.

    Returns ``{"remus_bytes": ..., "remaster_bytes": ..., "remus_tuples":
    ..., "remaster_tuples": ...}``; the remaster path must move strictly
    less (its destination already replicates the data)."""
    config = config or FailoverConfig()
    out = {}
    for approach, cls in (
        ("remus", RemusMigration),
        ("remaster", WaitAndRemasterMigration),
    ):
        cluster = _build_replicated(config)
        shard_id = cluster.shards_on_node("node-1", table=TABLE)[0]
        group = cluster.replication.group_for(shard_id)
        member_nodes = {replica.node_id for replica in group.replicas}
        if approach == "remaster":
            # Onto an in-sync follower: the prepositioned fast path.
            dest = min(
                n for n in sorted(member_nodes) if n != group.leader_node_id
            )
        else:
            # Onto a fresh node: the full copy the comparison is against.
            dest = min(n for n in cluster.node_ids() if n not in member_nodes)
        migration = cls(cluster, [shard_id], "node-1", dest)
        proc = cluster.spawn(migration.run(), name="compare-{}".format(approach))
        run_until_finished(
            cluster, proc, config.max_sim_time, what="comparison migration"
        )
        check_no_crashes(cluster)
        assert cluster.shard_owner(shard_id) == dest
        out["{}_bytes".format(approach)] = migration.stats.bytes_copied
        out["{}_tuples".format(approach)] = migration.stats.tuples_copied
    return out
