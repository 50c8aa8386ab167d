"""Chaos soak: consolidation under injected faults with live invariants.

The scenario drains one node's shards (Remus consolidation) while a
contended counter workload runs, a :class:`~repro.faults.nemesis.Nemesis`
injects a fault plan (node crashes, partitions, loss, latency spikes, WAL
stalls, migration crashes), the :class:`MigrationSupervisor` recovers and
retries, and an :class:`~repro.faults.invariants.InvariantChecker` watches
safety throughout. Everything is driven by seeded RNG streams, so a run is
fully determined by ``(config, seed)`` — the metrics mark stream doubles as
a replayable event timeline.

The run itself is :func:`run_soak`, which the failover soak
(:mod:`repro.experiments.failover`) shares with replication switched on.
"""

from dataclasses import dataclass, field

from repro.experiments.common import build_cluster, check_no_crashes, run_until_finished
from repro.faults import FaultPlan, InvariantChecker, Nemesis
from repro.migration import MigrationPlan, MigrationSupervisor, RemusMigration
from repro.migration.base import consolidation_batches
from repro.profiling import COUNTERS
from repro.workloads.client import run_transaction

TABLE = "counters"
#: Process-global counters a soak reports as its own run's increments.
_SOAK_COUNTERS = ("failover_elections", "stale_epoch_rejects", "repl_ship_batches")


@dataclass
class ChaosConfig:
    """Scaled-down consolidation suitable for multi-seed soak runs.

    The snapshot-copy cost is scaled up (as in the consolidation experiment)
    and batches are paced so the plan spans several simulated seconds —
    enough for the fault window to genuinely overlap the migrations."""

    num_nodes: int = 4
    num_keys: int = 240
    num_shards: int = 12
    num_clients: int = 8
    think_time: float = 0.002
    warmup: float = 0.25  # workload-only time before the plan starts
    snapshot_cost: float = 1.5e-3  # per-tuple copy cost (stretches batches)
    batch_pause: float = 0.35  # pause between plan batches
    fault_horizon: float = 3.0  # window the random faults are drawn from
    extra_faults: int = 2  # draws beyond the guaranteed crash/partition mix
    fault_spec: str = None  # explicit plan spec; None => random from seed
    group_size: int = 2
    max_sim_time: float = 90.0
    settle: float = 2.5  # post-plan drain (heals, stragglers, final ticks)
    seed: int = 0

    def make_costs(self):
        from repro.config import CostModel

        return CostModel(snapshot_scan_per_tuple=self.snapshot_cost)


@dataclass
class SoakResult:
    """Outcome of one supervised soak run (chaos or failover)."""

    seed: int
    crash_phase: str = ""  # the migration phase a failover crash targets
    committed: int = 0
    violations: list = field(default_factory=list)
    fault_plan: str = ""
    nemesis_timeline: list = field(default_factory=list)
    supervisor_events: list = field(default_factory=list)
    marks: list = field(default_factory=list)  # (time, name): event timeline
    plan_stats: object = None
    epochs: dict = field(default_factory=dict)  # replicated shard -> final epoch
    failover_elections: int = 0
    stale_epoch_rejects: int = 0
    repl_ship_batches: int = 0
    finished_at: float = 0.0

    @property
    def degraded(self):
        return self.plan_stats is not None and self.plan_stats.batches_skipped > 0

    def timeline_signature(self):
        """Hashable replay signature: the full metrics mark stream plus the
        commit count. Two runs of the same seed must produce equal values."""
        return (tuple(self.marks), self.committed)


def counters_cluster(config):
    """A Remus cluster holding the soak's ``counters`` table, loaded."""
    cluster = build_cluster(
        config.num_nodes, "remus", seed=config.seed, costs=config.make_costs()
    )
    cluster.create_table(TABLE, num_shards=config.num_shards, tuple_size=64)
    cluster.bulk_load(TABLE, [(k, {"n": 0}) for k in range(config.num_keys)])
    return cluster


def _increment_body(key):
    def body(session, txn):
        row = yield from session.read(txn, TABLE, key)
        yield from session.update(txn, TABLE, key, {"n": row["n"] + 1})

    return body


def run_soak(cluster, config, name, batches, fault_plan):
    """The supervised soak every fault scenario shares.

    Contended counter clients run on ``cluster`` (the SI no-lost-updates
    probe); the supervised Remus plan over ``batches`` starts after
    ``config.warmup``; a :class:`~repro.faults.nemesis.Nemesis` runs
    ``fault_plan`` while a live :class:`InvariantChecker` watches. Once the
    plan completes or degrades the clients stop, the run drains for
    ``config.settle`` and ends with the audits: one more invariant sweep,
    the counter audit, replica convergence (a no-op without replication)
    and no crashed process. ``name`` labels the processes and RNG streams.

    Raises if any invariant is violated, a background process crashes, or
    the supervised plan wedges (it must always complete or degrade).
    """
    counters_before = {counter: getattr(COUNTERS, counter) for counter in _SOAK_COUNTERS}
    node_ids = cluster.node_ids()
    state = {"running": True, "committed": 0}

    def client(client_id):
        rng = cluster.sim.rng("{}-client-{}".format(name, client_id))
        session = cluster.session(node_ids[client_id % len(node_ids)])

        def loop():
            while state["running"]:
                key = rng.randint(0, config.num_keys - 1)
                ok, _err = yield from run_transaction(
                    session, _increment_body(key), label="inc"
                )
                if ok:
                    state["committed"] += 1
                yield config.think_time
        return loop()

    for i in range(config.num_clients):
        cluster.spawn(client(i), name="{}-client-{}".format(name, i))

    plan = MigrationPlan(RemusMigration, batches, pause=config.batch_pause)
    supervisor = MigrationSupervisor(cluster, plan)

    def supervised():
        yield config.warmup
        return (yield from supervisor.run())

    plan_proc = cluster.spawn(supervised(), name="{}-consolidation".format(name))
    nemesis = Nemesis(cluster, fault_plan, supervisor=supervisor)
    cluster.spawn(nemesis.run(), name="nemesis")
    checker = InvariantChecker(cluster, supervisor=supervisor)
    cluster.spawn(checker.run(), name="invariant-checker")

    # The supervised plan must never hang: it completes or degrades.
    run_until_finished(
        cluster, plan_proc, config.max_sim_time, what="supervised {} plan".format(name)
    )

    # Drain: stop clients, let heals/stragglers/elections settle, final audits.
    state["running"] = False
    cluster.run(until=cluster.sim.now + config.settle)
    checker.check_once()
    checker.final_check(TABLE, state["committed"])
    checker.final_replication_check()
    check_no_crashes(cluster)

    return SoakResult(
        seed=config.seed,
        committed=state["committed"],
        violations=list(checker.violations),
        fault_plan=fault_plan.describe(),
        nemesis_timeline=list(nemesis.timeline),
        supervisor_events=list(supervisor.events),
        marks=list(cluster.metrics.marks),
        plan_stats=plan.stats,
        epochs={
            str(group.shard_id): group.epoch
            for group in cluster.replication.sorted_groups()
        },
        finished_at=cluster.sim.now,
        **{
            counter: getattr(COUNTERS, counter) - before
            for counter, before in counters_before.items()
        },
    )


def run_chaos(config=None):
    """Run one chaos soak iteration: drain node-1 under a fault plan drawn
    from the seed (or ``config.fault_spec``); see :func:`run_soak`."""
    config = config or ChaosConfig()
    cluster = counters_cluster(config)
    batches = consolidation_batches(cluster, "node-1", TABLE, config.group_size)
    if config.fault_spec:
        fault_plan = FaultPlan.parse(config.fault_spec)
    else:
        fault_plan = FaultPlan.random(
            cluster.sim.rng("fault-plan"),
            cluster.node_ids(),
            config.fault_horizon,
            extra_faults=config.extra_faults,
        )
    return run_soak(cluster, config, "chaos", batches, fault_plan)
