"""Per-shard replication groups: quorum commit, election, rehoming.

Covers the replicated-shard robustness layer: WAL-shipped group logs,
quorum-acknowledged 2PC, deterministic lease-based leader election, the
epoch-bumped migration handover, and the STAR-style remaster fast path for
destinations that already replicate the data.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.replication import REPL_LEASE_INTERVAL, REPL_LEASE_TIMEOUT
from repro.cluster.shard import ShardId
from repro.config import ClusterConfig
from repro.faults import Fault, FaultPlan, InvariantChecker
from repro.faults.plan import PHASES
from repro.migration import APPROACHES, RemusMigration, WaitAndRemasterMigration
from repro.profiling import COUNTERS
from repro.sim import SeedSequence
from repro.workloads.client import run_transaction

TABLE = "counters"
NUM_KEYS = 90
NUM_SHARDS = 3


def build(num_nodes=4, n_followers=2, seed=0):
    COUNTERS.reset()
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    cluster.create_table(TABLE, num_shards=NUM_SHARDS, tuple_size=64)
    cluster.bulk_load(TABLE, [(k, {"n": 0}) for k in range(NUM_KEYS)])
    cluster.enable_replication(TABLE, n_followers=n_followers)
    return cluster


def increment_body(key):
    def body(session, txn):
        row = yield from session.read(txn, TABLE, key)
        yield from session.update(txn, TABLE, key, {"n": row["n"] + 1})

    return body


def run_clients(cluster, state, num_clients=4, think=0.002):
    node_ids = cluster.node_ids()

    def client(client_id):
        rng = cluster.sim.rng("repl-client-{}".format(client_id))
        session = cluster.session(node_ids[client_id % len(node_ids)])

        def loop():
            while state["running"]:
                key = rng.randint(0, NUM_KEYS - 1)
                ok, _err = yield from run_transaction(
                    session, increment_body(key), label="inc"
                )
                if ok:
                    state["committed"] += 1
                yield think

        return loop()

    for i in range(num_clients):
        cluster.spawn(client(i), name="repl-client-{}".format(i))


def committed_map(group, node_id):
    cluster = group.cluster
    return dict(group._committed_rows(cluster.nodes[node_id]))


def assert_group_converged(group):
    assert all(r.next_index == len(group.log) for r in group.live_replicas())
    want = committed_map(group, group.leader_node_id)
    for replica in group.live_replicas():
        assert committed_map(group, replica.node_id) == want, replica.node_id


def assert_no_orphaned_prepares(cluster):
    from repro.storage.clog import TxnStatus

    for node_id, node in cluster.nodes.items():
        prepared = [
            xid for xid, status in node.clog.statuses()
            if status is TxnStatus.PREPARED
        ]
        assert not prepared, (node_id, prepared)


# ----------------------------------------------------------------------
# Group replication basics
# ----------------------------------------------------------------------
def test_groups_replicate_committed_writes():
    cluster = build()
    state = {"running": True, "committed": 0}
    run_clients(cluster, state)
    cluster.run(until=1.0)
    state["running"] = False
    cluster.run(until=2.0)
    assert state["committed"] > 0
    assert COUNTERS.repl_ship_batches > 0
    for group in cluster.replication.sorted_groups():
        assert len(group.replicas) == 3
        assert group.quorum == 2
        assert group.epoch == 1
        assert len(group.log) > 0
        assert_group_converged(group)
    assert not cluster.sim.failed_processes


def test_replication_is_deterministic():
    def run_once():
        cluster = build(seed=3)
        state = {"running": True, "committed": 0}
        run_clients(cluster, state)
        cluster.run(until=0.8)
        state["running"] = False
        cluster.run(until=1.6)
        group = cluster.replication.group_for(ShardId(TABLE, 0))
        return (
            tuple(cluster.metrics.marks),
            state["committed"],
            tuple(e.sig for e in group.log),
        )

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------
def test_leader_crash_elects_lowest_live_replica():
    cluster = build()
    state = {"running": True, "committed": 0}
    run_clients(cluster, state)
    cluster.run(until=0.4)
    shard_id = ShardId(TABLE, 0)
    group = cluster.replication.group_for(shard_id)
    old_leader = group.leader_node_id
    expected = min(
        (r for r in group.replicas if r.node_id != old_leader),
        key=lambda r: r.replica_id,
    )
    group.crash_replica(old_leader)
    cluster.run(until=1.5)
    assert group.epoch == 2
    assert group.leader_node_id == expected.node_id
    assert cluster.shard_owner(shard_id) == expected.node_id
    assert COUNTERS.failover_elections == 1
    # The deposed leader heals as a follower and catches up.
    group.heal_replica(old_leader)
    cluster.run(until=2.5)
    state["running"] = False
    cluster.run(until=3.5)
    assert group.leader_node_id == expected.node_id
    assert_group_converged(group)
    assert_no_orphaned_prepares(cluster)
    assert not cluster.sim.failed_processes


def test_no_lost_updates_across_election():
    cluster = build(seed=5)
    state = {"running": True, "committed": 0}
    run_clients(cluster, state, num_clients=6)
    shard_id = ShardId(TABLE, 0)
    group = cluster.replication.group_for(shard_id)

    def crasher():
        yield 0.3
        group.crash_replica(group.leader_node_id)
        yield 1.0
        group.heal_replica("node-1")

    cluster.spawn(crasher(), name="crasher")
    cluster.run(until=2.0)
    state["running"] = False
    cluster.run(until=3.5)
    total = sum(row["n"] for row in cluster.dump_table(TABLE).values())
    assert total == state["committed"]
    checker = InvariantChecker(cluster)
    checker.check_once()
    checker.final_replication_check()
    assert checker.violations == []


# ----------------------------------------------------------------------
# Migration of a replicated shard
# ----------------------------------------------------------------------
def _migrate_replicated_shard(cluster, approach, member_dest, until=20.0):
    """Move the first replicated shard on node-1 to a member of its group
    (``member_dest``) or to the lowest non-member node, under the counter
    clients, with ``approach``; returns (group, destination, migration,
    client state) once the clients have stopped and the group settled."""
    if approach == "squall":
        cluster.cc_mode = "shard_lock"
    state = {"running": True, "committed": 0}
    run_clients(cluster, state)
    cluster.run(until=0.3)
    shard_id = cluster.shards_on_node("node-1", table=TABLE)[0]
    group = cluster.replication.group_for(shard_id)
    members = {r.node_id for r in group.replicas}
    if member_dest:
        dest = min(n for n in members if n != group.leader_node_id)
    else:
        dest = min(n for n in cluster.node_ids() if n not in members)
    migration = APPROACHES[approach](cluster, [shard_id], "node-1", dest)
    proc = cluster.spawn(migration.run(), name="migration")
    cluster.run(until=until)
    assert proc.finished
    proc.result()
    state["running"] = False
    cluster.run(until=cluster.sim.now + 1.5)
    return group, dest, migration, state


@pytest.mark.parametrize("approach", sorted(APPROACHES))
def test_migration_rehomes_group_onto_nonmember_dest(approach):
    """Every approach ends through the one ending, which hands a replicated
    shard's group to the destination: owner, leader and epoch agree, and
    the group converges with no committed increment lost."""
    cluster = build()
    group, dest, migration, state = _migrate_replicated_shard(cluster, approach, False)
    # Epoch-bumped handover: the destination joined the group and leads it.
    assert cluster.shard_owner(group.shard_id) == dest
    assert group.leader_node_id == dest
    assert group.epoch == 2
    assert group.replica_on(dest) is not None
    assert migration.stats.bytes_copied > 0
    assert_group_converged(group)
    total = sum(row["n"] for row in cluster.dump_table(TABLE).values())
    assert total == state["committed"]
    assert not cluster.sim.failed_processes


@pytest.mark.parametrize("approach", sorted(APPROACHES))
def test_rehomed_pump_reads_the_held_dest_wal_across_recycles(approach):
    """The destination recycles its WAL on every vacuum pass while the
    migration runs; the migration's hold at ``_dest_wal_floor`` keeps every
    record the post-handover pump starts from, and goes with the handover —
    inline, or in a detached ending (lock-and-abort, Squall)."""
    COUNTERS.reset()
    cluster = Cluster(ClusterConfig(num_nodes=4, seed=0, vacuum_interval=0.002))
    cluster.create_table(TABLE, num_shards=NUM_SHARDS, tuple_size=64)
    # Rows past NUM_KEYS are never written: they only lengthen the copy, so
    # vacuum passes fall inside the migration.
    cluster.bulk_load(TABLE, [(k, {"n": 0}) for k in range(3000)])
    cluster.enable_replication(TABLE, n_followers=2)
    cluster.start_vacuum_daemons()
    shard_id = cluster.shards_on_node("node-1", table=TABLE)[0]
    group = cluster.replication.group_for(shard_id)
    members = {r.node_id for r in group.replicas}
    dest_wal = cluster.nodes[min(n for n in cluster.node_ids() if n not in members)].wal
    held_recycles, holds = [], set()
    recycle = dest_wal.recycle

    def recording_recycle(floor):
        if dest_wal._holds:  # only the migration holds this WAL
            held_recycles.append(floor)
            holds.update(dest_wal._holds.items())
        dropped = recycle(floor)
        assert all(dest_wal._base_lsn <= held for held in dest_wal._holds.values())
        return dropped

    dest_wal.recycle = recording_recycle
    group, dest, migration, state = _migrate_replicated_shard(
        cluster, approach, False, until=1.0
    )
    assert dest_wal is cluster.nodes[dest].wal
    assert group.leader_node_id == dest and group.epoch == 2
    assert not dest_wal._holds
    # The migration held the WAL at its floor, and nothing else held it.
    assert holds == {(migration, migration._dest_wal_floor)}
    # Some pass ran while the destination's WAL held records above the
    # floor that nothing else needed, and recycling went past it afterwards.
    assert max(held_recycles) > migration._dest_wal_floor
    assert dest_wal._base_lsn > migration._dest_wal_floor
    assert_group_converged(group)
    total = sum(row["n"] for row in cluster.dump_table(TABLE).values())
    assert total == state["committed"]
    assert not cluster.sim.failed_processes


@pytest.mark.parametrize("approach", ["squall", "stop_and_copy"])
def test_member_dest_remasters_for_every_approach(approach):
    """The pull and stop-and-copy approaches take the pure remaster path
    onto a member destination too: nothing is copied or pulled into the
    follower's heap, and the group converges under its new leader."""
    cluster = build()
    group, dest, migration, state = _migrate_replicated_shard(cluster, approach, True)
    assert migration.stats.bytes_copied == 0
    assert cluster.shard_owner(group.shard_id) == dest
    assert group.leader_node_id == dest
    assert group.epoch == 2
    assert_group_converged(group)
    total = sum(row["n"] for row in cluster.dump_table(TABLE).values())
    assert total == state["committed"]
    assert not cluster.sim.failed_processes


def test_member_dest_takes_remaster_path_and_stays_consistent():
    """Regression: a Remus migration onto a node that already hosts a
    follower replica must NOT snapshot-copy/propagate into that heap (the
    copied stale rows would shadow newer replicated versions = lost
    updates). It remasters through the group feed instead."""
    cluster = build()
    state = {"running": True, "committed": 0}
    run_clients(cluster, state, num_clients=6)
    cluster.run(until=0.3)
    shard_id = cluster.shards_on_node("node-1", table=TABLE)[0]
    group = cluster.replication.group_for(shard_id)
    dest = min(r.node_id for r in group.replicas if r.node_id != "node-1")
    migration = RemusMigration(cluster, [shard_id], "node-1", dest)
    proc = cluster.spawn(migration.run(), name="migration")
    cluster.run(until=20.0)
    assert proc.finished
    proc.result()
    state["running"] = False
    cluster.run(until=cluster.sim.now + 1.5)
    assert migration.stats.bytes_copied == 0
    assert migration.stats.tuples_copied == 0
    assert cluster.shard_owner(shard_id) == dest
    assert group.leader_node_id == dest
    total = sum(row["n"] for row in cluster.dump_table(TABLE).values())
    assert total == state["committed"]
    assert_group_converged(group)
    assert not cluster.sim.failed_processes


def test_wait_and_remaster_prepositioned_is_near_free():
    """STAR-style acceptance: wait-and-remaster onto an in-sync follower
    moves strictly less data than a full Remus copy onto a fresh node."""
    bytes_moved = {}
    for approach, cls, member_dest in (
        ("remus", RemusMigration, False),
        ("remaster", WaitAndRemasterMigration, True),
    ):
        cluster = build()
        state = {"running": True, "committed": 0}
        run_clients(cluster, state)
        cluster.run(until=0.3)
        shard_id = cluster.shards_on_node("node-1", table=TABLE)[0]
        group = cluster.replication.group_for(shard_id)
        members = {r.node_id for r in group.replicas}
        if member_dest:
            dest = min(n for n in members if n != group.leader_node_id)
        else:
            dest = min(n for n in cluster.node_ids() if n not in members)
        migration = cls(cluster, [shard_id], "node-1", dest)
        proc = cluster.spawn(migration.run(), name="migration")
        cluster.run(until=20.0)
        assert proc.finished
        proc.result()
        state["running"] = False
        cluster.run(until=cluster.sim.now + 1.0)
        assert cluster.shard_owner(shard_id) == dest
        bytes_moved[approach] = migration.stats.bytes_copied
        assert not cluster.sim.failed_processes
    assert bytes_moved["remaster"] == 0
    assert bytes_moved["remaster"] < bytes_moved["remus"]


# ----------------------------------------------------------------------
# Fault-plan grammar and random replicated plans
# ----------------------------------------------------------------------
def test_fault_plan_grammar_replica_crashes():
    plan = FaultPlan.parse(
        "crash_leader:counters:0@0.5+1.0; "
        "crash_follower:counters:2@1.0+0.5; "
        "crash_leader:counters:1:snapshot_copy@0.2+2.0"
    )
    kinds = sorted(f.kind for f in plan.faults)
    assert kinds == ["crash_follower", "crash_leader", "crash_leader"]
    phased = [f for f in plan.faults if f.phase is not None]
    assert len(phased) == 1 and phased[0].shard == ("counters", 1)
    assert all(f.shard is not None for f in plan.faults)
    assert "crash_leader" in plan.describe()
    with pytest.raises(ValueError):
        FaultPlan.parse("crash_leader:counters@0.5")
    with pytest.raises(ValueError):
        FaultPlan.parse("crash_leader:counters:x@0.5")
    with pytest.raises(ValueError):
        FaultPlan.parse("crash_leader:counters:0:bogus_phase@0.5")


def test_random_replicated_plan_mix_and_determinism():
    nodes = ["node-1", "node-2", "node-3", "node-4"]
    shards = [("counters", i) for i in range(3)]

    def draw(seed):
        plan = FaultPlan.random_replicated(
            SeedSequence(seed).stream("fault-plan"), nodes, shards, 3.0
        )
        return plan

    plan = draw(0)
    assert {"crash_leader", "crash_follower", "crash_migration"} <= plan.kinds()
    for fault in plan.faults:
        if fault.kind in ("crash_leader", "crash_follower"):
            assert fault.shard in shards
            assert fault.duration > 0
        if fault.kind == "crash_migration":
            assert fault.phase in PHASES
    assert draw(1).describe() == draw(1).describe()
    assert [f.describe() for f in draw(2).faults] != [
        f.describe() for f in draw(3).faults
    ]


def test_crash_node_on_downed_node_is_idempotent_noop():
    """Satellite: re-crashing an already-failed node must be a logged no-op
    instead of restarting its failover clock or double-firing recovery."""
    from repro.faults import Nemesis

    cluster = build()
    plan = FaultPlan(
        [
            Fault("crash_node", at=0.2, node="node-3", failover=0.5),
            Fault("crash_node", at=0.3, node="node-3", failover=0.5),
        ]
    )
    nemesis = Nemesis(cluster, plan)
    cluster.spawn(nemesis.run(), name="nemesis")
    cluster.run(until=2.0)
    notes = [d for _t, d in nemesis.timeline]
    assert "fault:crash_node:node-3" in notes
    assert "fault:crash_node:node-3:noop (already down)" in notes
    # Exactly one failover cycle: the second crash did not re-fail the node.
    fail_marks = [
        name for _t, name in cluster.metrics.marks
        if name.startswith("node_failed")
    ]
    assert len(fail_marks) == 1
    assert not cluster.sim.failed_processes


# ----------------------------------------------------------------------
# Yield-point races (simrace regressions)
# ----------------------------------------------------------------------
def test_monitor_revalidates_leader_after_probe_yield():
    """Regression (SIM101): the lease monitor checks leader liveness, then
    suspends on the probe RPC. If the leader heals while the probe is in
    flight, acting on the pre-probe check would depose a healthy leader and
    burn an epoch. The monitor must re-validate after the yield."""
    import math

    cluster = build()
    cluster.run(until=0.2)
    shard_id = ShardId(TABLE, 0)
    group = cluster.replication.group_for(shard_id)
    old_leader = group.leader_node_id
    interval = REPL_LEASE_INTERVAL
    needed = math.ceil(REPL_LEASE_TIMEOUT / interval)

    real_send = cluster.rpc_send
    probes = {"count": 0}

    def healing_send(src, dst, size=0, persistent=False):
        # Heal the leader at the exact probe whose accrued silence crosses
        # the lease timeout: the monitor's pre-probe check already saw the
        # leader down, so only a post-probe re-validation can notice.
        if dst == old_leader and size == 32:
            probes["count"] += 1
            if probes["count"] == needed:
                group.heal_replica(old_leader)
        yield from real_send(src, dst, size=size, persistent=persistent)

    cluster.rpc_send = healing_send
    group.crash_replica(old_leader)
    cluster.run(until=2.0)
    cluster.rpc_send = real_send

    assert probes["count"] >= needed
    assert group.epoch == 1, "healed leader was deposed on a stale check"
    assert group.leader_node_id == old_leader
    assert COUNTERS.failover_elections == 0
    assert_group_converged(group)
    assert not cluster.sim.failed_processes


def test_drain_waits_for_a_consumed_commit_to_reach_the_group_log():
    """Regression (publish before effect). The replication pump consumes a
    record, *then* pays its per-batch CPU charge, *then* turns it into a
    group-log entry. ``drain()`` used to read the consumed cursor, so it
    returned inside that window with the transaction's commit missing from
    the group log: a rehome would then stop the pump with the decision
    unreplicated."""
    from repro.config import CostModel
    from repro.storage.wal import WalRecord, WalRecordKind

    COUNTERS.reset()
    config = ClusterConfig(num_nodes=4, costs=CostModel(cpu_propagate=0.01))
    cluster = Cluster(config)
    cluster.create_table(TABLE, num_shards=NUM_SHARDS, tuple_size=64)
    cluster.bulk_load(TABLE, [(k, {"n": 0}) for k in range(NUM_KEYS)])
    cluster.enable_replication(TABLE, n_followers=2)
    shard_id = ShardId(TABLE, 0)
    group = cluster.replication.group_for(shard_id)
    leader = cluster.nodes[group.leader_node_id]
    schema = cluster.tables[TABLE]
    key = next(k for k in range(NUM_KEYS) if schema.shard_for_key(k) == shard_id)
    # A 2PC write on the leader whose COMMIT_PREPARED is the record that
    # crosses the first pump_batch_records (64) charge boundary: the pump
    # consumes it, then sits in a 0.64 s CPU charge before handling it.
    batch = config.pump_batch_records
    leader.wal.append(
        WalRecord(WalRecordKind.UPDATE, xid=970, shard_id=shard_id, key=key,
                  value={"n": 1}, size=64, start_ts=1)
    )
    leader.wal.append(WalRecord(WalRecordKind.PREPARE, xid=970, start_ts=1))
    for i in range(batch - 3):
        leader.wal.append(
            WalRecord(WalRecordKind.INSERT, xid=971, shard_id=("other", 0), key=i)
        )
    leader.wal.append(
        WalRecord(WalRecordKind.COMMIT_PREPARED, xid=970, commit_ts=100)
    )
    out = {}

    def drainer():
        yield 0.01
        out["before"] = [(e.kind, e.xid) for e in group.log]
        yield from group.drain()
        out["after"] = [(e.kind, e.xid) for e in group.log]
        out["at"] = cluster.sim.now

    cluster.spawn(drainer(), name="drainer")
    cluster.run(until=2.0)
    assert out["before"] == [("prepare", 970)]
    assert out["after"] == [("prepare", 970), ("commit", 970)], out["after"]
    assert out["at"] > batch * 0.01
    assert not cluster.sim.failed_processes


def test_feeder_never_rewinds_cursor_overtaken_during_apply():
    """Regression (SIM101, loop-carried): the feeder captures a log entry,
    then suspends inside the apply. A catch-up (election/rehome) advancing
    ``replica.next_index`` during that suspension must not be overwritten
    by the feeder's stale ``entry.seq + 1`` — the rewind would re-ship and
    re-apply entries the catch-up already applied."""
    cluster = build()
    cluster.run(until=0.2)
    group = cluster.replication.group_for(ShardId(TABLE, 0))
    follower = group.live_followers()[0]
    base = len(group.log)

    applied = []
    real_apply = group._apply_entry

    def racing_apply(replica, entry):
        applied.append((replica.node_id, entry.seq))
        if replica is follower and entry.seq == base:
            # Simulate an election catch-up applying both entries directly
            # while this feeder's ship/apply is still in flight.
            follower.next_index = base + 2
            follower.applied_sig = group.log[base + 1].sig
        yield from real_apply(replica, entry)

    group._apply_entry = racing_apply
    # Two abort entries: their apply is pure bookkeeping (idempotent), so
    # the injected race is observable purely through the cursor.
    group._append_entry("abort", group.leader_node_id, 7001, None, None)
    group._append_entry("abort", group.leader_node_id, 7002, None, None)
    cluster.run(until=1.0)
    group._apply_entry = real_apply

    follower_applies = [seq for node, seq in applied if node == follower.node_id]
    assert follower_applies == [base], follower_applies
    assert follower.next_index == base + 2
    assert_group_converged(group)
    assert not cluster.sim.failed_processes
