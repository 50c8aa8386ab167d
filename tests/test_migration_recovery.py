"""Crash-recovery tests for in-flight migrations (§3.7): Remus crashed at
every phase, and the baselines' crashes."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.migration import RemusMigration
from repro.migration.recovery import crash_migration, recover_migration
from repro.txn.errors import TransactionError
from repro.txn.transaction import TxnState
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def build():
    from repro.config import CostModel

    # Stretch the snapshot copy so there is a window to crash in.
    cluster = Cluster(
        ClusterConfig(num_nodes=3, costs=CostModel(snapshot_scan_per_tuple=2e-3))
    )
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(num_tuples=600, num_shards=6, num_clients=4,
                   tuple_size=256, think_time=0.004),
    )
    workload.create()
    return cluster, workload


def recover(cluster, migration, residual):
    proc = cluster.spawn(recover_migration(cluster, migration, residual))
    cluster.run(until=cluster.sim.now + 30.0)
    assert proc.finished
    return proc.result()


def test_crash_before_tm_rolls_back():
    """A crash before T_m leaves the source authoritative; the destination's
    partial copy is dropped and the migration can be retried."""
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    # Crash mid snapshot copy / propagation, before T_m exists.
    cluster.run(until=0.6)
    assert migration.stats.tm_commit_ts is None
    proc.interrupt("crash")
    cluster.run(until=0.7)
    residual = crash_migration(migration)
    outcome = recover(cluster, migration, residual)
    assert outcome == "rolled_back"
    assert cluster.shard_owner(shard) == "node-1"
    assert not cluster.nodes["node-2"].has_shard_data(shard)
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples

    # The migration can be initiated again and completes.
    retry = RemusMigration(cluster, [shard], "node-1", "node-2")
    retry_proc = cluster.spawn(retry.run())
    cluster.run(until=cluster.sim.now + 30.0)
    assert retry_proc.finished
    retry_proc.result()
    assert cluster.shard_owner(shard) == "node-2"
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples


def test_crash_after_tm_continues_migration():
    """A crash after T_m committed: the destination owns the shard; recovery
    completes the migration without losing any committed write."""
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]

    # A long transaction keeps dual execution open so we can crash inside it.
    session = cluster.session("node-3")

    def long_txn():
        txn = yield from session.begin(label="long")
        keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
        yield from session.read(txn, "ycsb", keys[0])
        yield 5.0
        if not txn.finished:
            yield from session.abort(txn)

    cluster.spawn(long_txn())
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    # Let it run until T_m commits (dual execution), then crash.
    while migration.stats.tm_commit_ts is None and not proc.finished:
        cluster.run(until=cluster.sim.now + 0.02)
    assert not proc.finished, "migration finished before we could crash it"
    proc.interrupt("crash")
    cluster.run(until=cluster.sim.now + 0.05)
    residual = crash_migration(migration)
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    outcome = recover(cluster, migration, residual)
    assert outcome == "completed"
    assert cluster.shard_owner(shard) == "node-2"
    assert not cluster.nodes["node-1"].has_shard_data(shard)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples


def test_crash_after_tm_recovers_under_live_workload():
    """The "completed" recovery path with the YCSB workload still running
    *through* the recovery: post-T_m the destination is authoritative, new
    transactions keep routing there while recovery repairs the copy, and no
    committed write is lost."""
    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]

    # A long transaction keeps dual execution open so the crash lands inside.
    session = cluster.session("node-3")

    def long_txn():
        txn = yield from session.begin(label="long")
        keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
        yield from session.read(txn, "ycsb", keys[0])
        yield 5.0
        if not txn.finished:
            yield from session.abort(txn)

    cluster.spawn(long_txn())
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    while migration.stats.tm_commit_ts is None and not proc.finished:
        cluster.run(until=cluster.sim.now + 0.02)
    assert not proc.finished, "migration finished before we could crash it"
    proc.interrupt("crash")
    cluster.run(until=cluster.sim.now + 0.05)
    residual = crash_migration(migration)
    # NOTE: the client pool keeps committing during the whole recovery.
    outcome = recover(cluster, migration, residual)
    assert outcome == "completed"
    assert cluster.shard_owner(shard) == "node-2"
    cluster.run(until=cluster.sim.now + 0.5)
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples
    # The deliberately interrupted migration process is the only casualty;
    # no client or background process may have died.
    crashes = [
        (p.name, e) for p, e in cluster.sim.failed_processes
        if p.name != "migration"
    ]
    assert not crashes, crashes


def _crash_with_residual_shadow(source_commits):
    """Crash a Remus migration while a validated shadow awaits its source's
    decision; ``source_commits`` picks whether the source is already
    committing or still waiting for its validation ack. Returns the
    cluster, the migration, the written key, the writer's outcome and the
    residue the crash hands to recovery."""

    cluster, workload = build()
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
    session = cluster.session("node-1")
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")

    # Drive a source transaction into its validation stage mid-migration by
    # writing while in sync mode, then crash before the commit record ships.
    outcome = {}

    def writer():
        txn = outcome["txn"] = yield from session.begin(label="writer")
        yield from session.update(txn, "ycsb", keys[0], {"f0": "recovered"})
        yield 0.8  # stay open across the sync barrier
        try:
            yield from session.commit(txn)
            outcome["committed"] = True
        except Exception:
            if not txn.finished:
                yield from session.abort(txn)
            outcome["committed"] = False

    def crash_point():
        if not migration.propagation._validated:
            return False
        return not source_commits or outcome["txn"].state is TxnState.COMMITTING

    proc = cluster.spawn(migration.run(), name="migration")
    cluster.spawn(writer())
    while migration.stats.tm_commit_ts is None and not proc.finished:
        cluster.run(until=cluster.sim.now + 0.02)
    while not crash_point() and not proc.finished:
        cluster.sim.step()
    assert not proc.finished
    proc.interrupt("crash")
    return cluster, migration, keys[0], outcome, crash_migration(migration)


def _recover_residual_shadow(source_commits):
    """:func:`_crash_with_residual_shadow`, then recover at once."""
    cluster, migration, key, outcome, residual = _crash_with_residual_shadow(source_commits)
    recover(cluster, migration, residual)
    return cluster, key, outcome["committed"], residual


def test_residual_prepared_shadow_committed_iff_source_committed():
    """Prepared shadows take the same action as their source transaction,
    and end like every other transaction: finished, out of the registry.

    Once the crashed source still waits for its validation ack (it is
    terminated, so the shadow rolls back), once it is already committing
    (the shadow commits at the source's commit timestamp). Recovery starts
    the instant the crash is torn down: it must learn a still-PREPARED
    source's decision, never presume it."""
    for source_commits in (False, True):
        cluster, key, committed, residual = _recover_residual_shadow(source_commits)
        assert residual, "no prepared shadow left for recovery to resolve"
        assert committed is source_commits
        # The committed value is consistent on the new owner.
        dump = cluster.dump_table("ycsb")
        if committed:
            assert dump[key] == {"f0": "recovered"}
        else:
            assert dump[key] == {"f0": key}
        dest_clog = cluster.nodes["node-2"].clog
        for shadow, _entry in residual.values():
            status = dest_clog.status(shadow.participant("node-2").xid)
            assert shadow.finished
            assert shadow.state.value == status.value
            assert shadow.tid not in cluster.active_txns


@pytest.mark.parametrize("owned", [True, False])
def test_invariant_check_reports_a_shadow_no_recovery_owns(owned):
    """A crash hands the pipeline's prepared shadows to recovery. One that
    no recovery resolves stays PREPARED on the destination for ever, holding
    its row locks, although it is still a registered transaction: the
    invariant checker reports it once the grace period has passed, and
    stays quiet while a running recovery owns it."""
    from repro.faults.invariants import GRACE, InvariantChecker
    from repro.migration import MigrationPlan
    from repro.migration.supervisor import MigrationSupervisor

    cluster, migration, _key, _outcome, residual = _crash_with_residual_shadow(False)
    supervisor = MigrationSupervisor(cluster, MigrationPlan(RemusMigration, []))
    supervisor.plan.migrations.append(migration)
    if owned:
        supervisor.residue = residual
    checker = InvariantChecker(cluster, supervisor=supervisor)
    checker.check_once()
    cluster.run(until=cluster.sim.now + GRACE)
    checker.check_once()
    orphans = [d for _t, d in checker.violations if "orphaned PREPARED" in d]
    shadows = [shadow for shadow, _entry in residual.values()]
    assert shadows and all(shadow.tid in cluster.active_txns for shadow in shadows)
    expected = [] if owned else [
        "orphaned PREPARED xid {} on node-2 (no live transaction, propagation or "
        "recovery references it)".format(shadow.participant("node-2").xid)
        for shadow in shadows
    ]
    assert orphans == expected


def test_lossy_destination_mid_replay_wounds_and_recovers():
    """A destination link that turns lossy mid-replay must surface through
    ``Propagation.wounded`` (never a hang), trigger supervised crash
    recovery, and leave no replay slot leaked."""
    from repro.migration import MigrationPlan
    from repro.migration.supervisor import MigrationSupervisor

    cluster, workload = build()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = MigrationPlan(RemusMigration, [([shard], "node-1", "node-2")])
    supervisor = MigrationSupervisor(cluster, plan)
    proc = cluster.spawn(supervisor.run(), name="supervised-plan")

    wounded_pipelines = []

    def nemesis():
        # Fire at the exact async-propagation phase entry: the buffered
        # replay burst is about to ship, so its transfers hit the dead link.
        yield supervisor.phase_event("async_propagation")
        propagation = supervisor.current.propagation
        cluster.network.set_loss("node-1", "node-2", 1.0)
        while propagation.wounded is None:
            yield 0.01
        wounded_pipelines.append(propagation)
        yield 0.2  # keep the link down through the watchdog's crash
        cluster.network.set_loss("node-1", "node-2", 0.0)

    cluster.spawn(nemesis(), name="nemesis")
    cluster.run(until=60.0)
    assert proc.finished
    pool.stop()
    cluster.run(until=cluster.sim.now + 1.0)

    assert wounded_pipelines, "the lossy link never wounded the pipeline"
    propagation = wounded_pipelines[0]
    # No leaked replay slots: every interrupted task released its slot.
    assert propagation._slots.in_use == 0
    assert propagation._slots.queued == 0
    assert plan.stats.crash_recoveries >= 1
    # Recovery (plus the batch retry) finished the move without losing data.
    assert cluster.shard_owner(shard) == "node-2"
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples


# ----------------------------------------------------------------------
# Crash-point matrix: recovery is correct at any instant, with no settle
# ----------------------------------------------------------------------
def _after_entry(hops):
    """Crash point: the interrupt is sent ``hops`` zero-delay slots after
    the phase is entered, so it lands at the phase's first yield however
    short the phase is (a mode change with nothing to wait for takes no
    simulated time, and runs within one dispatch)."""
    return ("entry", hops)


def _when(predicate):
    """Crash point: the first dispatch after which ``predicate(migration,
    cluster, entered_at)`` holds while the phase is still running."""
    return ("when", predicate)


def _tm_in(state, settled_legs):
    """T_m is in ``state`` and at least ``settled_legs`` participants have
    reached it in their CLOG (PREPARED or COMMITTED)."""
    want = {TxnState.PREPARING: "prepared", TxnState.COMMITTING: "committed"}[state]

    def predicate(migration, cluster, _entered_at):
        tm = migration._tm_txn
        if tm is None or tm.state is not state:
            return False
        legs = sum(
            cluster.nodes[p.node_id].clog.status(p.xid).value == want
            for p in tm.participants.values()
        )
        return legs >= settled_legs

    return predicate


def _validated_source_committing(migration, cluster, _entered_at):
    """A source transaction has a validated (prepared) shadow and is
    already committing: its decision is in flight when the crash lands."""
    validated = migration.propagation._validated
    for txn in cluster.snapshot_active_txns():
        participant = txn.participant(migration.source)
        if (
            txn.state is TxnState.COMMITTING
            and participant is not None
            and participant.xid in validated
        ):
            return True
    return False


#: cell -> (phase open at the crash, crash point, T_m committed by then).
_CRASH_POINTS = {
    "snapshot_copy@entry": ("snapshot_copy", _after_entry(1), False),
    "snapshot_copy@0.05s": (
        "snapshot_copy", _when(lambda m, c, t0: c.sim.now >= t0 + 0.05), False,
    ),
    "snapshot_copy@0.15s": (
        "snapshot_copy", _when(lambda m, c, t0: c.sim.now >= t0 + 0.15), False,
    ),
    "async_propagation@entry": ("async_propagation", _after_entry(1), False),
    "async_propagation@replaying": (
        "async_propagation", _when(lambda m, c, t0: m.stats.records_applied > 0), False,
    ),
    "mode_change@barrier_set": ("mode_change", _after_entry(1), False),
    "dual_execution@announce": ("dual_execution", _after_entry(1), False),
    "tm_preparing@first": (
        "dual_execution", _when(_tm_in(TxnState.PREPARING, 0)), False,
    ),
    "tm_preparing@leg_prepared": (
        "dual_execution", _when(_tm_in(TxnState.PREPARING, 1)), False,
    ),
    "tm_committing@first": (
        "dual_execution", _when(_tm_in(TxnState.COMMITTING, 0)), True,
    ),
    "tm_committing@leg_committed": (
        "dual_execution", _when(_tm_in(TxnState.COMMITTING, 1)), True,
    ),
    "dual_execution@tm_committed": (
        "dual_execution", _when(lambda m, c, t0: m.stats.tm_commit_ts is not None), True,
    ),
    "dual_execution@source_deciding": (
        "dual_execution", _when(_validated_source_committing), True,
    ),
}


def _writers(cluster, keys, last, state, count=3, kind="writer"):
    """Live writers on the migrating shard, one per node. Each holds its
    transaction open for a while so that some straddle every phase
    boundary; a ``"reader"`` reads its key and holds before it writes it
    too, so that one begun before T_m may write after it. ``last[key]`` is
    the (commit ts, value) of the latest committed write."""
    for i in range(count):
        session = cluster.session(cluster.node_ids()[i % len(cluster.node_ids())])
        rng = cluster.sim.rng("matrix-{}-{}".format(kind, i))

        def loop(i=i, session=session, rng=rng):
            seq = 0
            while state["running"]:
                seq += 1
                key = keys[rng.randint(0, len(keys) - 1)]
                value = {"f0": "{}{}-{}".format(kind[0], i, seq)}
                txn = yield from session.begin(label=kind)
                try:
                    if kind == "reader":
                        yield from session.read(txn, "ycsb", key)
                        yield rng.random() * 0.03
                    yield from session.update(txn, "ycsb", key, value)
                    yield rng.random() * 0.03
                    commit_ts = yield from session.commit(txn)
                except TransactionError:
                    if not txn.finished:
                        yield from session.abort(txn)
                    yield 0.002
                    continue
                if key not in last or last[key][0] < commit_ts:
                    last[key] = (commit_ts, value)
                yield 0.001

        cluster.spawn(loop(), name="matrix-{}-{}".format(kind, i))


def _assert_last_writes_kept(cluster, shard, last, cell):
    """Every key the writers wrote holds its last committed write on the
    shard's final owner."""
    heap = cluster.nodes[cluster.shard_owner(shard)].heap_for(shard)
    assert last, "the writers committed nothing"
    lost = {
        key: (value, heap.committed_version(key).value)
        for key, (_ts, value) in last.items()
        if heap.committed_version(key).value != value
    }
    assert not lost, "{}: last committed writes lost: {}".format(cell, lost)


def _crash_and_recover(cell):
    """Run one matrix cell: crash a Remus migration under live writers at
    the cell's point, tear it down and recover in the same instant. The
    writers stop at the crash (their in-flight transactions finish), so
    no later write can paper over a lost one. Returns the outcome."""
    from repro.storage.clog import TxnStatus

    phase, (kind, how), tm_committed = _CRASH_POINTS[cell]
    cluster, _workload = build()
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
    last, state = {}, {"running": True}
    _writers(cluster, keys, last, state)
    cluster.run(until=0.1)
    migration = RemusMigration(cluster, [shard], "node-1", "node-2")
    proc = cluster.spawn(migration.run(), name="migration")
    entered = {}

    def on_phase(name):
        entered[name] = cluster.sim.now
        if kind == "entry" and name == phase:
            send_after(how)

    def send_after(hops):
        if hops:
            cluster.sim.schedule(0.0, send_after, hops - 1)
        else:
            proc.interrupt("crash")

    migration.stats.on_phase = on_phase
    if kind == "when":
        while not proc.finished:
            start, end = migration.stats.phase_times.get(phase, (None, 0))
            if end is None and how(migration, cluster, start):
                proc.interrupt("crash")
                break
            cluster.sim.step()
    while not proc.finished:
        cluster.sim.step()
    assert migration.stats.phase_times[phase][1] is None, "crashed outside " + phase
    assert (migration.stats.tm_commit_ts is not None or (
        migration._tm_txn is not None and migration._tm_txn.commit_ts is not None
    )) is tm_committed
    state["running"] = False
    residual = crash_migration(migration)
    recovery = cluster.spawn(recover_migration(cluster, migration, residual))
    cluster.run(until=cluster.sim.now + 30.0)
    assert recovery.finished
    outcome = recovery.result()
    assert outcome == ("completed" if tm_committed else "rolled_back")

    assert cluster.shard_owner(shard) == ("node-2" if tm_committed else "node-1")
    _assert_last_writes_kept(cluster, shard, last, cell)
    prepared = [
        (node_id, xid)
        for node_id, node in cluster.nodes.items()
        for xid, status in node.clog.statuses()
        if status is TxnStatus.PREPARED
    ]
    assert not prepared, prepared
    assert not [t for t in cluster.snapshot_active_txns() if t.is_shadow]
    assert not [
        (p.name, e) for p, e in cluster.sim.failed_processes if p is not proc
    ]
    return outcome


@pytest.mark.parametrize("cell", sorted(_CRASH_POINTS))
def test_crash_point_matrix(cell):
    """A Remus migration crashed at any of 13 points spread over every
    phase — snapshot copy, async propagation, mode change, T_m prepare, T_m
    commit and dual execution — and recovered at once: every key on its
    final owner holds its last committed write, no CLOG entry is left
    PREPARED and no shadow transaction active."""
    _crash_and_recover(cell)


def test_crash_point_matrix_catches_a_presumed_source_outcome(monkeypatch):
    """The matrix is sharp: with recovery presuming a still-PREPARED
    source aborted (not waiting for its decision) a shadow is rolled back
    while its source commits, and the cells where a decision is in flight
    lose that write."""
    from repro.migration import recovery
    from repro.storage.clog import TxnStatus

    def presumed_outcome(source_node, source_xid):
        clog = source_node.clog
        if clog.status(source_xid) is TxnStatus.COMMITTED:
            return clog.commit_ts(source_xid)
        return None
        yield  # pragma: no cover - a generator like the real one

    monkeypatch.setattr(recovery, "_source_outcome", presumed_outcome)
    with pytest.raises(AssertionError, match="last committed writes lost"):
        _crash_and_recover("dual_execution@source_deciding")


# ----------------------------------------------------------------------
# The baselines crash too: their access hooks fence the source until
# recovery is done, then go
# ----------------------------------------------------------------------
def _crash_baseline(approach, phase, crash_when, **kwargs):
    """Crash a baseline migration under the matrix's writers and readers
    once ``phase`` is running and ``crash_when(migration)`` holds, tear it
    down and recover at once. A reader writes late in its transaction, so
    some begun before T_m write the source copy while recovery runs. Both
    stop when recovery is done; then every key must hold its last committed
    write on its final owner, and no access hook may remain. Returns
    (outcome, commits of fresh writers on the shard in the 2 s after)."""
    from repro.migration import APPROACHES

    cluster, workload = build()
    if approach == "squall":
        cluster.cc_mode = "shard_lock"
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    keys = sorted(cluster.nodes["node-1"].heap_for(shard).keys())
    last, writing = {}, {"running": True}
    _writers(cluster, keys, last, writing)
    _writers(cluster, keys, last, writing, kind="reader")
    cluster.run(until=0.5)
    migration = APPROACHES[approach](cluster, [shard], "node-1", "node-2", **kwargs)
    proc = cluster.spawn(migration.run(), name="migration")
    while not proc.finished:
        _start, end = migration.stats.phase_times.get(phase, (None, 0))
        if end is None and crash_when(migration):
            proc.interrupt("crash")
            break
        cluster.sim.step()
    while not proc.finished:
        cluster.sim.step()
    assert migration.stats.phase_times[phase][1] is None, "crashed outside " + phase
    residual = crash_migration(migration)
    recovery = cluster.spawn(recover_migration(cluster, migration, residual))
    deadline = cluster.sim.now + 30.0
    while not recovery.finished and cluster.sim.now < deadline:
        cluster.sim.step()
    assert recovery.finished
    writing["running"] = False
    cluster.run(until=cluster.sim.now + 1.0)
    outcome = recovery.result()
    assert not cluster._access_hooks
    _assert_last_writes_kept(cluster, shard, last, "{}[{}]".format(approach, phase))
    committed = len(cluster.metrics.commits)
    again = {"running": True}
    _writers(cluster, keys, {}, again)
    cluster.run(until=cluster.sim.now + 2.0)
    committed = len(cluster.metrics.commits) - committed
    again["running"] = False
    cluster.run(until=cluster.sim.now + 1.0)
    assert len(cluster.dump_table("ycsb")) == workload.config.num_tuples
    assert not [(p.name, e) for p, e in cluster.sim.failed_processes if p is not proc]
    return outcome, committed


def _writers_blocked(migration):
    gate = migration.access_hook
    return gate is not None and gate.blocked > 0


def _tm_committed(migration):
    return migration.stats.tm_commit_ts is not None


@pytest.mark.parametrize(
    "crash_when,expected",
    [(_writers_blocked, "rolled_back"), (_tm_committed, "completed")],
    ids=["writers_blocked", "tm_committed"],
)
def test_lock_and_abort_crash_in_transfer_releases_blocked_writers(crash_when, expected):
    """A lock-and-abort migration crashed in its ownership transfer: while
    writers are blocked on its write gate (T_m not yet run), or once T_m
    has committed and the cache refresh is still on its way. The gate opens
    (blocked writers abort and retry) but stays installed until recovery
    is done, so no pre-T_m writer commits on the source copy recovery
    drops; then it goes, and writers commit again."""
    outcome, committed = _crash_baseline(
        "lock_and_abort", "ownership_transfer", crash_when
    )
    assert outcome == expected
    assert committed > 0


#: cell -> (phase open at the crash, crash point, recovery outcome).
_SQUALL_CRASHES = {
    "reconfig": ("reconfig", lambda m: m._tm_txn is not None, "rolled_back"),
    "pulls@entry": ("pulls", lambda m: True, "completed"),
    "pulls@chunk_pulled": ("pulls", lambda m: m.stats.chunks_pulled > 0, "completed"),
}


@pytest.mark.parametrize("cell", sorted(_SQUALL_CRASHES))
def test_squall_crash_removes_its_tracker_hook(cell):
    """A Squall migration crashed while it flips ownership (T_m in flight),
    as its pulls begin, or once it has pulled a chunk: the teardown stops
    the background pullers; the tracking-table hook keeps pulling for
    destination transactions and aborting pre-T_m ones on moved chunks
    until recovery has rolled back or completed the move, then goes, and
    writers commit again."""
    phase, crash_when, expected = _SQUALL_CRASHES[cell]
    outcome, committed = _crash_baseline("squall", phase, crash_when, chunk_bytes=4096)
    assert outcome == expected
    assert committed > 0


def test_baseline_crash_check_catches_a_hook_removed_at_the_crash(monkeypatch):
    """The baseline check is sharp: with the crash teardown removing the
    write gate at once, a pre-T_m transaction writes the source copy while
    recovery waits it out, and that write is lost with the source copy."""
    import sys

    real_crash = crash_migration

    def crash_and_unhook(migration):
        residual = real_crash(migration)
        migration.lift_fences()
        return residual

    monkeypatch.setattr(sys.modules[__name__], "crash_migration", crash_and_unhook)
    with pytest.raises(AssertionError, match="last committed writes lost"):
        _crash_baseline("lock_and_abort", "ownership_transfer", _tm_committed)
