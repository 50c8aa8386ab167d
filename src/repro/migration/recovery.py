"""Crash recovery of in-flight migrations (§3.7).

A failure during a migration leaves residual state: a possibly-in-doubt T_m,
prepared shadow transactions on the destination, source transactions blocked
in their validation stage, and partially copied data. Recovery proceeds as
the paper describes:

1. Source transactions waiting for a validation outcome are terminated.
2. T_m is resolved with ordinary 2PC recovery: committed iff it entered its
   second phase (here: a commit timestamp was assigned).
3. Each prepared shadow transaction takes the same action as its source
   transaction: commit with the source's commit timestamp, or roll back. A
   source still PREPARED is waited for, so the outcome is learned, not
   presumed.
4. If T_m did not commit, no transaction was ever diverted: the partially
   migrated data on the destination is dropped and the migration can be
   initiated again. If T_m committed, the destination owns the shards and
   the migration is *continued*: a repair pass copies whatever committed
   data is still missing, then the source copy is dropped.
"""

from repro.storage.clog import TxnStatus
from repro.txn.errors import MigrationAbort


def crash_migration(migration):
    """Simulate a crash of the migration machinery mid-flight.

    Stops the send process, removes the sync barrier, and terminates source
    transactions blocked in their validation stage. Returns the residual
    prepared shadows for recovery to resolve.
    """
    propagation = migration.propagation
    if propagation is not None:
        propagation.stop(kill_tasks=True)
    for task in getattr(migration, "copy_tasks", []):
        if not task.finished:
            task.interrupt("crash")
    mocc = getattr(migration, "mocc", None)
    residual = {}
    if mocc is not None:
        mocc.active = False
        migration.source_node.manager.remove_commit_hook(mocc)
        # Terminate validation-stage waiters (§3.7).
        for xid, waiter in list(mocc._waiters.items()):
            del mocc._waiters[xid]
            waiter.fail(MigrationAbort("terminated by crash during validation"))
    if propagation is not None:
        residual = dict(propagation._validated)
        propagation._validated.clear()
    return residual


def _resolve_tm(cluster, migration, tm_txn, tm_committed):
    """Generator: drive an in-doubt T_m to its 2PC outcome.

    The migration process owning T_m died mid-commit; its spawned per-node
    prepare/commit workers may still be in flight. Participant resolution is
    idempotent (redelivered 2PC decisions are no-ops), so recovery simply
    applies the decided outcome everywhere and retires the handle.
    """
    for participant in list(tm_txn.participants.values()):
        node = cluster.nodes[participant.node_id]
        if participant.node_id != tm_txn.coordinator_node:
            yield from cluster.rpc_send(
                tm_txn.coordinator_node, participant.node_id, 64, persistent=True
            )
        if tm_committed:
            yield from node.manager.local_commit(tm_txn, tm_txn.commit_ts)
        else:
            node.manager.local_abort(tm_txn)
    cluster.finish_txn(tm_txn, committed=tm_committed)


def recover_migration(cluster, migration, residual_shadows=None):
    """Generator: bring the cluster back to a consistent state (§3.7).

    Returns "rolled_back" when T_m had not committed (the migration may be
    retried from scratch) or "completed" when T_m had committed and the
    migration was driven to completion.
    """
    residual_shadows = residual_shadows or {}
    dest_node = migration.dest_node
    source_node = migration.source_node

    # Step 1: resolve residual prepared shadows by their source's outcome.
    for source_xid, (shadow, _entry) in residual_shadows.items():
        participant = shadow.participant(dest_node.node_id)
        if participant is None:
            continue
        if dest_node.clog.status(participant.xid) is not TxnStatus.PREPARED:
            continue
        # Learn the source's decision, never presume one: a source still
        # PREPARED (its commit in flight) may yet commit.
        if source_node.clog.status(source_xid) is TxnStatus.PREPARED:
            yield source_node.clog.wait_completion(source_xid)
        commit_ts = None
        if source_node.clog.status(source_xid) is TxnStatus.COMMITTED:
            commit_ts = source_node.clog.commit_ts(source_xid)
            yield from cluster.rpc_send(
                dest_node.node_id, source_node.node_id, 64, persistent=True
            )
        yield from migration.propagation.end_shadow(shadow, commit_ts)

    # Step 2: resolve T_m (2PC recovery). T_m committed iff it entered its
    # second phase, i.e. a commit timestamp was assigned — the assignment may
    # have happened just before the crash, so the in-flight handle is
    # authoritative even when the migration never recorded tm_commit_ts.
    tm_txn = migration._tm_txn
    tm_committed = migration.stats.tm_commit_ts is not None or (
        tm_txn is not None and tm_txn.commit_ts is not None
    )
    if tm_txn is not None and not tm_txn.finished:
        yield from _resolve_tm(cluster, migration, tm_txn, tm_committed)
    if tm_committed and migration.stats.tm_commit_ts is None:
        migration.stats.tm_commit_ts = tm_txn.commit_ts
    if not tm_committed:
        # No transaction was diverted; drop the partial destination copy —
        # unless the destination hosts a live replica of the shard, whose
        # data belongs to the replication group, not to this migration.
        for shard_id in migration.shard_ids:
            group = cluster.replication.group_for(shard_id)
            if group is not None and group.replica_on(migration.dest) is not None:
                continue
            migration.dest_node.drop_shard(shard_id)
        for shard_id in migration.shard_ids:
            # Restore routing to the authoritative owner. For a replicated
            # shard that is the group's *current* leader — an election may
            # have moved leadership while the migration was down, and
            # recovery must not stomp it back onto the deposed source.
            owner = cluster.replication.leader_of(shard_id) or migration.source
            if cluster.shard_owner(shard_id) != owner:
                cluster.record_ownership(shard_id, owner)
        cluster.clear_cache_read_through(migration.shard_ids)
        migration.release_dest_wal()  # given up: a retry is a new migration
        return "rolled_back"

    # Step 3: T_m committed — the destination owns the shards. Continue the
    # migration: repair-copy any committed rows that never made it across,
    # then retire the source copy.
    for shard_id in migration.shard_ids:
        cluster.record_ownership(shard_id, migration.dest)
    repair_ts = yield from cluster.oracle.start_timestamp(migration.source)
    snapshot = source_node.manager.read_snapshot(repair_ts)
    for shard_id in migration.shard_ids:
        source_heap = source_node.heap_for(shard_id)
        dest_heap = dest_node.heap_for(shard_id)
        missing = []
        # Crash-recovery retries repeat this scan; the maintained index
        # makes each retry O(n) instead of a fresh O(n log n) sort.
        for key in list(source_heap.sorted_keys()):
            version, _n = yield from source_heap.visible_version(key, snapshot)
            if version is None:
                continue
            dest_version, _n2 = yield from dest_heap.visible_version(key, snapshot)
            if dest_version is None:
                missing.append((key, version.value))
        if missing:
            yield from cluster.rpc_send(
                migration.source, migration.dest, len(missing) * 64, persistent=True
            )
            dest_node.bulk_install(shard_id, missing)
        cluster.refresh_caches(shard_id, migration.dest, migration.stats.tm_commit_ts)
    cluster.clear_cache_read_through(migration.shard_ids)
    # Replicated shards: finish the epoch-bumped handover the crashed
    # migration never reached, so the group keeps replicating under the
    # destination's leadership.
    yield from migration.rehome_replicated_shards()
    migration.cleanup_source()
    return "completed"
