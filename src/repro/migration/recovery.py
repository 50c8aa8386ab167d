"""Crash recovery of in-flight migrations (§3.7).

A failure during a migration leaves residual state: a possibly-in-doubt T_m,
prepared shadow transactions on the destination, source transactions blocked
in their validation stage, and partially copied data. ``crash_migration``
tears down the migration's machinery and ``recover_migration`` starts in
the same instant — it learns every decision still in flight and never waits
for one to settle. Recovery proceeds as the paper describes:

1. Source transactions waiting for a validation outcome are terminated (by
   the teardown, which leaves MOCC as a fence: a source transaction that
   writes the migrating shards fails at prepare until recovery lifts it).
   A baseline's access hook stays as its fence the same way: the write gate
   or chunk tracker aborts a pre-T_m writer that reaches the source.
2. Each prepared shadow transaction takes the same action as its source
   transaction: commit with the source's commit timestamp, or roll back. A
   source still PREPARED is waited for, so the outcome is learned, not
   presumed.
3. T_m is resolved with ordinary 2PC recovery: committed iff it entered its
   second phase (here: a commit timestamp was assigned). Its straggler
   prepare and commit legs may still land; each is idempotent at the
   participant.
4. If T_m did not commit, no transaction was ever diverted: the partially
   migrated data on the destination is dropped and the migration can be
   initiated again. If T_m committed, the destination owns the shards and
   the migration is *continued*: the pre-T_m transactions are waited out,
   a repair pass then copies whatever committed data is still missing from
   the now final source copy, and the migration ends as every migration
   does (``BaseMigration.finish``).
"""

from repro.storage.clog import TxnStatus
from repro.storage.snapshot import Snapshot


def crash_migration(migration):
    """Simulate a crash of the migration machinery mid-flight: tear down
    the propagation pipeline and the copy tasks, and turn the MOCC sync
    barrier into a fence. The fences (that one, or the access hook) stand
    until recovery knows no pre-T_m writer can reach the source copy.
    Returns the residual prepared shadows for recovery to resolve."""
    residual = {}
    if migration.propagation is not None:
        residual = migration.propagation.crash()
    for task in migration.copy_tasks:
        if not task.finished:
            task.interrupt("crash")
    if migration.mocc is not None:
        migration.mocc.fence()
    return residual


def _source_outcome(source_node, source_xid):
    """Generator: the source transaction's commit timestamp, or None if it
    aborted. Its decision is learned, never presumed: a source still
    PREPARED (its commit in flight) may yet commit, so it is waited for."""
    clog = source_node.clog
    if clog.status(source_xid) is TxnStatus.PREPARED:
        yield clog.wait_completion(source_xid)
    if clog.status(source_xid) is TxnStatus.COMMITTED:
        return clog.commit_ts(source_xid)
    return None


def _resolve_tm(cluster, tm_txn, tm_committed):
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

    # Step 2: resolve residual prepared shadows by their source's outcome.
    for source_xid, (shadow, _entry) in residual_shadows.items():
        participant = shadow.participant(dest_node.node_id)
        status = None if participant is None else dest_node.clog.status(participant.xid)
        if status is not TxnStatus.PREPARED:
            continue  # ended since, e.g. by a resolution the crash raced
        commit_ts = yield from _source_outcome(source_node, source_xid)
        if commit_ts is not None:
            yield from cluster.rpc_send(
                dest_node.node_id, source_node.node_id, 64, persistent=True
            )
        yield from migration.propagation.end_shadow(shadow, commit_ts)

    # Step 3: resolve T_m (2PC recovery). T_m committed iff it entered its
    # second phase, i.e. a commit timestamp was assigned — the assignment may
    # have happened just before the crash, so the in-flight handle is
    # authoritative even when the migration never recorded tm_commit_ts.
    tm_txn = migration._tm_txn
    tm_committed = migration.stats.tm_commit_ts is not None or (
        tm_txn is not None and tm_txn.commit_ts is not None
    )
    if tm_txn is not None and not tm_txn.finished:
        yield from _resolve_tm(cluster, tm_txn, tm_committed)
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
        migration.lift_fences()  # the source is authoritative again
        migration.release_dest_wal()  # given up: a retry is a new migration
        return "rolled_back"

    # Step 4: T_m committed — the destination owns the shards. Continue the
    # migration: route to the destination, wait out the pre-T_m transactions
    # (as in dual execution the source copy serves them until the last one
    # is done, and the fences abort each one that writes it), then
    # repair-copy the committed rows that never made it across. Only now is
    # the source copy final: a repair taken earlier would miss a source
    # write that commits after it.
    for shard_id in migration.shard_ids:
        cluster.record_ownership(shard_id, migration.dest)
        cluster.refresh_caches(shard_id, migration.dest, migration.stats.tm_commit_ts)
    cluster.clear_cache_read_through(migration.shard_ids)
    yield from cluster.wait_out(migration.stats.tm_commit_ts)
    repair_ts = yield from cluster.oracle.start_timestamp(migration.source)
    snapshot = Snapshot(repair_ts)
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
    # Squall's tracker has pulled each chunk a destination transaction
    # touched until here; the repair has copied the rest.
    migration.lift_fences()
    # The migration's own ending: replicated shards finish the epoch-bumped
    # handover the crashed migration never reached, so each group keeps
    # replicating under the destination's leadership; the source copy goes.
    yield from migration.finish()
    return "completed"
