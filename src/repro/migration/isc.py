"""Shared iterative-state-copying (ISC) phases (§2.3.3).

The paper implements lock-and-abort and wait-and-remaster with the *same*
snapshot copying, update propagation and parallel apply protocols as Remus
(§4.2); they differ only in how ownership is transferred. This base class
holds the shared phases, the one run skeleton and the common ending; each
subclass supplies its ``_phase_ownership_transfer``.
"""

from repro.migration.base import BaseMigration
from repro.migration.propagation import Propagation
from repro.migration.snapshot_copy import copy_group_snapshot

CATCHUP_POLL = 0.02  # seconds between catch-up checks


class IscMigration(BaseMigration):
    """Base for push migrations: snapshot copy + async propagation."""

    def __init__(self, cluster, shard_ids, source, dest, **kwargs):
        super().__init__(cluster, shard_ids, source, dest, **kwargs)
        self.snapshot_ts = None
        self.copy_tasks = []

    def run(self):
        # STAR-style asymmetric path (shared ISC machinery): shards whose
        # replication group already has a member on the destination are
        # handed over with a pure remastering handshake — no copy, no
        # propagation. Only the rest pays for the full transfer.
        rest = yield from self.remaster_prepositioned()
        if not rest:
            return
        yield from self.phase_snapshot_copy()
        yield from self.phase_async_propagation()
        yield from self._phase_ownership_transfer()
        yield from self._finish()

    def wait_on_the_fly(self):
        """Generator: wait for every running user transaction, booking the
        wait as sync wait."""
        stats = self.stats
        ongoing = [
            txn.tid for txn in self.cluster.snapshot_active_txns() if not txn.is_shadow
        ]
        stats.sync_waits += len(ongoing)
        wait_start = self.sim.now
        yield self.cluster.wait_for_txns(ongoing)
        stats.sync_wait_total += self.sim.now - wait_start

    # ------------------------------------------------------------------
    # Prepositioned destinations (STAR-style asymmetric availability)
    # ------------------------------------------------------------------
    def _split_prepositioned(self):
        """Partition the migrating shards into (prepositioned, rest).

        A shard is *prepositioned* when the destination already hosts a
        member of its replication group: the group feed is the only legal
        write path into that heap, so snapshot copy and WAL propagation
        MUST NOT touch it — a stale copied row prepended over a newer
        replicated version would shadow committed updates (lost updates).
        """
        replication = self.cluster.replication
        pre, rest = [], []
        for shard_id in self.shard_ids:
            group = replication.group_for(shard_id)
            if group is not None and group.replica_on(self.dest) is not None:
                pre.append(shard_id)
            else:
                rest.append(shard_id)
        return pre, rest

    def remaster_prepositioned(self):
        """Generator: hand over every prepositioned shard with a pure
        remastering handshake (no copy, no propagation) and narrow the
        migration to the remaining shards. Returns the remaining ids."""
        pre, rest = self._split_prepositioned()
        if pre:
            yield from self._remaster_only(pre)
            self.shard_ids = rest
        return rest

    def _remaster_only(self, shard_ids):
        """Generator: transfer ownership of ``shard_ids`` to a destination
        that already replicates them: close the routing gate, wait for
        on-the-fly transactions, drain the group feed so the destination
        holds the full committed prefix, flip the shard map, and rehome the
        groups under the destination's leadership."""
        all_ids = self.shard_ids
        self.shard_ids = list(shard_ids)
        stats = self.stats
        stats.phase_start(self.sim, "ownership_transfer")
        self.cluster.close_routing_gate()
        try:
            yield from self.wait_on_the_fly()
            # The group feed is the propagation pipeline here: drain it so
            # the destination replica holds every committed change.
            for shard_id in self.shard_ids:
                group = self.cluster.replication.group_for(shard_id)
                yield from group.drain()
            yield from self.transfer_ownership(guarded=False)
            yield from self.rehome_replicated_shards()
        finally:
            self.cluster.open_routing_gate()
            self.shard_ids = all_ids
        stats.phase_end(self.sim, "ownership_transfer")

    def phase_snapshot_copy(self):
        stats = self.stats
        stats.phase_start(self.sim, "snapshot_copy")
        snapshot_ts = yield from self.cluster.oracle.start_timestamp(self.source)
        self.snapshot_ts = snapshot_ts
        # Pin vacuum so the snapshot's versions survive the scan (§4.8).
        self.cluster.add_vacuum_hold(snapshot_ts)
        # The propagation stream must cover every change of transactions that
        # are still active at the snapshot; start it before scanning.
        from_lsn = self.source_node.manager.oldest_active_change_lsn()
        self.propagation = Propagation(
            self.cluster,
            self.shard_ids,
            self.source,
            self.dest,
            snapshot_ts,
            from_lsn,
            stats,
        )
        self.propagation.hold_applies()
        self.propagation.start()
        try:
            yield from copy_group_snapshot(
                self.cluster,
                self.shard_ids,
                self.source,
                self.dest,
                snapshot_ts,
                stats,
                task_sink=self.copy_tasks,
            )
        finally:
            self.cluster.remove_vacuum_hold(snapshot_ts)
        # Released only on success: if the copy was interrupted (crash
        # injection) the base rows are partial and replay must stay parked
        # until crash teardown kills the tasks.
        self.propagation.release_applies()
        stats.phase_end(self.sim, "snapshot_copy")

    def phase_async_propagation(self):
        """Catch-up: wait until un-applied changes drop below the threshold."""
        self.stats.phase_start(self.sim, "async_propagation")
        while self.propagation.lag() > self.catchup_threshold:
            yield CATCHUP_POLL
        self.stats.phase_end(self.sim, "async_propagation")

    def _finish(self):
        """Generator: drain and stop propagation, hand replicated shards'
        leadership to the destination, drop the source copy."""
        yield from self.teardown_propagation()
        yield from self.rehome_replicated_shards()
        self.cleanup_source()
