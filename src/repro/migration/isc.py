"""Shared iterative-state-copying (ISC) phases (§2.3.3).

The paper implements lock-and-abort and wait-and-remaster with the *same*
snapshot copying, update propagation and parallel apply protocols as Remus
(§4.2); they differ only in how ownership is transferred. This base class
holds the shared phases and the one run skeleton; each subclass supplies its
``_phase_ownership_transfer``.
"""

from repro.migration.base import BaseMigration
from repro.migration.propagation import Propagation
from repro.migration.snapshot_copy import copy_group_snapshot

CATCHUP_POLL = 0.02  # seconds between catch-up checks


class IscMigration(BaseMigration):
    """Base for push migrations: snapshot copy + async propagation."""

    def run(self):
        # STAR-style asymmetric path: shards whose replication group
        # already has a member on the destination are handed over with a
        # pure remastering handshake — no copy, no propagation. Only the
        # rest pays for the full transfer.
        if (yield from self.remaster_prepositioned()):
            yield from self.phase_snapshot_copy()
            yield from self.phase_async_propagation()
            yield from self._phase_ownership_transfer()
        yield from self._finish()

    def phase_snapshot_copy(self):
        stats = self.stats
        stats.phase_start(self.sim, "snapshot_copy")
        snapshot_ts = yield from self.cluster.oracle.start_timestamp(self.source)
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
        """Generator: drain and stop propagation, then the one ending."""
        yield from self.teardown_propagation()
        yield from self.finish()
