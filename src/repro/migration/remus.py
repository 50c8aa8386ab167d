"""Remus: live migration with ordered diversion and MOCC (§3).

The four phases of Figure 2:

1. **Snapshot copying** — an MVCC snapshot of the migrating shards is
   streamed to the destination and installed with the reserved minimal
   commit timestamp (§3.2).
2. **Async update propagation** — the send process ships committed changes
   from the WAL; shadow transactions replay them on the destination with the
   same start/commit timestamps (§3.3). The phase ends when the destination
   has caught up (lag below a threshold).
3. **Propagation mode changing** — the *sync barrier* is set (MOCC as the
   source manager's prepare gate): source transactions now wait at prepare for
   their changes to be validated and applied on the destination. The
   transactions already in commit progress form TS_unsync; once they finish,
   the WAL tail is recorded as LSN_unsync and the phase ends when everything
   up to it has been applied (§3.4).
4. **Dual execution** — coordinator caches are put in read-through state for
   the migrating shards, the distributed transaction T_m flips the shard map
   rows on every node under 2PC, and its commit timestamp becomes the
   diversion barrier: transactions with start_ts >= T_m.commitTS route to the
   destination, older ones finish on the source under MOCC (§3.5). The
   migration completes when the last pre-T_m transaction finishes; the
   barrier is lifted and the migration ends like every other
   (:meth:`~repro.migration.base.BaseMigration.finish`).

No transaction is ever blocked, suspended or aborted by the protocol itself;
the only added cost is the validation wait of synchronized source
transactions, which the stats record for Table 3.
"""

from repro.migration.isc import IscMigration
from repro.migration.mocc import MoccCoordinator
from repro.txn.transaction import TxnState


class RemusMigration(IscMigration):
    name = "remus"

    def __init__(
        self,
        cluster,
        shard_ids,
        source,
        dest,
        use_cache_read_through=True,
        cache_refresh_delay=0.0,
        **kwargs,
    ):
        """``use_cache_read_through`` / ``cache_refresh_delay`` exist for the
        ablation that demonstrates the stale-cache routing race of §3.5.1:
        disabling read-through while delaying cache invalidation lets a
        post-T_m transaction be routed to the source by a stale entry."""
        super().__init__(cluster, shard_ids, source, dest, **kwargs)
        self.use_cache_read_through = use_cache_read_through
        self.cache_refresh_delay = cache_refresh_delay

    def run(self):
        # Shards the destination already replicates are handed over with a
        # pure remastering handshake (copy/propagation would double-write
        # the replica heap); the full protocol runs for the rest.
        if (yield from self.remaster_prepositioned()):
            yield from self.phase_snapshot_copy()
            yield from self.phase_async_propagation()
            yield from self._phase_mode_change()
            yield from self._phase_dual_execution()
        yield from self._finish()

    # ------------------------------------------------------------------
    def _phase_mode_change(self):
        stats = self.stats
        stats.phase_start(self.sim, "mode_change")
        # Sync barrier: every source transaction entering commit from now on
        # validates through MOCC before it may commit.
        self.mocc = MoccCoordinator(self.cluster, self.shard_ids, stats, self.propagation)
        self.mocc.install()
        # TS_unsync: transactions already in commit progress bypass the gate;
        # wait for them, then everything up to the recorded WAL tail
        # (LSN_unsync) must be applied on the destination.
        ts_unsync = [
            txn.tid
            for txn in self.cluster.snapshot_active_txns()
            if not txn.is_shadow
            and txn.state in (TxnState.PREPARING, TxnState.COMMITTING)
        ]
        yield self.cluster.wait_for_txns(ts_unsync)
        lsn_unsync = self.source_node.wal.tail_lsn
        yield self.propagation.wait_applied_through(lsn_unsync)
        stats.phase_end(self.sim, "mode_change")

    def _phase_dual_execution(self):
        stats = self.stats
        stats.phase_start(self.sim, "dual_execution")
        # T_m.commitTS is the diversion barrier; the window between its
        # commit and cache invalidation is guarded by read-through (§3.5.1).
        tm_cts = yield from self.transfer_ownership()
        # Existing transactions (start_ts < T_m.commitTS) run to completion on
        # the source under MOCC; newly arriving ones are already diverted.
        yield from self.cluster.wait_out(tm_cts)
        self.mocc.remove()
        stats.phase_end(self.sim, "dual_execution")
