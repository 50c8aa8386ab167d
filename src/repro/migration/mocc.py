"""MOCC: multi-versioning + optimistic validation for dual execution (§3.5.2).

The destination-side half of MOCC lives in the propagation pipeline (shadow
transactions, validation, prepared-shadow resolution). This module provides
the source-side half: the source node's prepare gate, installed as the
sync barrier and removed at the migration's end (a crash turns it into a
fence that recovery lifts). Any source transaction that wrote a migrating
shard blocks after writing its validation (prepare) record until the
destination acks the validation outcome; a WW-conflict ack aborts both the
source transaction and its shadow.

The gate also measures the added latency of synchronized source transactions
— the quantity Table 3 of the paper reports.
"""

from repro.txn.errors import MigrationAbort, SerializationFailure


class MoccCoordinator:
    """Source-side MOCC state: validation result events + sync-wait stats."""

    def __init__(self, cluster, shard_ids, stats, propagation):
        self.sim = cluster.sim
        self.shard_set = set(shard_ids)
        self.stats = stats
        self.propagation = propagation
        self.manager = propagation.source_node.manager
        self.fenced = False  # set by a crash: no validation will come
        self._results = {}  # source xid -> bool (posted before awaited)
        self._waiters = {}  # source xid -> event

    # ------------------------------------------------------------------
    # The sync barrier's lifetime
    # ------------------------------------------------------------------
    def install(self):
        """Set the sync barrier: propagation turns synchronous and every
        source transaction entering prepare from now on passes this gate."""
        self.propagation.mocc = self
        self.manager.prepare_gate = self

    def remove(self):
        """Lift the sync barrier (or the fence a crash left)."""
        if self.manager.prepare_gate is self:
            self.manager.prepare_gate = None

    def fence(self):
        """Crash teardown (§3.7): no validation outcome will ever arrive.
        Terminate the source transactions blocked in their validation stage
        and fail every later one at prepare until recovery lifts the fence:
        a pre-T_m writer committing unvalidated on the source would be lost
        once the destination owns the shards."""
        self.fenced = True
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            waiter.fail(MigrationAbort("terminated by crash during validation"))

    # ------------------------------------------------------------------
    # Destination -> source ack path (called by the propagation pipeline)
    # ------------------------------------------------------------------
    def post_result(self, xid, ok):
        waiter = self._waiters.pop(xid, None)
        if waiter is not None:
            waiter.succeed(ok)
        else:
            self._results[xid] = ok

    def _await_result(self, xid):
        event = self.sim.event(name="mocc-result")
        if xid in self._results:
            event.succeed(self._results.pop(xid))
        else:
            self._waiters[xid] = event
        return event

    def _expects_validation(self, participant):
        """Will the destination ever ack this transaction?

        A transaction whose PREPARE record was already handled by the send
        process *before* the sync barrier was set belongs to TS_unsync
        (§3.4): no validation task exists for it and its changes ship on its
        commit record; waiting would deadlock the mode change. Handled, not
        merely consumed: the send process moves its cursor past a record and
        may then wait for a CPU charge before acting on it; a PREPARE caught
        in that window will still start a validation, and its transaction
        must wait for the ack.
        """
        xid = participant.xid
        if xid in self.propagation.validation_started or xid in self._results:
            return True
        if (
            participant.prepare_lsn is not None
            and participant.prepare_lsn < self.propagation.tailer.handled_lsn
        ):
            return False
        return True

    # ------------------------------------------------------------------
    # The gate (runs inside the source node's local prepare)
    # ------------------------------------------------------------------
    def after_prepare(self, txn, participant):
        if txn.is_shadow:
            return
        if not (participant.wrote_shards & self.shard_set):
            return
        if self.fenced:
            raise MigrationAbort(
                "terminated by a migration crash: no validation", txn_id=txn.tid
            )
        if not self._expects_validation(participant):
            return  # TS_unsync: prepared before the barrier, ships at commit
        wait_start = self.sim.now
        ok = yield self._await_result(participant.xid)
        self.stats.sync_waits += 1
        self.stats.sync_wait_total += self.sim.now - wait_start
        if not ok:
            raise SerializationFailure(
                "MOCC validation: WW-conflict with a destination transaction",
                txn_id=txn.tid,
            )
