"""MOCC: multi-versioning + optimistic validation for dual execution (§3.5.2).

The destination-side half of MOCC lives in the propagation pipeline (shadow
transactions, validation, prepared-shadow resolution). This module provides
the source-side half: a commit hook installed on the source node's
transaction manager while the sync barrier is set. Any source transaction
that wrote a migrating shard blocks after writing its validation (prepare)
record until the destination acks the validation outcome; a WW-conflict ack
aborts both the source transaction and its shadow.

The hook also measures the added latency of synchronized source transactions
— the quantity Table 3 of the paper reports.
"""

from repro.txn.errors import SerializationFailure
from repro.txn.manager import CommitHook


class MoccCoordinator(CommitHook):
    """Source-side MOCC state: validation result events + sync-wait stats."""

    def __init__(self, cluster, shard_ids, stats, propagation=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.shard_set = set(shard_ids)
        self.stats = stats
        self.propagation = propagation
        self.active = False
        self._results = {}  # source xid -> bool (posted before awaited)
        self._waiters = {}  # source xid -> event

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
        if xid in self._results:
            event = self.sim.event(name="mocc-result")
            event.succeed(self._results.pop(xid))
            return event
        event = self.sim.event(name="mocc-result")
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
        if self.propagation is None:
            return True
        xid = participant.xid
        if xid in self.propagation.validation_started or xid in self._results:
            return True
        if (
            participant.prepare_lsn is not None
            and participant.prepare_lsn < self.propagation.handled_lsn
        ):
            return False
        return True

    # ------------------------------------------------------------------
    # Commit hook (runs inside the source node's local prepare)
    # ------------------------------------------------------------------
    def after_prepare(self, txn, participant):
        if not self.active or txn.is_shadow:
            return
        if not (participant.wrote_shards & self.shard_set):
            return
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
