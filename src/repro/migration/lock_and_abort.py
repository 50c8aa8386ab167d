"""Lock-and-abort ownership transfer (§2.3.3; Citus [16], Huawei LibrA [8]).

After the shared ISC phases, the ownership transfer phase:

1. locks the migrating shards against writes (new writers block on a gate),
2. terminates active transactions that hold conflicting (write) access to
   the migrating shards,
3. replays the remaining final updates on the destination,
4. updates the shard map on every node with 2PC, and
5. aborts the blocked writers — they retry and are routed to the destination.

Long-running batch writers are the victims: a batch insert that has spent
minutes writing a migrating shard is killed and must start over, which is
what produces the 97 % abort ratio and collapsed ingest throughput of
Table 2.
"""

from repro.migration.isc import IscMigration
from repro.txn.errors import MigrationAbort
from repro.txn.transaction import TxnState


class _WriteGate:
    """Access hook: blocks writes during transfer, then aborts them."""

    def __init__(self, migration):
        self.migration = migration
        self.sim = migration.sim
        self.blocking = True  # True while transfer in progress
        self.gate = self.sim.event(name="lock-transfer-gate")
        self.blocked = 0

    def release(self):
        self.blocking = False
        self.gate.succeed(None)

    def before_access(self, txn, shard_id, owner, key, is_write):
        if txn.is_shadow or txn.label.startswith("__"):
            return
        if not is_write:
            return
        if self.blocking:
            self.blocked += 1
            start = self.sim.now
            yield self.gate
            self.migration.stats.sync_waits += 1
            self.migration.stats.sync_wait_total += self.sim.now - start
        if owner != self.migration.source:
            return  # routed to the destination already: proceed normally
        # Ownership has moved but this transaction was routed with a
        # pre-transfer snapshot: abort (the client retries on the destination).
        self.migration.stats.txns_aborted_by_migration += 1
        raise MigrationAbort(
            "shard {!r} migrated during lock-and-abort transfer".format(shard_id),
            txn_id=txn.tid,
        )


class LockAndAbortMigration(IscMigration):
    name = "lock_and_abort"

    def _phase_ownership_transfer(self):
        stats = self.stats
        stats.phase_start(self.sim, "ownership_transfer")
        gate = _WriteGate(self)
        self.install_access_hook(gate)
        try:
            # Terminate transactions holding conflicting (write) access.
            victims = []
            for txn in self.active_writers_of_shards():
                if txn.state is TxnState.ACTIVE:
                    exc = MigrationAbort(
                        "killed by lock-and-abort ownership transfer", txn_id=txn.tid
                    )
                    txn.doom(exc)
                    stats.txns_aborted_by_migration += 1
                    victims.append(txn.tid)
                else:
                    victims.append(txn.tid)  # already committing: wait it out
            yield self.cluster.wait_for_txns(victims)

            # Replay the remaining final updates before handing over ownership.
            yield self.propagation.wait_applied_through(self.source_node.wal.tail_lsn)

            yield from self.transfer_ownership()
        finally:
            # Transfer done (or crashed): blocked writers wake up and abort.
            gate.release()
        stats.phase_end(self.sim, "ownership_transfer")

    def _finish(self):
        # The migration is over once ownership moved; the residual cleanup —
        # waiting out old-snapshot readers of the source copy, tearing down
        # propagation, dropping the data — runs detached so consecutive
        # migrations proceed back to back (which is why a long batch
        # transaction keeps dying on every transfer: the next one arrives
        # before the batch can finish, §4.4.1).
        self.sim.spawn(self.detached_cleanup(), name="lock-cleanup")
        return
        yield  # pragma: no cover - keeps this a generator like its peers
