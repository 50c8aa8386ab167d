"""Per-node transaction manager: MVCC execution under SI + local 2PC halves.

One :class:`NodeTxnManager` exists per elastic node. It executes reads and
writes against the node's heap tables under snapshot isolation with
first-updater-wins write-write conflict handling (PostgreSQL semantics), and
implements the node-local parts of two-phase commit: PREPARE (write and flush
a prepare/validation WAL record, mark PREPARED in the CLOG), COMMIT (commit
record + flush, CLOG commit timestamp, release locks) and ABORT.

Migration plugs in through one *prepare gate*: an object set as
``prepare_gate`` whose ``after_prepare(txn, participant)`` generator runs
once the prepare record is durable and the CLOG shows PREPARED. It may
wait, or raise to doom the transaction. Remus's MOCC sync barrier
(§3.4/§3.5.2) installs itself there and removes itself at the end of the
migration, without the transaction layer knowing anything about migration;
commit and abort run no gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.config import WAL_FLUSH
from repro.profiling.counters import COUNTERS
from repro.sim.errors import Interrupt
from repro.storage.clog import TxnStatus
from repro.storage.snapshot import is_committed, settle_creator, settle_deleter
from repro.storage.tuples import ABORTED
from repro.storage.wal import WalRecord, WalRecordKind
from repro.txn.errors import SerializationFailure, TransactionError, UniqueViolation
from repro.txn.locks import RowLockTable, SharedExclusiveLockTable

if TYPE_CHECKING:
    from repro.txn.transaction import Participant, Transaction


class MissingRow(KeyError):
    """Update/delete targeted a row invisible to the transaction."""


class NodeTxnManager:
    """Executes transaction operations on one node's local storage."""

    def __init__(self, sim, node_id, clog, wal, cpu, costs, heap_for):
        self.sim = sim
        self.node_id = node_id
        self.clog = clog
        self.wal = wal
        self.cpu = cpu
        self.costs = costs
        self.heap_for = heap_for
        self.shard_locks = SharedExclusiveLockTable(sim, name=node_id)
        self._row_locks = {}
        self._next_xid = 0
        self.prepare_gate = None  # MOCC's sync barrier while it is set
        self._first_change_lsn = {}  # xid -> LSN of its first change record
        self.flush_stall_until = 0.0  # chaos: WAL device stalled until then

    # ------------------------------------------------------------------
    # Participant management
    # ------------------------------------------------------------------
    def ensure_participant(self, txn: "Transaction") -> "Participant":
        participant = txn.participant(self.node_id)
        if participant is None:
            self._next_xid += 1
            participant = txn.add_participant(self.node_id, self._next_xid)
            self.clog.begin(participant.xid)
        return participant

    def allocate_local_xid(self) -> int:
        """Allocate a node-local xid outside any distributed transaction.

        Used by replication applies and election-time shard-map installs,
        which write committed versions directly (no 2PC, no locks) and need
        a CLOG identity for MVCC visibility.
        """
        self._next_xid += 1
        return self._next_xid

    # ------------------------------------------------------------------
    # MVCC operations (generators)
    # ------------------------------------------------------------------
    def read(self, txn: "Transaction", shard_id, key) -> Generator:
        """Point read of ``key`` under the transaction's snapshot.

        The CPU charge grows with the row's version-chain length: as in
        PostgreSQL, a reader walks the whole HOT chain of not-yet-vacuumed
        versions, so long-running snapshots that hold vacuum back slow every
        reader down (the paper's §4.8 effect). A frozen row is one version
        long and answered without entering the heap's read generator.
        """
        if txn.doomed is not None:
            txn.check_doomed()
        heap = self.heap_for(shard_id)
        yield self.cpu.use(self.costs.cpu_read)
        snapshot = txn.snapshot_for(self.node_id)
        value = heap.frozen_value(key)
        if value is None:
            value, _traversed = yield from heap.read(key, snapshot)
            chain_extra = heap.chain_length(key) - 1
            if chain_extra > 0:
                yield self.cpu.use(self.costs.cpu_per_version * chain_extra)
        txn.op_count += 1
        return value

    def scan(self, txn: "Transaction", shard_id) -> Generator:
        """Full MVCC scan of a shard under the transaction's snapshot.

        Returns the list of visible keys. CPU is charged per tuple in
        batches, which is what makes analytical queries long-running.
        """
        txn.check_doomed()
        heap = self.heap_for(shard_id)
        snapshot = txn.snapshot_for(self.node_id)
        keys = []
        pending_cost = 0.0
        for key in list(heap.keys()):
            version, _traversed = yield from heap.visible_version(key, snapshot)
            pending_cost += self.costs.cpu_read + self.costs.cpu_per_version * max(
                0, heap.chain_length(key) - 1
            )
            if version is not None:
                keys.append(key)
            if pending_cost >= 128 * self.costs.cpu_read:
                yield self.cpu.use(pending_cost)
                pending_cost = 0.0
        if pending_cost:
            yield self.cpu.use(pending_cost)
        txn.op_count += 1
        return keys

    # The four write statements hand back the one ``_write`` generator: a
    # wrapping generator per statement would add a frame to every
    # resumption underneath.
    def update(self, txn: "Transaction", shard_id, key, value, size: int = 0) -> Generator:
        """SI update with first-updater-wins; appends a new version."""
        return self._write(txn, shard_id, key, WalRecordKind.UPDATE, value, size)

    def insert(self, txn: "Transaction", shard_id, key, value, size: int = 0) -> Generator:
        """Insert with primary-key uniqueness enforcement."""
        return self._write(txn, shard_id, key, WalRecordKind.INSERT, value, size)

    def delete(self, txn: "Transaction", shard_id, key, size: int = 0) -> Generator:
        """SI delete with first-updater-wins."""
        return self._write(txn, shard_id, key, WalRecordKind.DELETE, None, size)

    def lock_row(self, txn: "Transaction", shard_id, key, size: int = 0) -> Generator:
        """Explicit row lock (SELECT ... FOR UPDATE) with WW semantics;
        returns the locked row's value."""
        return self._write(txn, shard_id, key, WalRecordKind.LOCK, None, size)

    def _write(self, txn, shard_id, key, kind, value, size):
        """Generator: one write statement in one frame. It yields, in order:
        the row lock (the pre-triggered ``sim.ready`` when uncontended, the
        queued grant otherwise), the entry charge, any prepare-wait of the
        first-updater-wins conflict check (or, for an insert, of the
        uniqueness check), then — for all but a row lock — the write charge.
        """
        if txn.doomed is not None:
            txn.check_doomed()
        participant = txn.participants.get(self.node_id) or self.ensure_participant(txn)
        xid = participant.xid
        table = self._row_locks.get(shard_id)
        if table is None:
            name = "{}:{}".format(self.node_id, shard_id)
            table = self._row_locks[shard_id] = RowLockTable(self.sim, name=name)
        if table.try_acquire(key, xid):
            # Uncontended (or reentrant) grab. Yield the pre-triggered
            # event: the resumption lands at the exact (time, seq) slot the
            # queued path's named event would have produced, so interleaving
            # with concurrent processes is the same either way — only the
            # event-name formatting and queue bookkeeping are skipped.
            COUNTERS.lock_fast_acquires += 1
            yield self.sim.ready
        else:
            COUNTERS.lock_slow_acquires += 1
            event = table.acquire(key, xid)
            try:
                yield event
            except Interrupt:
                table.cancel_wait(key, xid)
                raise
        participant.row_locks.add((shard_id, key))
        if txn.doomed is not None:
            txn.check_doomed()
        heap = self.heap_for(shard_id)
        yield self.cpu.use(self.costs.cpu_write)
        version = heap.latest_committed_or_locked(key)
        txn.op_count += 1
        if kind is WalRecordKind.INSERT:
            if version is not None:
                # Uniqueness: a version is live once its creator committed,
                # and until its deleter commits (our own writes count as
                # committed); a PREPARED creator or deleter is waited for.
                creation = version.xmax is None
                if (version.xmin if creation else version.xmax) == xid:
                    committed = True
                else:
                    settle = settle_creator if creation else settle_deleter
                    verdict = yield from settle(version, self.clog)
                    committed = is_committed(verdict)
                if committed is creation:
                    raise UniqueViolation("duplicate key {!r}".format(key), txn_id=txn.tid)
            heap.put_version(key, value, xid)
        else:
            # First-updater-wins under SI: find the version this write may
            # overwrite, or fail when a transaction that committed after our
            # snapshot changed the row. A terminal creator's verdict is
            # already stamped by latest_committed_or_locked.
            clog = self.clog
            while True:
                if version is None:
                    raise MissingRow(key)
                if version.xmin == xid:
                    break  # our own earlier write
                created = version.cts_min
                if created is None:
                    created = yield from settle_creator(version, clog)
                    if created is None:
                        # Cannot happen under row locking; fail loudly rather
                        # than spin.
                        raise SerializationFailure(
                            "in-progress writer {} despite row lock".format(version.xmin),
                            txn_id=txn.tid,
                        )
                    if created is ABORTED:
                        # The creator aborted while we waited: retry on the
                        # next newest surviving version.
                        version = heap.latest_committed_or_locked(key)
                        continue
                if created > txn.start_ts:
                    raise SerializationFailure(
                        "concurrent update committed after our snapshot", txn_id=txn.tid
                    )
                if version.xmax is not None and version.xmax != xid:
                    deleted = yield from settle_deleter(version, clog)
                    if is_committed(deleted):
                        if deleted > txn.start_ts:
                            raise SerializationFailure(
                                "concurrent delete committed after our snapshot",
                                txn_id=txn.tid,
                            )
                        raise MissingRow(key)  # deleted before our snapshot
                break
            if kind is not WalRecordKind.LOCK:
                heap.mark_deleted(version, xid)
                if kind is WalRecordKind.UPDATE:
                    heap.put_version(key, value, xid)
        participant.writes += 1
        participant.wrote_shards.add(shard_id)
        lsn = self.wal.append(
            WalRecord(
                kind,
                xid=xid,
                shard_id=shard_id,
                key=key,
                value=value,
                size=size,
                start_ts=txn.start_ts,
            )
        )
        self._first_change_lsn.setdefault(xid, lsn)
        if kind is WalRecordKind.LOCK:
            return version.value
        yield self.cpu.use(self.costs.cpu_write)
        return True

    def oldest_active_change_lsn(self) -> int:
        """Lowest WAL LSN a new propagation stream must start from so that
        every change of a still-active transaction is covered (§3.3)."""
        if self._first_change_lsn:
            return min(self._first_change_lsn.values())
        return self.wal.tail_lsn

    # ------------------------------------------------------------------
    # Shard (partition) locks — Squall mode and lock-and-abort
    # ------------------------------------------------------------------
    def acquire_shard_lock(self, txn: "Transaction", shard_id, mode: str) -> Generator:
        txn.check_doomed()
        participant = self.ensure_participant(txn)
        if shard_id in participant.shard_locks and mode == SharedExclusiveLockTable.SHARED:
            return
        if self.shard_locks.try_acquire(shard_id, participant.xid, mode):
            COUNTERS.lock_fast_acquires += 1
            yield self.sim.ready
            participant.shard_locks.add(shard_id)
            return
        COUNTERS.lock_slow_acquires += 1
        event = self.shard_locks.acquire(shard_id, participant.xid, mode)
        try:
            yield event
        except Interrupt:
            self.shard_locks.cancel_wait(shard_id, participant.xid)
            raise
        participant.shard_locks.add(shard_id)

    # ------------------------------------------------------------------
    # Local 2PC halves
    # ------------------------------------------------------------------
    def flush_wal(self):
        """Durable WAL flush.

        A chaos-injected WAL stall (``flush_stall_until``) models a hiccuping
        storage device: every flush issued before that time blocks until the
        device recovers.

        Group commit: flushes on this node that would complete at the same
        instant share one completion event (:class:`~repro.storage.wal.
        FlushCoalescer`), turning a commit storm's N timers into 2 kernel
        events while resuming the waiters in the identical order. A stalled
        device disables coalescing for the stall window — correctness of
        the stall loop stays with the simple per-flush path."""
        delay = WAL_FLUSH
        COUNTERS.wal_flushes += 1
        if self.sim.now >= self.flush_stall_until:
            waitable = self.wal.flush_group.join(delay)
            if waitable is None:
                yield delay  # the group leader pays the timer
            else:
                yield waitable
        else:
            yield delay
        while self.sim.now < self.flush_stall_until:
            yield self.flush_stall_until - self.sim.now

    def local_prepare(self, txn: "Transaction") -> Generator:
        """Write + flush the prepare (validation) record; mark PREPARED.

        Runs the prepare gate afterwards — this is where Remus' sync-mode
        MOCC validation wait happens. A participant resolved while its
        record was written or flushed (crash recovery aborting a straggler
        2PC leg) votes no, before or after the flush alike.
        """
        participant = self.ensure_participant(txn)
        if self.clog.status(participant.xid) is not TxnStatus.IN_PROGRESS:
            # The participant was resolved concurrently (e.g. aborted by
            # crash recovery while this prepare was delayed in flight):
            # presumed abort — vote no.
            raise TransactionError(
                "prepare after resolution", txn_id=txn.tid
            )
        participant.prepare_lsn = self.wal.append(
            WalRecord(
                WalRecordKind.PREPARE,
                xid=participant.xid,
                start_ts=txn.start_ts,
            )
        )
        yield from self.flush_wal()
        if self.clog.status(participant.xid) is not TxnStatus.IN_PROGRESS:
            raise TransactionError("prepare after resolution", txn_id=txn.tid)
        self.clog.set_prepared(participant.xid)
        gate = self.prepare_gate
        if gate is not None:
            yield from gate.after_prepare(txn, participant)

    def local_commit(self, txn: "Transaction", commit_ts: int) -> Generator:
        """Durably commit the local participant and release its locks.

        Idempotent under redelivery: 2PC decisions are retransmitted, so the
        same COMMIT may be applied twice, even concurrently (a straggler
        commit leg racing crash recovery): whichever flush ends second finds
        the participant committed and leaves it be."""
        participant = txn.participant(self.node_id)
        status = self.clog.status(participant.xid)
        if status is TxnStatus.COMMITTED:
            return
        if status is TxnStatus.PREPARED:
            kind = WalRecordKind.COMMIT_PREPARED
        else:
            kind = WalRecordKind.COMMIT
        self.wal.append(WalRecord(kind, xid=participant.xid, commit_ts=commit_ts))
        yield from self.flush_wal()
        if self.clog.status(participant.xid) is TxnStatus.COMMITTED:
            return
        self.clog.set_committed(participant.xid, commit_ts)
        self._retire(participant)

    def local_abort(self, txn: "Transaction") -> None:
        """Abort the local participant: CLOG abort + release locks. No
        wait: the abort record needs no flush.

        Version cleanup is logical (CLOG status), as in PostgreSQL; vacuum
        reclaims the junk versions later.
        """
        participant = txn.participant(self.node_id)
        if participant is None:
            return
        if self.clog.status(participant.xid) is TxnStatus.ABORTED:
            return
        if self.clog.status(participant.xid) is TxnStatus.PREPARED:
            kind = WalRecordKind.ROLLBACK_PREPARED
        else:
            kind = WalRecordKind.ABORT
        self.wal.append(WalRecord(kind, xid=participant.xid))
        if self.clog.status(participant.xid) in (
            TxnStatus.IN_PROGRESS,
            TxnStatus.PREPARED,
        ):
            self.clog.set_aborted(participant.xid)
        self._retire(participant)

    def force_abort_participant(self, participant: "Participant") -> bool:
        """Synchronously abort an in-progress participant (crash teardown).

        Unlike :meth:`local_abort` this skips the WAL record — it models the
        state a crashed process leaves behind after standard recovery has
        marked its transaction aborted.
        """
        if self.clog.status(participant.xid) is not TxnStatus.IN_PROGRESS:
            return False
        self.clog.set_aborted(participant.xid)
        self._retire(participant)
        return True

    def commit_read_only(self, participant: "Participant", commit_ts: int) -> None:
        """Commit a participant that wrote nothing: no WAL record and no
        flush, only its CLOG entry and retirement."""
        self.clog.set_committed(participant.xid, commit_ts)
        self._retire(participant)

    def _retire(self, participant):
        """Release the participant's locks and forget its first change."""
        self._release_locks(participant)
        self._first_change_lsn.pop(participant.xid, None)

    def _release_locks(self, participant):
        tables = self._row_locks
        for shard_id, key in list(participant.row_locks):
            tables[shard_id].release(key, participant.xid)
        participant.row_locks.clear()
        for shard_id in list(participant.shard_locks):
            self.shard_locks.release(shard_id, participant.xid)
        participant.shard_locks.clear()
