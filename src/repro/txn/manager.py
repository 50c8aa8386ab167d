"""Per-node transaction manager: MVCC execution under SI + local 2PC halves.

One :class:`NodeTxnManager` exists per elastic node. It executes reads and
writes against the node's heap tables under snapshot isolation with
first-updater-wins write-write conflict handling (PostgreSQL semantics), and
implements the node-local parts of two-phase commit: PREPARE (write and flush
a prepare/validation WAL record, mark PREPARED in the CLOG), COMMIT (commit
record + flush, CLOG commit timestamp, release locks) and ABORT.

Migration protocols plug in through *commit hooks*: objects registered with
:meth:`add_commit_hook` whose generator methods run inside the local prepare
and commit paths. Remus uses this for the sync barrier + MOCC validation wait
(§3.4/§3.5.2) without the transaction layer knowing anything about migration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro import fastpath
from repro.profiling.counters import COUNTERS
from repro.sim.errors import Interrupt
from repro.sim.ordered import OrderedSet
from repro.storage.clog import TxnStatus
from repro.storage.snapshot import Snapshot
from repro.storage.wal import WalRecord, WalRecordKind
from repro.txn.errors import SerializationFailure, TransactionError, UniqueViolation
from repro.txn.locks import RowLockTable, SharedExclusiveLockTable

if TYPE_CHECKING:
    from repro.txn.transaction import Participant, Transaction


class MissingRow(KeyError):
    """Update/delete targeted a row invisible to the transaction."""


class CommitHook:
    """Base class for protocol hooks into the local commit path."""

    def after_prepare(self, txn, participant):
        """Generator run after the prepare record is durable and the CLOG
        shows PREPARED, before the coordinator may assign a commit ts.
        May raise to doom the transaction (e.g. MOCC WW-conflict)."""
        return
        yield  # pragma: no cover

    def after_commit(self, txn, participant, commit_ts):
        """Generator run after the commit record is durable."""
        return
        yield  # pragma: no cover

    def after_abort(self, txn, participant):
        """Generator run after a local abort completes."""
        return
        yield  # pragma: no cover


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
        self._commit_hooks = []
        self.active_xids = OrderedSet()
        self._first_change_lsn = {}  # xid -> LSN of its first change record
        self.extra_flush_latency = 0.0  # synchronous replication round trip
        self.flush_stall_until = 0.0  # chaos: WAL device stalled until then
        # Epoch-tagged snapshot caching: bumped on every active_xids change
        # (begin/commit/abort), so cached frozensets / shared read snapshots
        # are reused until the node's transaction state actually moves.
        self.active_epoch = 0
        self._active_set_cache = None  # (epoch, frozenset)
        self._read_snapshot_cache = None  # (epoch, start_ts, Snapshot)

    # ------------------------------------------------------------------
    # Participant management
    # ------------------------------------------------------------------
    def ensure_participant(self, txn: "Transaction") -> "Participant":
        participant = txn.participant(self.node_id)
        if participant is None:
            self._next_xid += 1
            participant = txn.add_participant(self.node_id, self._next_xid)
            self.clog.begin(participant.xid)
            self.active_xids.add(participant.xid)
            self.active_epoch += 1
        return participant

    def allocate_local_xid(self) -> int:
        """Allocate a node-local xid outside any distributed transaction.

        Used by replication applies and election-time shard-map installs,
        which write committed versions directly (no 2PC, no locks) and need
        a CLOG identity for MVCC visibility.
        """
        self._next_xid += 1
        return self._next_xid

    def discard_active(self, xid) -> None:
        """Drop ``xid`` from the active set (resolved out-of-band, e.g. the
        read-only fast commit), invalidating epoch-tagged snapshots."""
        self.active_xids.discard(xid)
        self.active_epoch += 1

    def active_xid_set(self) -> frozenset:
        """Frozenset view of the active xids, cached per epoch."""
        cached = self._active_set_cache
        if cached is not None and cached[0] == self.active_epoch:
            return cached[1]
        xids = frozenset(self.active_xids)
        self._active_set_cache = (self.active_epoch, xids)
        return xids

    def read_snapshot(self, start_ts) -> Snapshot:
        """Shared xid-free snapshot at ``start_ts`` for pure snapshot reads
        (migration snapshot scans, repair reads, shard-map lookups).

        Epoch-tagged: the same :class:`Snapshot` object — including its
        ``active_xids`` frozenset — is handed out until a transaction
        begins or resolves on this node. Snapshots are immutable, so
        sharing is invisible to MVCC semantics.
        """
        if fastpath.snapshot_cache:
            cached = self._read_snapshot_cache
            if (
                cached is not None
                and cached[0] == self.active_epoch
                and cached[1] == start_ts
            ):
                COUNTERS.shared_snapshot_hits += 1
                return cached[2]
            COUNTERS.shared_snapshot_misses += 1
        snapshot = Snapshot(start_ts, active_xids=self.active_xid_set())
        if fastpath.snapshot_cache:
            self._read_snapshot_cache = (self.active_epoch, start_ts, snapshot)
        return snapshot

    def row_locks(self, shard_id) -> RowLockTable:
        if shard_id not in self._row_locks:
            self._row_locks[shard_id] = RowLockTable(
                self.sim, name="{}:{}".format(self.node_id, shard_id)
            )
        return self._row_locks[shard_id]

    def add_commit_hook(self, hook: CommitHook) -> None:
        self._commit_hooks.append(hook)

    def remove_commit_hook(self, hook: CommitHook) -> None:
        if hook in self._commit_hooks:
            self._commit_hooks.remove(hook)

    # ------------------------------------------------------------------
    # MVCC operations (generators)
    # ------------------------------------------------------------------
    def read(self, txn: "Transaction", shard_id, key) -> Generator:
        """Point read of ``key`` under the transaction's snapshot.

        The CPU charge grows with the row's version-chain length: as in
        PostgreSQL, a reader walks the whole HOT chain of not-yet-vacuumed
        versions, so long-running snapshots that hold vacuum back slow every
        reader down (the paper's §4.8 effect).
        """
        txn.check_doomed()
        heap = self.heap_for(shard_id)
        yield self.cpu.use(self.costs.cpu_read)
        value, _traversed = yield from heap.read(key, txn.snapshot_for(self.node_id))
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

    def update(self, txn: "Transaction", shard_id, key, value, size: int = 0) -> Generator:
        """SI update with first-updater-wins; appends a new version."""
        participant, latest = yield from self._write_entry(txn, shard_id, key)
        heap = self.heap_for(shard_id)
        if latest is None:
            raise MissingRow(key)
        visible = yield from self._resolve_write_target(txn, participant, heap, latest)
        if visible is None:
            raise MissingRow(key)
        heap.mark_deleted(visible, participant.xid)
        heap.put_version(key, value, participant.xid)
        self._log_change(WalRecordKind.UPDATE, participant, txn, shard_id, key, value, size)
        yield self.cpu.use(self.costs.cpu_write)
        return True

    def insert(self, txn: "Transaction", shard_id, key, value, size: int = 0) -> Generator:
        """Insert with primary-key uniqueness enforcement."""
        participant, latest = yield from self._write_entry(txn, shard_id, key)
        heap = self.heap_for(shard_id)
        if latest is not None:
            alive = yield from self._version_alive(participant, latest)
            if alive:
                raise UniqueViolation("duplicate key {!r}".format(key), txn_id=txn.tid)
        heap.put_version(key, value, participant.xid)
        self._log_change(WalRecordKind.INSERT, participant, txn, shard_id, key, value, size)
        yield self.cpu.use(self.costs.cpu_write)
        return True

    def delete(self, txn: "Transaction", shard_id, key, size: int = 0) -> Generator:
        """SI delete with first-updater-wins."""
        participant, latest = yield from self._write_entry(txn, shard_id, key)
        heap = self.heap_for(shard_id)
        if latest is None:
            raise MissingRow(key)
        visible = yield from self._resolve_write_target(txn, participant, heap, latest)
        if visible is None:
            raise MissingRow(key)
        heap.mark_deleted(visible, participant.xid)
        self._log_change(WalRecordKind.DELETE, participant, txn, shard_id, key, None, size)
        yield self.cpu.use(self.costs.cpu_write)
        return True

    def lock_row(self, txn: "Transaction", shard_id, key, size: int = 0) -> Generator:
        """Explicit row lock (SELECT ... FOR UPDATE) with WW semantics."""
        participant, latest = yield from self._write_entry(txn, shard_id, key)
        heap = self.heap_for(shard_id)
        if latest is None:
            raise MissingRow(key)
        visible = yield from self._resolve_write_target(txn, participant, heap, latest)
        if visible is None:
            raise MissingRow(key)
        self._log_change(WalRecordKind.LOCK, participant, txn, shard_id, key, None, size)
        return visible.value

    def _write_entry(self, txn, shard_id, key):
        """Common entry for write ops: doom check, row lock, newest version."""
        txn.check_doomed()
        participant = self.ensure_participant(txn)
        yield from self._acquire_row_lock(txn, participant, shard_id, key)
        txn.check_doomed()
        heap = self.heap_for(shard_id)
        yield self.cpu.use(self.costs.cpu_write)
        latest = heap.latest_committed_or_locked(key)
        txn.op_count += 1
        return participant, latest

    def _acquire_row_lock(self, txn, participant, shard_id, key):
        table = self.row_locks(shard_id)
        if fastpath.lock_fastpath and table.try_acquire(key, participant.xid):
            # Uncontended (or reentrant) grab. Yield the pre-triggered
            # event: the resumption lands at the exact (time, seq) slot the
            # slow path's named event would have produced, so interleaving
            # with concurrent processes is unchanged — only the event-name
            # formatting and queue bookkeeping are skipped.
            COUNTERS.lock_fast_acquires += 1
            yield self.sim.ready
            participant.row_locks.add((shard_id, key))
            return
        COUNTERS.lock_slow_acquires += 1
        event = table.acquire(key, participant.xid)
        try:
            yield event
        except Interrupt:
            table.cancel_wait(key, participant.xid)
            raise
        participant.row_locks.add((shard_id, key))

    def _version_alive(self, participant, version):
        """Generator: is ``version`` still the live row (for uniqueness)?

        Called under the row lock. A version is dead for uniqueness purposes
        if a committed transaction deleted it.
        """
        if version.xmax is None:
            # Created by self, or committed/prepared insert not yet deleted.
            if version.xmin == participant.xid:
                return True
            while self.clog.status(version.xmin) is TxnStatus.PREPARED:
                yield self.clog.wait_completion(version.xmin)
            return self.clog.status(version.xmin) is TxnStatus.COMMITTED
        if version.xmax == participant.xid:
            return False  # deleted by self earlier in this txn
        while self.clog.status(version.xmax) is TxnStatus.PREPARED:
            yield self.clog.wait_completion(version.xmax)
        return self.clog.status(version.xmax) is not TxnStatus.COMMITTED

    def _resolve_write_target(self, txn, participant, heap, latest):
        """Generator: first-updater-wins conflict resolution under SI.

        Returns the version this transaction may overwrite, or None if the
        row is gone for this snapshot. Raises SerializationFailure when a
        concurrent transaction (commit ts > our start ts) already changed it.
        """
        version = latest
        while True:
            if version is None:
                return None
            if version.xmin == participant.xid:
                return version  # updating our own earlier write
            while self.clog.status(version.xmin) is TxnStatus.PREPARED:
                yield self.clog.wait_completion(version.xmin)
            status = self.clog.status(version.xmin)
            if status is TxnStatus.COMMITTED:
                break
            if status is TxnStatus.IN_PROGRESS:
                # Cannot happen under row locking; fail loudly rather than spin.
                raise SerializationFailure(
                    "in-progress writer {} despite row lock".format(version.xmin),
                    txn_id=txn.tid,
                )
            # The creator aborted while we waited: retry on the next newest
            # surviving version.
            version = heap.latest_committed_or_locked(version.key)
        if self.clog.commit_ts(version.xmin) > txn.start_ts:
            raise SerializationFailure(
                "concurrent update committed after our snapshot", txn_id=txn.tid
            )
        if version.xmax is not None and version.xmax != participant.xid:
            while self.clog.status(version.xmax) is TxnStatus.PREPARED:
                yield self.clog.wait_completion(version.xmax)
            if self.clog.status(version.xmax) is TxnStatus.COMMITTED:
                if self.clog.commit_ts(version.xmax) > txn.start_ts:
                    raise SerializationFailure(
                        "concurrent delete committed after our snapshot",
                        txn_id=txn.tid,
                    )
                return None  # deleted before our snapshot
        return version

    def _log_change(self, kind, participant, txn, shard_id, key, value, size):
        participant.writes += 1
        participant.wrote_shards.add(shard_id)
        lsn = self.wal.append(
            WalRecord(
                kind,
                xid=participant.xid,
                shard_id=shard_id,
                key=key,
                value=value,
                size=size,
                start_ts=txn.start_ts,
            )
        )
        self._first_change_lsn.setdefault(participant.xid, lsn)

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
        if fastpath.lock_fastpath and self.shard_locks.try_acquire(
            shard_id, participant.xid, mode
        ):
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

    def shard_write_locker(self, shard_id):
        return self.shard_locks.write_holder(shard_id)

    # ------------------------------------------------------------------
    # Local 2PC halves
    # ------------------------------------------------------------------
    def flush_wal(self):
        """Durable WAL flush; with synchronous replication the commit also
        waits for the replicas to acknowledge (§3.7).

        A chaos-injected WAL stall (``flush_stall_until``) models a hiccuping
        storage device: every flush issued before that time blocks until the
        device recovers.

        Group commit: flushes on this node that would complete at the same
        instant share one completion event (:class:`~repro.storage.wal.
        FlushCoalescer`), turning a commit storm's N timers into 2 kernel
        events while resuming the waiters in the identical order. A stalled
        device disables coalescing for the stall window — correctness of
        the stall loop stays with the simple per-flush path."""
        delay = self.costs.wal_flush + self.extra_flush_latency
        COUNTERS.wal_flushes += 1
        if fastpath.group_commit and self.sim.now >= self.flush_stall_until:
            waitable = self.wal.flush_group.join(delay)
            if waitable is None:
                yield delay  # group leader pays the (legacy-identical) timer
            else:
                yield waitable
        else:
            yield delay
        while self.sim.now < self.flush_stall_until:
            yield self.flush_stall_until - self.sim.now

    def local_prepare(self, txn: "Transaction") -> Generator:
        """Write + flush the prepare (validation) record; mark PREPARED.

        Runs the registered commit hooks afterwards — this is where Remus'
        sync-mode MOCC validation wait happens.
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
        self.clog.set_prepared(participant.xid)
        for hook in list(self._commit_hooks):
            yield from hook.after_prepare(txn, participant)

    def local_commit(self, txn: "Transaction", commit_ts: int) -> Generator:
        """Durably commit the local participant and release its locks.

        Idempotent under redelivery: 2PC decisions are retransmitted, so the
        same COMMIT may be applied twice (e.g. by a straggler commit process
        racing crash recovery)."""
        participant = txn.participant(self.node_id)
        if self.clog.status(participant.xid) is TxnStatus.COMMITTED:
            return
        if self.clog.status(participant.xid) is TxnStatus.PREPARED:
            kind = WalRecordKind.COMMIT_PREPARED
        else:
            kind = WalRecordKind.COMMIT
        self.wal.append(WalRecord(kind, xid=participant.xid, commit_ts=commit_ts))
        yield from self.flush_wal()
        self.clog.set_committed(participant.xid, commit_ts)
        self._release_locks(participant)
        self.active_xids.discard(participant.xid)
        self.active_epoch += 1
        self._first_change_lsn.pop(participant.xid, None)
        for hook in list(self._commit_hooks):
            yield from hook.after_commit(txn, participant, commit_ts)

    def local_abort(self, txn: "Transaction") -> Generator:
        """Abort the local participant: CLOG abort + release locks.

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
        self._release_locks(participant)
        self.active_xids.discard(participant.xid)
        self.active_epoch += 1
        self._first_change_lsn.pop(participant.xid, None)
        for hook in list(self._commit_hooks):
            yield from hook.after_abort(txn, participant)

    def force_abort_participant(self, participant: "Participant") -> bool:
        """Synchronously abort an in-progress participant (crash teardown).

        Unlike :meth:`local_abort` this skips the WAL record and commit
        hooks — it models the state a crashed process leaves behind after
        standard recovery has marked its transaction aborted.
        """
        if self.clog.status(participant.xid) is not TxnStatus.IN_PROGRESS:
            return False
        self.clog.set_aborted(participant.xid)
        self._release_locks(participant)
        self.active_xids.discard(participant.xid)
        self.active_epoch += 1
        self._first_change_lsn.pop(participant.xid, None)
        return True

    def _release_locks(self, participant):
        for shard_id, key in list(participant.row_locks):
            self.row_locks(shard_id).release(key, participant.xid)
        participant.row_locks.clear()
        for shard_id in list(participant.shard_locks):
            self.shard_locks.release(shard_id, participant.xid)
        participant.shard_locks.clear()
