"""WAL-based update propagation and transaction-level parallel replay (§3.3).

A *send process* on the source node streams WAL records, building an update
cache queue per transaction with the changes that touch the migrating shards.

In **asynchronous mode** a transaction's cached changes are shipped when its
commit record is encountered (and dropped if it aborted or committed at or
before the snapshot timestamp). A *replay* task on the destination starts a
shadow transaction with the same start timestamp, re-executes the changes
through the ordinary transaction manager, and commits with the same commit
timestamp.

In **synchronous mode** (after the sync barrier, §3.4) the changes are
shipped when the transaction's *prepare/validation* record is encountered:
the shadow transaction re-executes them immediately — detecting MOCC
WW-conflicts against destination transactions — is 2PC-prepared, and a
validation-ok/fail ack is sent back to the blocked source transaction. The
later commit (or rollback) record resolves the prepared shadow with the
source transaction's commit timestamp.

Replay is parallel across ``replay_parallelism`` slots — the paper's 18
apply workers — but transactions with overlapping write keys are chained in
commit order (the paper's "transaction-level parallel apply approach based
on SI by tracking timestamp order", §3.6). The backlog is data: a task waits
for the apply gate, its predecessors and a slot as a ``_Replay`` entry, and
gets a process only once a slot is granted, so at most
``replay_parallelism`` replay processes exist however long the snapshot
copy keeps the backlog parked.
"""

from bisect import bisect_right, insort

from repro.cluster.replication import MSG_OVERHEAD
from repro.config import SPILL_RELOAD_PER_BATCH
from repro.profiling.counters import COUNTERS
from repro.sim.errors import Interrupt
from repro.sim.network import MIGRATION_CLASS
from repro.sim.ordered import OrderedSet
from repro.sim.resources import Resource
from repro.storage.wal import WalRecordKind, WalTailer
from repro.txn.errors import RpcAbort, SerializationFailure, TransactionError
from repro.txn.transaction import Transaction


_NEW = -1
_GATED = -2


class _Replay:
    """One source transaction's replay (async) or validation (sync).

    Plain data while it waits for the apply gate, its predecessors and a
    replay slot; a process exists only from the slot grant to its exit.
    Calling the entry is its one wakeup — its first step, the gate's
    release, a predecessor's finish, the slot grant and its process's
    exit all call it. ``cursor`` is ``_NEW`` before the first step,
    ``_GATED`` behind the apply gate, then the index of the next
    predecessor to pass, and None once the entry was granted (or killed
    before its grant). ``waiters`` holds the successor entries and
    ``drain`` events its finish wakes; ``keys`` is None once it finished.
    ``commit_ts`` is None for a validation.
    """

    __slots__ = (
        "pipeline", "records", "xid", "commit_ts", "keys", "min_lsn",
        "predecessors", "cursor", "waiters", "request", "process",
    )

    def __init__(self, pipeline, records, xid, commit_ts, keys, predecessors):
        self.pipeline = pipeline
        self.records = records
        self.xid = xid
        self.commit_ts = commit_ts
        self.keys = keys
        self.min_lsn = min(r.lsn for r in records)
        self.predecessors = predecessors
        self.cursor = _NEW
        self.waiters = None  # made on first demand
        self.request = None  # the replay-slot acquire
        self.process = None

    def __call__(self, _event=None):
        self.pipeline._advance(self)

    def add_waiter(self, waiter):
        """Have this entry's finish wake ``waiter``: an entry, or an event."""
        if self.waiters is None:
            self.waiters = [waiter]
        else:
            self.waiters.append(waiter)


class Propagation:
    """Update propagation pipeline for one migration."""

    def __init__(self, cluster, shard_ids, source, dest, snapshot_ts, from_lsn, stats):
        self.cluster = cluster
        self.sim = cluster.sim
        # Frozen tuple-keyed set: ShardId is a tuple subclass, so membership
        # per WAL record is one O(1) hash with no per-record allocation.
        self.shard_set = frozenset(shard_ids)
        self.source = source
        self.dest = dest
        self.snapshot_ts = snapshot_ts
        self.stats = stats
        self.costs = cluster.config.costs
        self.source_node = cluster.nodes[source]
        self.dest_node = cluster.nodes[dest]
        # The send process. "Has the PREPARE been handled?" and the applied
        # watermark read tailer.handled_lsn, never the consumed cursor.
        self.tailer = WalTailer(
            self.source_node.wal, self.shard_set, from_lsn, self.source_node.cpu,
            self.costs.cpu_propagate, cluster.config.pump_batch_records,
        )
        self.mocc = None  # set by MoccCoordinator.install(); None => async mode
        self._caches = {}  # source xid -> [change records]
        self._validated = {}  # source xid -> (prepared shadow, its _Replay)
        # Xids whose PREPARE started a validation, until their outcome record.
        self.validation_started = OrderedSet()
        self._inflight = OrderedSet()  # _Replay entries still replaying
        self._key_tail = {}  # (shard, key) -> _Replay of the last writer
        self._slots = Resource(
            self.sim, capacity=cluster.config.replay_parallelism, name="replay"
        )
        # Watermark waiters as (target_lsn, insertion_seq, event), kept
        # sorted so a ready prefix is cut with one bisect; ready waiters
        # fire in insertion order.
        self._applied_waiters = []
        self._waiter_seq = 0
        # Insertion-ordered: a crash teardown kills these in creation
        # order, keeping the teardown timeline deterministic (SIM003).
        self._tasks = OrderedSet()  # _Replay entries and resolution processes
        self._shadows = OrderedSet()  # this pipeline's unfinished shadow txns
        self._pump_process = None
        self._applies_held = False  # the gate: True while the snapshot copy runs
        self.pending_records = 0  # records in caches/in-flight (bookkeeping)
        self.unreplayed_records = 0  # committed records not yet applied
        # Set when a transfer exhausted its RPC retry budget (partitioned /
        # lossy destination): the pipeline can no longer guarantee delivery
        # and the migration needs supervised crash recovery (§3.7).
        self.wounded = None
        self.crashed = False  # set by crash(): the residue is handed over

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        self._pump_process = self.sim.spawn(
            self.tailer.run(self._handle, self._check_applied_waiters),
            name="propagation-send",
        )

    def stop(self):
        """Stop the send process. The replay tasks keep running: in-flight
        shadow commits must complete or committed source changes would be
        lost."""
        if self._pump_process is not None and not self._pump_process.finished:
            self._pump_process.interrupt("propagation stopped")

    def crash(self):
        """Crash teardown: stop the send process, kill every replay task,
        and hand over the residue — {source xid: (prepared shadow, its
        entry)} — for recovery (§3.7) to resolve by source outcome.

        Interrupted processes abort their shadows, releasing locks and
        slots; an entry not yet granted gives its slot request and records
        up in a slot of its own, in sweep order with the interrupts. A
        killed process may still take a step before its interrupt lands:
        a shadow it prepares from now on rolls back (its source's wait was
        terminated), and a record the send process handles is ignored.
        """
        self.crashed = True
        self.stop()
        for task in list(self._tasks):
            if type(task) is _Replay:
                if task.cursor is not None:
                    self._kill_parked(task)
                    continue
                task = task.process
            if task is not None and not task.finished:
                task.interrupt("propagation stopped")
        # Defensive sweep: abort shadows whose replay task already died
        # (e.g. crashed) while holding locks. Prepared shadows survive —
        # they are the residue recovery resolves by source outcome.
        manager = self.dest_node.manager
        for shadow in list(self._shadows):
            participant = shadow.participant(self.dest)
            if participant is None:
                continue
            if manager.force_abort_participant(participant):
                self.cluster.finish_txn(shadow, committed=False)
                self._shadows.discard(shadow)
        residual, self._validated = self._validated, {}
        return residual

    def end_shadow(self, shadow, commit_ts=None):
        """Generator: a shadow transaction's one ending on the destination.

        With ``commit_ts`` the shadow commits at its source's commit
        timestamp; without one it rolls back. Either way it then leaves the
        registry and this pipeline."""
        manager = self.dest_node.manager
        if commit_ts is None:
            manager.local_abort(shadow)
        else:
            yield from manager.local_commit(shadow, commit_ts)
            shadow.commit_ts = commit_ts
        self.cluster.finish_txn(shadow, committed=commit_ts is not None)
        self._shadows.discard(shadow)

    def _spawn_task(self, generator, name):
        task = self.sim.spawn(generator, name=name)
        self._tasks.add(task)
        task.done_event.add_callback(lambda _ev: self._tasks.discard(task))

    def hold_applies(self):
        """Buffer replay until the snapshot copy has installed the base rows
        (Figure 2: async execution starts after snapshot copying)."""
        self._applies_held = True

    def release_applies(self):
        """Wake the entries parked behind the gate, one slot each, in the
        order they reached it (their creation order)."""
        if self._applies_held:
            self._applies_held = False
            for task in self._tasks:
                if type(task) is _Replay and task.cursor == _GATED:
                    task.cursor = 0
                    self.sim.schedule(0.0, task, None)

    def drain(self):
        """Generator: wait until every in-flight replay task completes."""
        while self._inflight:
            finished = self.sim.event(name="apply-done")
            next(iter(self._inflight)).add_waiter(finished)
            yield finished

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def lag(self):
        """Catch-up distance: committed-but-unapplied changes (§3.4).

        Records cached for *uncommitted* transactions do not count — they
        have not been propagated yet (async mode ships at commit), so they
        cannot hold the mode change back; a long-running batch insert would
        otherwise stall the catch-up forever.
        """
        return self.tailer.lag + self.unreplayed_records

    def applied_watermark(self):
        """Every committed change with lsn below this has been applied."""
        if self._inflight:
            return min(entry.min_lsn for entry in self._inflight)
        return self.tailer.handled_lsn

    def wait_applied_through(self, lsn):
        """Event firing once the applied watermark reaches ``lsn``."""
        event = self.sim.event(name="applied-through")
        if self.applied_watermark() >= lsn:
            event.succeed(None)
            return event
        self._waiter_seq += 1
        insort(self._applied_waiters, (lsn, self._waiter_seq, event))
        return event

    def _check_applied_waiters(self):
        waiters = self._applied_waiters
        if not waiters:
            return
        # Sorted by (lsn, seq): one bisect cuts the ready prefix.
        watermark = self.applied_watermark()
        if waiters[0][0] > watermark:
            return
        cut = bisect_right(waiters, (watermark, self._waiter_seq + 1))
        ready = waiters[:cut]
        del waiters[:cut]
        ready.sort(key=lambda entry: entry[1])  # fire in insertion order
        for entry in ready:
            entry[2].succeed(None)

    # ------------------------------------------------------------------
    # Send process: the tailer calls this on each routed record
    # ------------------------------------------------------------------
    def _handle(self, record):
        if self.crashed:
            return
        kind = record.kind
        if kind.is_change:
            if record.shard_id in self.shard_set:
                self._caches.setdefault(record.xid, []).append(record)
                self.pending_records += 1
            return
        if kind is WalRecordKind.PREPARE:
            if self.mocc is not None and record.xid in self._caches:
                self._start_validation(record.xid)
            return
        if kind in (WalRecordKind.COMMIT, WalRecordKind.COMMIT_PREPARED):
            self._on_commit(record.xid, record.commit_ts)
            return
        if kind in (WalRecordKind.ABORT, WalRecordKind.ROLLBACK_PREPARED):
            self._on_abort(record.xid)
            return

    def _on_commit(self, xid, commit_ts):
        # The source is past MOCC's after_prepare, the set's only reader.
        self.validation_started.discard(xid)
        if xid in self._validated:
            shadow, entry = self._validated[xid]
            self._spawn_task(
                self._end_prepared_shadow(xid, shadow, entry, commit_ts),
                name="shadow-commit",
            )
            return
        records = self._caches.pop(xid, None)
        if not records:
            return
        if commit_ts <= self.snapshot_ts:
            # Already contained in the snapshot copy.
            self.pending_records -= len(records)
            return
        self.unreplayed_records += len(records)
        self._enqueue(records, xid, commit_ts)

    def _on_abort(self, xid):
        self.validation_started.discard(xid)
        records = self._caches.pop(xid, None)
        if records:
            self.pending_records -= len(records)
        if xid in self._validated:
            shadow, entry = self._validated[xid]
            self._spawn_task(
                self._end_prepared_shadow(xid, shadow, entry), name="shadow-rollback"
            )

    # ------------------------------------------------------------------
    # The replay backlog: entries chained in commit order per key
    # ------------------------------------------------------------------
    def _enqueue(self, records, xid, commit_ts):
        # Deduplicate in record order (dict preserves insertion order): the
        # predecessor-wait and key-tail bookkeeping below must run in a
        # process-independent order, and set iteration is hash-ordered.
        keys = tuple(dict.fromkeys((r.shard_id, r.key) for r in records))
        key_tail = self._key_tail
        predecessors = tuple(
            dict.fromkeys(key_tail[k] for k in keys if k in key_tail)
        )
        entry = _Replay(self, records, xid, commit_ts, keys, predecessors)
        for key in keys:
            key_tail[key] = entry
        self._inflight.add(entry)
        self._tasks.add(entry)
        self.sim.schedule(0.0, entry, None)

    def _advance(self, entry):
        """The one pre-grant path: every wakeup of an entry lands here.

        Each wait takes the slots a process parked on it would take (the
        apply gate's release, a predecessor's finish, the slot grant, a
        finished predecessor passed through ``take_tail_slot`` or a fresh
        zero-delay slot), and the granted process starts in the grant's
        slot (:meth:`Simulator.start_inline`) — so an entry's schedule is,
        slot for slot, that of a process parked on the same waits.
        """
        cursor = entry.cursor
        if cursor is None:  # past its grant, or killed before it
            if entry.process is not None:  # the process exited
                entry.process = None
                self._tasks.discard(entry)
            return
        if cursor == _NEW:
            if self._applies_held:
                entry.cursor = _GATED
                return
            entry.cursor = cursor = 0
        sim = self.sim
        predecessors = entry.predecessors
        while cursor < len(predecessors):
            predecessor = predecessors[cursor]
            entry.cursor = cursor = cursor + 1
            if predecessor.keys is not None:  # still replaying
                predecessor.add_waiter(entry)
                return
            if not sim.take_tail_slot():
                sim.schedule(0.0, entry, None)
                return
        request = entry.request
        if request is None:
            entry.request = request = self._slots.acquire()
            if not request.triggered:
                request.add_callback(entry)
                return
            if not sim.take_tail_slot():
                sim.schedule(0.0, entry, request)
                return
        entry.cursor = entry.request = None
        name = "shadow-validate" if entry.commit_ts is None else "async-apply"
        entry.process = sim.start_inline(
            self._replay(entry, entry.records, entry.commit_ts), name=name
        )
        entry.process.done_event.add_callback(entry)

    def _kill_parked(self, entry):
        """Crash teardown of an entry not yet granted: stop its waits now,
        and give its slot request and records up in a zero-delay slot of
        its own (where an interrupt of a granted process lands)."""
        cursor, entry.cursor = entry.cursor, None
        if cursor > 0:
            waiters = entry.predecessors[cursor - 1].waiters
            if waiters is not None and entry in waiters:
                waiters.remove(entry)
        if entry.request is not None:
            entry.request.remove_callback(entry)
        self.sim.schedule(0.0, self._abandon, entry)

    def _abandon(self, entry):
        self._slots.cancel_acquire(entry.request)
        entry.request = None
        self._settle(entry)
        self._tasks.discard(entry)

    def _settle(self, entry, prepared=None):
        """An entry's replay is over: applied, given up, or — ``prepared``
        is then its shadow — validated and waiting for its resolution."""
        count = len(entry.records)
        self.pending_records -= count
        self.unreplayed_records -= count
        entry.records = None
        entry.predecessors = ()
        if prepared is None:
            self._finish_task(entry)
            return
        # Changes are applied (prepared): keep the key chain until the
        # resolution, but let the applied watermark advance past it.
        self._inflight.discard(entry)
        self._check_applied_waiters()
        self._validated[entry.xid] = (prepared, entry)

    def _finish_task(self, entry):
        self._inflight.discard(entry)
        keys, entry.keys = entry.keys, None
        for waiter in entry.waiters or ():
            if type(waiter) is _Replay:
                self.sim.schedule(0.0, waiter, None)
            else:
                waiter.succeed(None)
        entry.waiters = None
        for key in keys:
            if self._key_tail.get(key) is entry:
                del self._key_tail[key]
        self._check_applied_waiters()

    def _transfer_cost(self, records):
        """Generator: network + (possibly spilled) reload cost of shipping.

        Shipping goes through the bounded RPC helper: a partitioned or lossy
        destination causes timed-out retransmits and finally an
        :class:`~repro.txn.errors.RpcAbort`, which wounds the pipeline
        instead of hanging it.
        """
        total_bytes = MSG_OVERHEAD + sum(r.size for r in records)
        if len(records) > self.costs.spill_threshold:
            batches = len(records) // 1000 + 1
            yield batches * SPILL_RELOAD_PER_BATCH
        yield from self.cluster.rpc_send(
            self.source, self.dest, total_bytes, traffic_class=MIGRATION_CLASS
        )
        self.stats.records_propagated += len(records)

    def _make_shadow(self, start_ts, label="__shadow__"):
        shadow = Transaction(self.cluster.allocate_tid(), self.dest, start_ts, label=label)
        shadow.is_shadow = True
        shadow.begin_time = self.sim.now
        self.cluster.register_txn(shadow)
        self._shadows.add(shadow)
        self.stats.shadow_txns += 1
        return shadow

    def _coalesce_changes(self, records):
        """Resolve the per-record kind dispatch once, at the slot grant.

        Returns the transaction's change vector: (bound manager method,
        positional args, size) per record, in record order — the replay
        then applies it without re-branching on the record kind.
        """
        manager = self.dest_node.manager
        ops = []
        for record in records:
            kind = record.kind
            if kind is WalRecordKind.INSERT:
                ops.append((manager.insert, (record.shard_id, record.key, record.value), record.size))
            elif kind is WalRecordKind.UPDATE:
                ops.append((manager.update, (record.shard_id, record.key, record.value), record.size))
            elif kind is WalRecordKind.DELETE:
                ops.append((manager.delete, (record.shard_id, record.key), record.size))
            else:
                ops.append((manager.lock_row, (record.shard_id, record.key), record.size))
        COUNTERS.migration_replay_coalesced += 1
        return ops

    def _replay_ops(self, shadow, ops):
        """Generator: apply a coalesced change vector through the manager."""
        stats = self.stats
        for method, args, size in ops:
            yield from method(shadow, *args, size=size)
            stats.records_applied += 1

    # ------------------------------------------------------------------
    # A granted entry's process: async replay, or validation at prepare
    # ------------------------------------------------------------------
    def _start_validation(self, xid):
        self.validation_started.add(xid)
        records = self._caches.pop(xid)
        self.unreplayed_records += len(records)
        self._enqueue(records, xid, None)

    def _replay(self, entry, records, commit_ts):
        """Generator: the process of a granted entry, which holds one
        replay slot until its ``finally``. An async replay commits its
        shadow at the source's commit timestamp; a validation (§3.5.2)
        prepares it — a WW-conflict with a destination transaction aborts
        both sides — and then acks the blocked source transaction."""
        shadow = None
        ack = None
        try:
            if commit_ts is None:
                shadow = self._make_shadow(records[0].start_ts)
            yield from self._transfer_cost(records)
            if shadow is None:
                shadow = self._make_shadow(records[0].start_ts)
            yield from self._replay_ops(shadow, self._coalesce_changes(records))
            if commit_ts is None:
                yield from self.dest_node.manager.local_prepare(shadow)
                if self.crashed:
                    yield from self.end_shadow(shadow)
                else:
                    ack = True
            else:
                yield from self.end_shadow(shadow, commit_ts)
        except (Interrupt, RpcAbort) as exc:
            # Migration torn down mid-replay, or the destination unreachable
            # after bounded retries (which wounds the pipeline: the
            # supervisor crashes and recovers the migration, whose repair
            # pass re-copies what this task dropped). Roll the shadow back
            # so its locks are released; a waiting source transaction is
            # failed by the crash handler (§3.7).
            if isinstance(exc, RpcAbort):
                self.wounded = exc
            if shadow is not None and not shadow.finished:
                yield from self.end_shadow(shadow)
        except TransactionError as exc:
            if commit_ts is not None or not isinstance(exc, SerializationFailure):
                raise AssertionError(  # pragma: no cover - consistency bug
                    "replay must never conflict: {!r}".format(exc)
                ) from exc
            self.stats.ww_conflicts += 1
            yield from self.end_shadow(shadow)
            ack = False
        finally:
            # One cleanup path for every outcome — applied, validated,
            # WW-conflicted, interrupted, wounded, or an exception the
            # handlers above never match. (The abort yields above sit
            # before this block on purpose: an Interrupt landing in an
            # abort wait must not skip the release and wedge drain().)
            self._slots.release()
            self._settle(entry, shadow if ack else None)
        if ack is not None:
            yield from self._post_ack(self.mocc, entry.xid, ok=ack)

    def _post_ack(self, mocc, xid, ok):
        """Generator: deliver a validation outcome to the blocked source
        transaction. The ack is retransmitted until it arrives — a source
        transaction waiting on a lost ack would otherwise never wake. A crash
        teardown interrupt simply stops the retransmits: the crash handler
        fails the waiter itself (§3.7)."""
        try:
            yield from self.cluster.rpc_send(self.dest, self.source, 64, persistent=True)
        except Interrupt:
            return
        mocc.post_result(xid, ok=ok)

    def _end_prepared_shadow(self, xid, shadow, entry, commit_ts=None):
        """Generator: resolve a validated shadow as its source transaction
        ended — commit at ``commit_ts``, or roll back without one. The
        shadow stays in ``_validated`` until it has ended, so a crash
        teardown mid-resolution hands it to recovery (§3.7), which learns
        the source's outcome and ends it there; this task then just stops."""
        try:
            # Decision delivery is persistent: the source outcome is final,
            # so it must reach the destination across any partition.
            yield from self.cluster.rpc_send(self.source, self.dest, 64, persistent=True)
            yield from self.end_shadow(shadow, commit_ts)
        except Interrupt:
            return
        self._validated.pop(xid, None)
        self._finish_task(entry)
