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

Replay is parallel across ``replay_parallelism`` slots, but transactions
with overlapping write keys are chained in commit order (the paper's
"transaction-level parallel apply approach based on SI by tracking timestamp
order", §3.6).
"""

from bisect import bisect_left, bisect_right, insort

from repro import fastpath
from repro.profiling.counters import COUNTERS
from repro.sim.errors import Interrupt
from repro.sim.network import MIGRATION_CLASS
from repro.sim.ordered import OrderedSet
from repro.sim.resources import Resource
from repro.storage.wal import WalRecordKind
from repro.txn.errors import RpcAbort, SerializationFailure, TransactionError
from repro.txn.transaction import Transaction, TxnState


class _InflightApply:
    """One replay/validation task's ordering state."""

    __slots__ = ("done", "min_lsn", "keys")

    def __init__(self, done, min_lsn, keys):
        self.done = done
        self.min_lsn = min_lsn
        self.keys = keys


class Propagation:
    """Update propagation pipeline for one migration."""

    def __init__(self, cluster, shard_ids, source, dest, snapshot_ts, from_lsn, stats):
        self.cluster = cluster
        self.sim = cluster.sim
        # Frozen tuple-keyed set: ShardId is a tuple subclass, so membership
        # per WAL record is one O(1) hash with no per-record allocation.
        self.shard_set = frozenset(shard_ids)
        self._pump_batch = cluster.config.pump_batch_records
        self._msg_overhead = cluster.config.propagation_msg_overhead
        self.source = source
        self.dest = dest
        self.snapshot_ts = snapshot_ts
        self.stats = stats
        self.costs = cluster.config.costs
        self.source_node = cluster.nodes[source]
        self.dest_node = cluster.nodes[dest]
        self.reader = self.source_node.wal.reader(from_lsn)
        # Every record below this LSN has had its effect (_handle returned).
        # reader.next_lsn runs ahead of it while the pump is parked in its
        # CPU charge: "has the PREPARE been seen?" must ask this one.
        self.handled_lsn = from_lsn
        self.mocc = None  # set by enable_sync(); None => async mode
        self._caches = {}  # source xid -> [change records]
        self._validated = {}  # source xid -> (shadow txn, inflight entry)
        self.validation_started = OrderedSet()  # xids whose PREPARE spawned a task
        self._inflight = []  # _InflightApply entries still replaying
        self._key_tail = {}  # (shard, key) -> done event of last writer
        self._slots = Resource(
            self.sim, capacity=cluster.config.replay_parallelism, name="replay"
        )
        # Watermark waiters as (target_lsn, insertion_seq, event). The fast
        # path keeps the list sorted by (lsn, seq) and resolves a ready
        # prefix with one bisect; the legacy path appends and sweeps. Both
        # fire ready waiters in insertion order.
        self._applied_waiters = []
        self._waiter_seq = 0
        # Insertion-ordered: a crash teardown interrupts these in spawn
        # order, keeping the teardown timeline deterministic (SIM003).
        self._tasks = OrderedSet()  # in-flight replay/resolution processes
        self._shadows = []  # every shadow txn created by this pipeline
        self._pump_process = None
        self._apply_gate = None  # armed while the snapshot copy is running
        self._since_cpu_charge = 0
        self.records_seen = 0
        self.pending_records = 0  # records in caches/in-flight (bookkeeping)
        self.unreplayed_records = 0  # committed records not yet applied
        # Set when a transfer exhausted its RPC retry budget (partitioned /
        # lossy destination): the pipeline can no longer guarantee delivery
        # and the migration needs supervised crash recovery (§3.7).
        self.wounded = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        self._pump_process = self.sim.spawn(self._pump(), name="propagation-send")

    def stop(self, kill_tasks=False):
        """Stop the send process; with ``kill_tasks`` also interrupt every
        in-flight replay task (crash injection).

        Interrupted tasks abort their shadow transactions (releasing locks
        and replay slots), so a crashed migration leaves no residue behind —
        recovery (§3.7) then resolves the already-prepared shadows. A normal
        teardown keeps the tasks: in-flight shadow commits must complete or
        committed source changes would be lost.
        """
        if self._pump_process is not None and not self._pump_process.finished:
            self._pump_process.interrupt("propagation stopped")
        if kill_tasks:
            for task in list(self._tasks):
                if not task.finished:
                    task.interrupt("propagation stopped")
            # Defensive sweep: abort shadows whose replay task already died
            # (e.g. crashed) while holding locks. Prepared shadows survive —
            # they are the residue recovery resolves by source outcome.
            manager = self.dest_node.manager
            for shadow in self._shadows:
                if shadow.finished:
                    continue
                participant = shadow.participant(self.dest)
                if participant is None:
                    continue
                if manager.force_abort_participant(participant):
                    from repro.txn.transaction import TxnState

                    shadow.state = TxnState.ABORTED
                    self.cluster.active_txns.pop(shadow.tid, None)

    def _spawn_task(self, generator, name):
        task = self.sim.spawn(generator, name=name)
        self._tasks.add(task)
        task.done_event.add_callback(lambda _ev: self._tasks.discard(task))
        return task

    def enable_sync(self, mocc):
        """Switch to synchronous propagation (the sync barrier is set)."""
        self.mocc = mocc

    def hold_applies(self):
        """Buffer replay until the snapshot copy has installed the base rows
        (Figure 2: async execution starts after snapshot copying)."""
        if self._apply_gate is None:
            self._apply_gate = self.sim.event(name="apply-gate")

    def release_applies(self):
        if self._apply_gate is not None:
            gate, self._apply_gate = self._apply_gate, None
            gate.succeed(None)

    def _wait_apply_gate(self):
        if self._apply_gate is not None and not self._apply_gate.triggered:
            yield self._apply_gate

    def drain(self):
        """Generator: wait until every in-flight replay task completes."""
        while self._inflight:
            yield self._inflight[0].done

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
        return self.reader.lag + self.unreplayed_records

    def applied_watermark(self):
        """Every committed change with lsn below this has been applied."""
        if self._inflight:
            return min(entry.min_lsn for entry in self._inflight)
        return self.reader.next_lsn

    def wait_applied_through(self, lsn):
        """Event firing once the applied watermark reaches ``lsn``."""
        event = self.sim.event(name="applied-through")
        if self.applied_watermark() >= lsn:
            event.succeed(None)
            return event
        self._waiter_seq += 1
        if fastpath.migration_replay:
            insort(self._applied_waiters, (lsn, self._waiter_seq, event))
        else:
            self._applied_waiters.append((lsn, self._waiter_seq, event))
        return event

    def _check_applied_waiters(self):
        waiters = self._applied_waiters
        if not waiters:
            return
        if fastpath.migration_replay:
            # Sorted by (lsn, seq): one bisect cuts the ready prefix.
            watermark = self.applied_watermark()
            if waiters[0][0] > watermark:
                return
            cut = bisect_right(waiters, (watermark, self._waiter_seq + 1))
            ready = waiters[:cut]
            del waiters[:cut]
            # Fire in insertion order — the order the legacy sweep fires in.
            ready.sort(key=lambda entry: entry[1])
            for entry in ready:
                entry[2].succeed(None)
            return
        watermark = self.applied_watermark()
        ready = [entry for entry in waiters if watermark >= entry[0]]
        for entry in ready:
            waiters.remove(entry)
            entry[2].succeed(None)

    # ------------------------------------------------------------------
    # Send process
    # ------------------------------------------------------------------
    def _pump(self):
        try:
            if fastpath.migration_pump:
                yield from self._pump_routed()
                return
            while True:
                record = yield from self.reader.next_record()
                self.records_seen += 1
                self._since_cpu_charge += 1
                if self._since_cpu_charge >= self._pump_batch:
                    # The send process consumes source CPU while scanning the
                    # WAL (the ~6% source overhead in Figure 10).
                    yield self.source_node.cpu.use(
                        self.costs.cpu_propagate * self._since_cpu_charge
                    )
                    self._since_cpu_charge = 0
                self._handle(record)
                self.handled_lsn = record.lsn + 1
        except Interrupt:
            return

    def _pump_routed(self):
        """Shard-routed send loop: identical effects, fewer record visits.

        Consumes only records the unrouted loop would act on — change
        records touching the migrating shard set, plus every control
        record — via the WAL's per-shard routing index. Skipped records
        still advance the reader cursor, the ``records_seen`` count and
        the CPU-charge accounting, so every charge lands at the exact
        count boundary (and therefore the exact instant) the unrouted
        loop pays it, interleaved with the same ``_handle`` effects in
        the same LSN order.
        """
        wal = self.source_node.wal
        reader = self.reader
        cpu = self.source_node.cpu
        batch = self._pump_batch
        charge = self.costs.cpu_propagate * batch
        change_index, control_index = wal.routing_index()
        routes = [control_index]
        for shard_id in sorted(self.shard_set):
            route = change_index.get(shard_id)
            if route is None:
                # Share the live list so appends after this point land in it.
                route = change_index[shard_id] = []
            routes.append(route)
        cursors = [bisect_left(route, reader.next_lsn) for route in routes]
        while True:
            if reader.next_lsn >= wal.tail_lsn:
                yield wal._wait_appended()
                continue
            # Next relevant record at or beyond the reader cursor, if any.
            next_lsn = wal.tail_lsn
            winner = -1
            for index, route in enumerate(routes):
                cursor = cursors[index]
                if cursor < len(route) and route[cursor] < next_lsn:
                    next_lsn = route[cursor]
                    winner = index
            # Records in [reader.next_lsn, next_lsn) are irrelevant: count
            # them and pay every crossed charge boundary, handling nothing.
            gap = next_lsn - reader.next_lsn
            if gap:
                self.records_seen += gap
                reader.next_lsn += gap
                COUNTERS.migration_pump_skipped += gap
                self._since_cpu_charge += gap
                while self._since_cpu_charge >= batch:
                    yield cpu.use(charge)
                    self._since_cpu_charge -= batch
            if winner < 0:
                continue
            record = wal.record_at(next_lsn)
            reader.next_lsn = next_lsn + 1
            cursors[winner] += 1
            self.records_seen += 1
            self._since_cpu_charge += 1
            if self._since_cpu_charge >= batch:
                yield cpu.use(charge)
                self._since_cpu_charge = 0
            self._handle(record)
            self.handled_lsn = next_lsn + 1

    def _handle(self, record):
        kind = record.kind
        if kind.is_change:
            if record.shard_id in self.shard_set:
                self._caches.setdefault(record.xid, []).append(record)
                self.pending_records += 1
            return
        if kind is WalRecordKind.PREPARE:
            if self.mocc is not None and record.xid in self._caches:
                self._start_validation(record.xid, record.start_ts)
            return
        if kind in (WalRecordKind.COMMIT, WalRecordKind.COMMIT_PREPARED):
            self._on_commit(record.xid, record.commit_ts)
            return
        if kind in (WalRecordKind.ABORT, WalRecordKind.ROLLBACK_PREPARED):
            self._on_abort(record.xid)
            return

    def _on_commit(self, xid, commit_ts):
        if xid in self._validated:
            shadow, entry = self._validated.pop(xid)
            self._spawn_task(
                self._commit_prepared_shadow(xid, shadow, entry, commit_ts),
                name="shadow-commit",
            )
            return
        records = self._caches.pop(xid, None)
        if not records:
            return
        if commit_ts <= self.snapshot_ts:
            # Already contained in the snapshot copy.
            self.pending_records -= len(records)
            self._check_applied_waiters()
            return
        self.unreplayed_records += len(records)
        self._start_async_apply(records, commit_ts)

    def _on_abort(self, xid):
        records = self._caches.pop(xid, None)
        if records:
            self.pending_records -= len(records)
        if xid in self._validated:
            shadow, entry = self._validated.pop(xid)
            self._spawn_task(
                self._rollback_prepared_shadow(xid, shadow, entry),
                name="shadow-rollback",
            )
        self._check_applied_waiters()

    # ------------------------------------------------------------------
    # Replay task scheduling (commit-order chaining per key)
    # ------------------------------------------------------------------
    def _register_task(self, records):
        # Deduplicate in record order (dict preserves insertion order): the
        # predecessor-wait and key-tail bookkeeping below must run in a
        # process-independent order, and set iteration is hash-ordered.
        keys = list(dict.fromkeys((r.shard_id, r.key) for r in records))
        predecessors = list(
            dict.fromkeys(self._key_tail[k] for k in keys if k in self._key_tail)
        )
        done = self.sim.event(name="apply-done")
        for key in keys:
            self._key_tail[key] = done
        entry = _InflightApply(done, min(r.lsn for r in records), keys)
        self._inflight.append(entry)
        return entry, predecessors, done

    def _finish_task(self, entry, done):
        if entry in self._inflight:
            self._inflight.remove(entry)
        done.succeed(None)
        for key in entry.keys:
            if self._key_tail.get(key) is done:
                del self._key_tail[key]
        self._check_applied_waiters()

    def _transfer_cost(self, records):
        """Generator: network + (possibly spilled) reload cost of shipping.

        Shipping goes through the bounded RPC helper: a partitioned or lossy
        destination causes timed-out retransmits and finally an
        :class:`~repro.txn.errors.RpcAbort`, which wounds the pipeline
        instead of hanging it.
        """
        total_bytes = self._msg_overhead + sum(r.size for r in records)
        if len(records) > self.costs.spill_threshold:
            batches = len(records) // 1000 + 1
            yield batches * self.costs.spill_reload_per_batch
        yield from self.cluster.rpc_send(
            self.source, self.dest, total_bytes, traffic_class=MIGRATION_CLASS
        )
        self.stats.records_propagated += len(records)

    def _make_shadow(self, start_ts, label="__shadow__"):
        shadow = Transaction(
            Transaction.allocate_tid(), self.dest, start_ts, label=label
        )
        shadow.is_shadow = True
        shadow.begin_time = self.sim.now
        self.cluster.register_txn(shadow)
        self._shadows.append(shadow)
        self.stats.shadow_txns += 1
        return shadow

    def _replay_records(self, shadow, records):
        """Generator: re-execute the changes through the dest manager."""
        manager = self.dest_node.manager
        for record in records:
            if record.kind is WalRecordKind.INSERT:
                yield from manager.insert(
                    shadow, record.shard_id, record.key, record.value, size=record.size
                )
            elif record.kind is WalRecordKind.UPDATE:
                yield from manager.update(
                    shadow, record.shard_id, record.key, record.value, size=record.size
                )
            elif record.kind is WalRecordKind.DELETE:
                yield from manager.delete(
                    shadow, record.shard_id, record.key, size=record.size
                )
            elif record.kind is WalRecordKind.LOCK:
                yield from manager.lock_row(
                    shadow, record.shard_id, record.key, size=record.size
                )
            self.stats.records_applied += 1

    def _coalesce_changes(self, records):
        """Resolve the per-record kind dispatch once, at scheduling time.

        Returns the transaction's change vector: (bound manager method,
        positional args, size) per record, in record order — the replay
        slot then applies it without re-branching on the record kind. Same
        manager generators, same order, same arguments as
        :meth:`_replay_records`.
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
    # Async replay (commit-time shipping)
    # ------------------------------------------------------------------
    def _start_async_apply(self, records, commit_ts):
        entry, predecessors, done = self._register_task(records)
        ops = self._coalesce_changes(records) if fastpath.migration_replay else None
        self._spawn_task(
            self._async_apply(records, commit_ts, entry, predecessors, done, ops),
            name="async-apply",
        )

    def _async_apply(self, records, commit_ts, entry, predecessors, done, ops=None):
        shadow = None
        slot_request = None
        holding_slot = False
        try:
            yield from self._wait_apply_gate()
            for predecessor in predecessors:
                yield predecessor
            slot_request = self._slots.acquire()
            yield slot_request
            holding_slot = True
            yield from self._transfer_cost(records)
            shadow = self._make_shadow(records[0].start_ts)
            if ops is not None:
                yield from self._replay_ops(shadow, ops)
            else:
                yield from self._replay_records(shadow, records)
            yield from self.dest_node.manager.local_commit(shadow, commit_ts)
            shadow.commit_ts = commit_ts
            shadow.state = TxnState.COMMITTED
            self.cluster.finish_txn(shadow, committed=True)
        except Interrupt:
            # Migration torn down mid-replay: roll the shadow back so its
            # locks are released.
            if shadow is not None and not shadow.finished:
                yield from self.dest_node.manager.local_abort(shadow)
                shadow.state = TxnState.ABORTED
                self.cluster.finish_txn(shadow, committed=False)
        except RpcAbort as exc:
            # Destination unreachable after bounded retries: wound the
            # pipeline — the supervisor crashes and recovers the migration,
            # whose repair pass re-copies the changes this task dropped.
            self.wounded = exc
            if shadow is not None and not shadow.finished:
                yield from self.dest_node.manager.local_abort(shadow)
                shadow.state = TxnState.ABORTED
                self.cluster.finish_txn(shadow, committed=False)
        except TransactionError as exc:  # pragma: no cover - consistency bug
            raise AssertionError(
                "async replay must never conflict: {!r}".format(exc)
            ) from exc
        finally:
            if holding_slot:
                self._slots.release()
            else:
                # Interrupted at the acquire itself: the request may already
                # have been granted (or still be queued) — either way it must
                # not leak a replay slot.
                self._slots.cancel_acquire(slot_request)
            self.pending_records -= len(records)
            self.unreplayed_records -= len(records)
            self._finish_task(entry, done)

    # ------------------------------------------------------------------
    # Sync replay: validation at prepare, resolution at commit (§3.5.2)
    # ------------------------------------------------------------------
    def _start_validation(self, xid, start_ts):
        self.validation_started.add(xid)
        records = self._caches.pop(xid)
        self.unreplayed_records += len(records)
        entry, predecessors, done = self._register_task(records)
        ops = self._coalesce_changes(records) if fastpath.migration_replay else None
        self._spawn_task(
            self._validate(xid, start_ts, records, entry, predecessors, done, ops),
            name="shadow-validate",
        )

    def _validate(self, xid, start_ts, records, entry, predecessors, done, ops=None):
        shadow = None
        slot_request = None
        holding_slot = False
        validated = False
        ack = None
        try:
            yield from self._wait_apply_gate()
            for predecessor in predecessors:
                yield predecessor
            slot_request = self._slots.acquire()
            yield slot_request
            holding_slot = True
            shadow = self._make_shadow(start_ts)
            yield from self._transfer_cost(records)
            if ops is not None:
                yield from self._replay_ops(shadow, ops)
            else:
                yield from self._replay_records(shadow, records)
            yield from self.dest_node.manager.local_prepare(shadow)
            validated = True
            ack = True
        except (Interrupt, RpcAbort) as exc:
            # Migration torn down mid-validation (or the destination became
            # unreachable): abort the shadow and fail the waiting source
            # transaction (it is terminated by the crash handler, §3.7).
            if isinstance(exc, RpcAbort):
                self.wounded = exc
            if shadow is not None and not shadow.finished:
                yield from self.dest_node.manager.local_abort(shadow)
                shadow.state = TxnState.ABORTED
                self.cluster.finish_txn(shadow, committed=False)
        except SerializationFailure:
            # WW-conflict with a destination transaction: abort the shadow
            # and tell the source to abort too (both sides roll back).
            self.stats.ww_conflicts += 1
            yield from self.dest_node.manager.local_abort(shadow)
            shadow.state = TxnState.ABORTED
            self.cluster.finish_txn(shadow, committed=False)
            ack = False
        finally:
            # One cleanup path for every outcome — validated, WW-conflicted,
            # interrupted, wounded, or an exception the handlers above never
            # match: the replay slot and the task accounting must not depend
            # on which way the try block exited. (The abort yields above sit
            # before this block on purpose: an Interrupt landing in an abort
            # wait used to skip the release and wedge drain() forever.)
            if holding_slot:
                self._slots.release()
            else:
                self._slots.cancel_acquire(slot_request)
            self.pending_records -= len(records)
            self.unreplayed_records -= len(records)
            if validated:
                # Changes are applied (prepared); keep the key chain until
                # resolution but let the applied watermark advance past this
                # transaction.
                if entry in self._inflight:
                    self._inflight.remove(entry)
                self._check_applied_waiters()
                self._validated[xid] = (shadow, (entry, done))
            else:
                self._finish_task(entry, done)
        if ack is not None:
            yield from self._post_ack(self.mocc, xid, ok=ack)

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

    def _commit_prepared_shadow(self, xid, shadow, entry_done, commit_ts):
        entry, done = entry_done
        try:
            # Decision delivery is persistent: the source outcome is final,
            # so it must reach the destination across any partition.
            yield from self.cluster.rpc_send(self.source, self.dest, 64, persistent=True)
        except Interrupt:
            # Crash teardown mid-delivery: re-register the prepared shadow so
            # recovery (§3.7) finds it in the residue and resolves it by the
            # source CLOG outcome — never an orphaned PREPARED entry.
            self._validated[xid] = (shadow, entry_done)
            return
        yield from self.dest_node.manager.local_commit(shadow, commit_ts)
        shadow.commit_ts = commit_ts
        shadow.state = TxnState.COMMITTED
        self.cluster.finish_txn(shadow, committed=True)
        self._finish_task(entry, done)

    def _rollback_prepared_shadow(self, xid, shadow, entry_done):
        entry, done = entry_done
        try:
            yield from self.cluster.rpc_send(self.source, self.dest, 64, persistent=True)
        except Interrupt:
            self._validated[xid] = (shadow, entry_done)
            return
        yield from self.dest_node.manager.local_abort(shadow)
        shadow.state = TxnState.ABORTED
        self.cluster.finish_txn(shadow, committed=False)
        self._finish_task(entry, done)
