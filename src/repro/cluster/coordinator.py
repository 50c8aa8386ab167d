"""Client sessions: query routing, distributed execution, 2PC commit.

A :class:`Session` plays the role of a PolarDB-PG coordinator process (§2.1):
it is bound to one elastic node, accepts a client's statements, routes each to
the owning node through the shard map (private cache, or an MVCC shard-map
read while a migration has the shard in cache-read-through state), executes
remotely with network hops, and commits with two-phase commit across all
writing participants.

DTS causality is maintained here: every cross-node hop piggybacks the
sender's HLC onto the message, advancing the receiver (``oracle.carry``),
so dependent transactions order correctly even under clock skew.
"""

from repro.config import CLIENT_OVERHEAD, CPU_ROUTE, CPU_SHARDMAP_READ
from repro.sim.process import join
from repro.txn.errors import TransactionError
from repro.txn.locks import SharedExclusiveLockTable
from repro.txn.transaction import Transaction, TxnState
from repro.cluster.shardmap import read_shard_owner

_RPC_SIZE = 256  # bytes for a statement/ack message


class Session:
    """One client connection, coordinated by a fixed elastic node."""

    def __init__(self, cluster, node_id):
        self.cluster = cluster
        self.node = cluster.nodes[node_id]
        self.node_id = node_id
        self.sim = cluster.sim
        self.oracle = cluster.oracle

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self, label="", internal=False):
        """Generator: start a transaction (BEGIN).

        Blocks while the cluster routing gate is closed (wait-and-remaster
        suspends routing of newly arrived transactions during ownership
        transfer, §2.3.3). ``internal`` transactions — the migration's own
        T_m — bypass the gate.
        """
        while not internal and self.cluster.routing_gate is not None:
            yield self.cluster.routing_gate
        if self.node.failed:
            yield from self.node.wait_available()
        start_ts = yield from self.oracle.start_timestamp(self.node_id)
        txn = Transaction(self.cluster.allocate_tid(), self.node_id, start_ts, label=label)
        txn.begin_time = self.sim.now
        self.cluster.register_txn(txn)
        return txn

    def commit(self, txn):
        """Generator: COMMIT via 2PC across writing participants.

        Returns the commit timestamp. Raises (and aborts the transaction) on
        MOCC validation failure or any participant error.
        """
        if txn.doomed is not None:
            txn.check_doomed()
        if txn.state is not TxnState.ACTIVE:
            raise TransactionError("commit in state {}".format(txn.state), txn_id=txn.tid)
        writers = [p for p in txn.participants.values() if p.writes]
        if not writers:
            self._commit_readers(txn, txn.start_ts)
            txn.commit_ts = txn.start_ts
            self.cluster.finish_txn(txn, committed=True)
            return txn.start_ts

        txn.state = TxnState.PREPARING
        outcomes = yield from join(
            self.sim, [self._prepare_one(txn, p) for p in writers], "prepare"
        )
        failure = next((err for ok, err in outcomes if not ok), None)
        if failure is not None:
            yield from self.abort(txn, reason=failure)
            raise failure

        floor = max([txn.start_ts] + [ack for ok, ack in outcomes if ok])
        commit_ts = yield from self.oracle.commit_timestamp(self.node_id, floor)
        txn.commit_ts = commit_ts
        txn.state = TxnState.COMMITTING
        yield from join(
            self.sim, [self._commit_one(txn, p, commit_ts) for p in writers], "commit"
        )
        self._commit_readers(txn, commit_ts)
        self.cluster.finish_txn(txn, committed=True)
        return commit_ts

    def abort(self, txn, reason=None):
        """Generator: ROLLBACK on every participant.

        Rollback delivery is a 2PC decision: it is retransmitted until it
        arrives (persistent policy), so a partitioned participant's locks are
        released as soon as the link heals instead of leaking forever.
        """
        if txn.finished:
            return
        for participant in list(txn.participants.values()):
            node = self.cluster.nodes[participant.node_id]
            if participant.node_id != self.node_id:
                yield from self.cluster.rpc_send(
                    self.node_id, participant.node_id, _RPC_SIZE, persistent=True
                )
            node.manager.local_abort(txn)
        self.cluster.finish_txn(txn, committed=False, reason=reason)

    def _commit_readers(self, txn, commit_ts):
        """Commit every participant that wrote nothing: no 2PC leg."""
        for participant in txn.participants.values():
            if not participant.writes:
                manager = self.cluster.nodes[participant.node_id].manager
                manager.commit_read_only(participant, commit_ts)

    def _prepare_one(self, txn, participant):
        """Prepare one participant; returns (ok, ack_ts) / (False, error)."""
        node = self.cluster.nodes[participant.node_id]
        remote = participant.node_id != self.node_id
        try:
            if node.failed:
                yield from node.wait_available()
            if remote:
                self.oracle.carry(self.node_id, participant.node_id)
                yield from self.cluster.rpc_send(
                    self.node_id, participant.node_id, _RPC_SIZE
                )
            yield from node.manager.local_prepare(txn)
            if self.cluster.replication.groups:
                # Reconfiguration-aware 2PC: reject stale-epoch prepares and
                # wait for the prepare to reach a quorum of the shard group.
                yield from self.cluster.replication.after_local_prepare(
                    txn, participant
                )
            ack_ts = self.oracle.local_now(participant.node_id)
            if remote:
                yield from self.cluster.rpc_send(
                    participant.node_id, self.node_id, _RPC_SIZE
                )
                self.oracle.observe(self.node_id, ack_ts)
            return (True, ack_ts)
        except TransactionError as exc:
            return (False, exc)

    def _commit_one(self, txn, participant, commit_ts):
        # The commit decision is retransmitted until delivered (persistent
        # policy): a transaction past its prepare phase cannot be aborted, so
        # the only option under a partition is to keep trying until it heals.
        node = self.cluster.nodes[participant.node_id]
        if node.failed:
            yield from node.wait_available()
        remote = participant.node_id != self.node_id
        if remote:
            self.oracle.carry(self.node_id, participant.node_id)
            yield from self.cluster.rpc_send(
                self.node_id, participant.node_id, _RPC_SIZE, persistent=True
            )
        self.oracle.observe(participant.node_id, commit_ts)
        yield from node.manager.local_commit(txn, commit_ts)
        if self.cluster.replication.groups:
            # Quorum-replicate the decision; if the shard's leader moved
            # between prepare and commit, re-route it (exactly once).
            yield from self.cluster.replication.after_local_commit(
                txn, participant, commit_ts
            )

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    # Each statement hands back the ``_execute`` generator itself: callers
    # ``yield from`` it, and a wrapping generator per statement would only
    # add a frame to every resumption underneath.
    def read(self, txn, table, key):
        return self._execute(txn, table, key, "read")

    def update(self, txn, table, key, value):
        return self._execute(txn, table, key, "update", value)

    def insert(self, txn, table, key, value):
        return self._execute(txn, table, key, "insert", value)

    def delete(self, txn, table, key):
        return self._execute(txn, table, key, "delete")

    def lock_row(self, txn, table, key):
        """SELECT ... FOR UPDATE."""
        return self._execute(txn, table, key, "lock")

    def scan_table(self, txn, table):
        """Full table scan (the hybrid-B analytical query, §4.3).

        Visits every shard under the transaction's snapshot and returns all
        visible keys. In shard-lock mode each shard is locked shared for the
        transaction's duration — the behaviour that makes the analytical
        query block YCSB writers and migration pulls on the Squall port.
        """
        txn.check_doomed()
        schema = self.cluster.tables[table]
        all_keys = []
        if self.cluster.cc_mode == "shard_lock":
            # H-store semantics: a multi-partition transaction takes all its
            # partition locks up front — which is why the hybrid-B analytical
            # query blocks every writer *and* every migration pull until it
            # completes (§4.4.2).
            for shard_id in schema.shard_ids():
                owner = yield from self._route(txn, shard_id)
                target = self.cluster.nodes[owner]
                yield from target.manager.acquire_shard_lock(
                    txn, shard_id, SharedExclusiveLockTable.SHARED
                )
        for shard_id in schema.shard_ids():
            yield self.node.cpu.use(CLIENT_OVERHEAD)
            owner = yield from self._route(txn, shard_id)
            if self.cluster.replication.groups:
                self.cluster.replication.on_route(txn, shard_id, owner)
            yield from self.cluster.run_access_hooks(txn, shard_id, owner, None, False)
            target = self.cluster.nodes[owner]
            if target.failed:
                yield from target.wait_available()
            remote = owner != self.node_id
            if remote:
                self.oracle.carry(self.node_id, owner)
                yield from self.cluster.rpc_send(self.node_id, owner, _RPC_SIZE)
            if self.cluster.cc_mode == "shard_lock":
                yield from target.manager.acquire_shard_lock(
                    txn, shard_id, SharedExclusiveLockTable.SHARED
                )
            keys = yield from target.manager.scan(txn, shard_id)
            if remote:
                yield from self.cluster.rpc_send(
                    owner, self.node_id, _RPC_SIZE + 8 * len(keys)
                )
                self.oracle.carry(owner, self.node_id)
            all_keys.extend(keys)
        return all_keys

    def _execute(self, txn, table, key, op, value=None):
        if txn.doomed is not None:
            txn.check_doomed()
        cluster = self.cluster
        node = self.node
        schema = cluster.tables[table]
        shard_id = schema.shard_for_key(key)
        # Client overhead, then the _route steps without its generator frame
        # per statement. The two charges are one chain: the routing charge
        # queues exactly where this process would have submitted it, without
        # waking the process in between (not use_run, which would hold the
        # slot across both and starve a charge queued between them).
        yield node.cpu.use(CLIENT_OVERHEAD, then=CPU_ROUTE)
        cache = node.shardmap_cache  # as in _route
        owner = None
        if shard_id not in cache.read_through:
            owner, cached_cts = cache.entries[shard_id]
            if cached_cts > txn.start_ts:
                owner = None
        if owner is None:
            owner = yield from self._read_owner(txn, shard_id)
        if cluster.replication.groups:
            cluster.replication.on_route(txn, shard_id, owner)
        is_write = op != "read"
        target = cluster.nodes[owner]
        if target.failed:
            yield from target.wait_available()
        remote = owner != node.node_id
        if remote:
            self.oracle.carry(node.node_id, owner)
            yield from cluster.rpc_send(node.node_id, owner, _RPC_SIZE)
        if cluster.cc_mode == "shard_lock":
            mode = (
                SharedExclusiveLockTable.EXCLUSIVE
                if is_write
                else SharedExclusiveLockTable.SHARED
            )
            yield from target.manager.acquire_shard_lock(txn, shard_id, mode)
        # Access hooks run under the shard lock (when one exists): a Squall
        # chunk cannot move between the hook's tracker check and the
        # statement touching the row.
        if cluster._access_hooks:  # only inside a migration window
            yield from cluster.run_access_hooks(txn, shard_id, owner, key, is_write)
        size = schema.tuple_size
        if op == "read":
            result = yield from target.manager.read(txn, shard_id, key)
        elif op == "update":
            result = yield from target.manager.update(txn, shard_id, key, value, size=size)
        elif op == "insert":
            result = yield from target.manager.insert(txn, shard_id, key, value, size=size)
        elif op == "delete":
            result = yield from target.manager.delete(txn, shard_id, key, size=size)
        elif op == "lock":
            result = yield from target.manager.lock_row(txn, shard_id, key, size=size)
        else:
            raise ValueError("unknown op {!r}".format(op))
        if remote:
            yield from cluster.rpc_send(owner, node.node_id, _RPC_SIZE)
            self.oracle.carry(owner, node.node_id)
        return result

    def _route(self, txn, shard_id):
        """Generator: resolve the owning node for ``shard_id`` (§3.5.1).

        Fast path: the private cache. Slow path (:meth:`_read_owner`): an
        MVCC read of the shard map table under the transaction's snapshot,
        inheriting prepare-wait on an in-flight T_m — taken when (a) the
        shard is in cache-read-through state, the window around T_m's
        execution, or (b) the cached entry is *newer* than this
        transaction's snapshot: the shard moved after the transaction
        started, and it must keep seeing the pre-migration owner.
        """
        yield self.node.cpu.use(CPU_ROUTE)
        cache = self.node.shardmap_cache
        owner = None
        if shard_id not in cache.read_through:
            owner, cached_cts = cache.entries[shard_id]
            if cached_cts > txn.start_ts:
                owner = None
        if owner is None:
            owner = yield from self._read_owner(txn, shard_id)
        return owner

    def _read_owner(self, txn, shard_id):
        """Generator: the owner visible to ``txn`` in the shard map table."""
        node = self.node
        cache = node.shardmap_cache
        read_through = shard_id in cache.read_through
        if read_through:
            cache.read_through_lookups += 1
        yield node.cpu.use(CPU_SHARDMAP_READ)
        owner, cts = yield from read_shard_owner(
            node.shardmap_heap, node.clog, shard_id, txn.snapshot_for(None)
        )
        if read_through:
            cache.maybe_update(shard_id, owner, cts)
        return owner
