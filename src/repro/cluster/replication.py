"""Per-shard replication groups: WAL shipping, quorum commit, failover.

Each replicated shard gets a *group*: the owning node is the leader and N
followers hold full copies. A send process on the leader tails the leader's
WAL (a :class:`~repro.storage.wal.WalTailer`, the same loop migration
propagation runs) and turns the shard's transaction stream into a *group
log* of prepare/commit/abort entries. One feeder
process per follower ships log entries in order over the reliable-RPC layer,
applies them to the follower's heap and acks; a prepare or commit is
*quorum-acknowledged* once a majority of the group (leader included) holds
it, and 2PC on the coordinator waits for exactly that acknowledgement.

Failover is lease-based and deterministic: a monitor probes the leader every
``repl_lease_interval`` through the bounded RPC path, and after
``repl_lease_timeout`` of silence elects the **lowest live replica id** as
the new leader (ScalienDB's rule). The election bumps the group *epoch*,
fails in-flight quorum waits with :class:`~repro.txn.errors.StaleEpoch`
(the coordinator aborts cleanly or re-routes the decision — never a double
commit), catches the new leader up from the group log, and republishes the
shard map row everywhere so routing moves atomically.

Migration handover (:meth:`ShardReplicaGroup.rehome`) is the same epoch
bump driven by Remus: the destination joins the group, the group drains,
and leadership transfers without a copy because the followers already hold
the shard — which is also why ``wait_and_remaster`` onto an in-sync
follower is near-free (the STAR-style asymmetric path).
"""

from repro.profiling.counters import COUNTERS
from repro.sim.errors import Interrupt
from repro.storage.wal import WalRecordKind, WalTailer
from repro.txn.errors import ReplicaFailover, RpcAbort, StaleEpoch

_PROBE_SIZE = 32  # heartbeat probe bytes
_ACK_SIZE = 64  # follower ack / decision-relay bytes
_FNV_PRIME = 1000003
_SIG_MOD = (1 << 61) - 1
_KIND_CODE = {"prepare": 1, "commit": 2, "abort": 3}


class GroupLogEntry:
    """One replicated decision: a prepare, commit or abort for one txn.

    ``sig`` is a pure-integer rolling fingerprint of the log prefix ending
    at this entry (no ``hash()``: stable across PYTHONHASHSEED), which the
    divergence invariant compares against each follower's applied position.
    """

    __slots__ = (
        "seq", "kind", "origin", "xid", "records", "commit_ts", "sig",
        "acked_by", "quorum_event",
    )

    def __init__(self, seq, kind, origin, xid, records, commit_ts, sig):
        self.seq = seq
        self.kind = kind
        self.origin = origin  # node id whose WAL produced the entry
        self.xid = xid  # origin-local xid
        self.records = records  # change records (prepare / bare commits)
        self.commit_ts = commit_ts
        self.sig = sig
        self.acked_by = []  # replica ids holding the entry, in ack order
        self.quorum_event = None


class Replica:
    """One member of a shard's replication group."""

    __slots__ = (
        "replica_id", "node_id", "down", "down_since", "next_index",
        "applied_sig", "stash", "feeder",
    )

    def __init__(self, replica_id, node_id):
        self.replica_id = replica_id
        self.node_id = node_id
        self.down = False  # replica-process crash (node may be healthy)
        self.down_since = None
        self.next_index = 0  # first group-log entry not yet applied here
        self.applied_sig = 0  # fingerprint of the applied prefix
        self.stash = {}  # (origin, xid) -> prepared change records
        self.feeder = None


class ShardReplicaGroup:
    """Leader + followers for one shard, with a shared group log."""

    def __init__(self, cluster, shard_id, node_ids):
        self.cluster = cluster
        self.sim = cluster.sim
        self.shard_id = shard_id
        self.config = cluster.config
        self.costs = cluster.config.costs
        self.epoch = 1
        self.log = []
        self.replicas = [Replica(i, node_id) for i, node_id in enumerate(node_ids)]
        self.leader_id = 0
        self._entry_index = {}  # (kind, origin, xid) -> entry
        self._origin_codes = {}  # node id -> stable small int (no hash())
        self._quorum_waiters = []  # (kind, origin, xid, event)
        self._wake = None  # event armed while a feeder waits for work
        self._pump_proc = None
        self._tailer = None  # the current pump generation's WalTailer
        self._pump_caches = {}  # leader-local xid -> cached change records
        self._prepared = {}  # leader-local xid -> records already logged
        self._monitor_proc = None
        self._electing = False

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def leader(self):
        return self._by_id(self.leader_id)

    @property
    def leader_node_id(self):
        return self._by_id(self.leader_id).node_id

    @property
    def quorum(self):
        return len(self.replicas) // 2 + 1

    def _by_id(self, replica_id):
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise KeyError(replica_id)

    def replica_on(self, node_id):
        for replica in self.replicas:
            if replica.node_id == node_id:
                return replica
        return None

    def replica_down(self, replica):
        return replica.down or self.cluster.nodes[replica.node_id].failed

    def live_replicas(self):
        return [r for r in self.replicas if not self.replica_down(r)]

    def live_followers(self):
        return [r for r in self.live_replicas() if r.replica_id != self.leader_id]

    def _origin_code(self, node_id):
        code = self._origin_codes.get(node_id)
        if code is None:
            code = self._origin_codes[node_id] = len(self._origin_codes) + 1
        return code

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Clone the leader's committed state to the followers and spawn the
        pump, the per-follower feeders and the lease monitor."""
        leader_node = self.cluster.nodes[self.leader_node_id]
        rows = self._committed_rows(leader_node)
        for replica in self.replicas:
            if replica.replica_id == self.leader_id:
                continue
            self.cluster.nodes[replica.node_id].bulk_install(self.shard_id, rows)
        self._start_pump(leader_node.wal.tail_lsn)
        for replica in self.replicas:
            self._start_feeder(replica)
        self._monitor_proc = self.sim.spawn(
            self._monitor(), name="repl-monitor:{}".format(self.shard_id)
        )

    def _committed_rows(self, node):
        heap = node.heap_for(self.shard_id)
        rows = []
        for key in heap.sorted_keys():
            version = heap.latest_committed_or_locked(key)
            if version is None:
                continue
            if node.clog.status(version.xmin).value != "committed":
                continue
            if (
                version.xmax is not None
                and node.clog.status(version.xmax).value == "committed"
            ):
                continue
            rows.append((key, version.value))
        return rows

    def _start_pump(self, from_lsn):
        leader_node = self.cluster.nodes[self.leader_node_id]
        self._pump_caches = {}
        self._prepared = {}
        self._tailer = WalTailer(
            leader_node.wal, [self.shard_id], from_lsn, leader_node.cpu,
            self.costs.cpu_propagate, self.config.pump_batch_records,
        )
        self._pump_proc = self.sim.spawn(
            self._tailer.run(lambda record: self._handle(record, leader_node.node_id)),
            name="repl-pump:{}".format(self.shard_id),
        )

    def _stop_pump(self):
        if self._pump_proc is not None and not self._pump_proc.finished:
            self._pump_proc.interrupt("replication pump stopped")
        self._pump_proc = None

    def _start_feeder(self, replica):
        replica.feeder = self.sim.spawn(
            self._feed(replica),
            name="repl-feed:{}:{}".format(self.shard_id, replica.node_id),
        )

    def stop(self):
        self._stop_pump()
        if self._monitor_proc is not None and not self._monitor_proc.finished:
            self._monitor_proc.interrupt("replication stopped")
        for replica in self.replicas:
            if replica.feeder is not None and not replica.feeder.finished:
                replica.feeder.interrupt("replication stopped")

    # ------------------------------------------------------------------
    # Wake plumbing (log appends, elections, heals)
    # ------------------------------------------------------------------
    def _wake_event(self):
        if self._wake is None:
            self._wake = self.sim.event(name="repl-wake:{}".format(self.shard_id))
        return self._wake

    def _kick(self):
        if self._wake is not None:
            armed, self._wake = self._wake, None
            armed.succeed(None)

    # ------------------------------------------------------------------
    # Leader pump: leader WAL -> group log (the tailer calls _handle)
    # ------------------------------------------------------------------
    def _handle(self, record, origin):
        kind = record.kind
        if kind.is_change:
            if record.shard_id == self.shard_id:
                self._pump_caches.setdefault(record.xid, []).append(record)
            return
        if kind is WalRecordKind.PREPARE:
            records = self._pump_caches.pop(record.xid, None)
            if records is not None:
                self._prepared[record.xid] = records
                self._append_entry("prepare", origin, record.xid, records, None)
            return
        if kind in (WalRecordKind.COMMIT, WalRecordKind.COMMIT_PREPARED):
            if record.xid in self._prepared:
                self._prepared.pop(record.xid)
                self._append_entry("commit", origin, record.xid, None, record.commit_ts)
            else:
                # Un-prepared commit (e.g. a migration replay shadow landing
                # on this leader): the commit entry carries the changes.
                records = self._pump_caches.pop(record.xid, None)
                if records is not None:
                    self._append_entry(
                        "commit", origin, record.xid, records, record.commit_ts
                    )
            return
        if kind in (WalRecordKind.ABORT, WalRecordKind.ROLLBACK_PREPARED):
            self._pump_caches.pop(record.xid, None)
            if record.xid in self._prepared:
                self._prepared.pop(record.xid)
                self._append_entry("abort", origin, record.xid, None, None)
            return

    def _append_entry(self, kind, origin, xid, records, commit_ts):
        prev = self.log[-1].sig if self.log else 0
        sig = (
            prev * _FNV_PRIME
            + _KIND_CODE[kind]
            + 7 * self._origin_code(origin)
            + 31 * xid
            + 1013 * (commit_ts or 0)
            + 9176 * (len(records) if records else 0)
        ) % _SIG_MOD
        entry = GroupLogEntry(len(self.log), kind, origin, xid, records, commit_ts, sig)
        self.log.append(entry)
        self._entry_index[(kind, origin, xid)] = entry
        leader = self._by_id(self.leader_id)
        entry.acked_by.append(leader.replica_id)
        leader.next_index = len(self.log)
        leader.applied_sig = sig
        self._kick()
        self._resolve_quorum_waiters()
        return entry

    # ------------------------------------------------------------------
    # Follower feed: group log -> follower heap, in order, with acks
    # ------------------------------------------------------------------
    def _feed(self, replica):
        try:
            while True:
                if (
                    replica.replica_id == self.leader_id
                    or self.replica_down(replica)
                    or replica.next_index >= len(self.log)
                ):
                    yield self._wake_event()
                    continue
                entry = self.log[replica.next_index]
                size = self.config.propagation_msg_overhead
                if entry.records:
                    size += sum(r.size for r in entry.records)
                yield from self.cluster.rpc_send(
                    self.leader_node_id, replica.node_id, size, persistent=True
                )
                COUNTERS.repl_ship_batches += 1
                # An election/rehome catch-up may have applied this entry (and
                # more) to the replica while the ship RPC was in flight:
                # re-applying would double-count, and the cursor write below
                # would roll next_index back over the newer applies.
                if replica.next_index > entry.seq:
                    continue
                yield from self._apply_entry(replica, entry)
                if replica.next_index > entry.seq:
                    continue  # overtaken while applying: never rewind the cursor
                replica.next_index = entry.seq + 1
                replica.applied_sig = entry.sig
                # Ack to the *current* leader: the one that shipped the entry
                # may have been deposed while the feeder was suspended.
                yield from self.cluster.rpc_send(
                    replica.node_id, self.leader_node_id, _ACK_SIZE, persistent=True
                )
                if replica.replica_id not in entry.acked_by:
                    entry.acked_by.append(replica.replica_id)
                self._resolve_quorum_waiters()
        except Interrupt:
            return

    def _apply_entry(self, replica, entry):
        """Generator: apply one group-log entry to ``replica``'s storage."""
        stash_key = (entry.origin, entry.xid)
        if entry.origin == replica.node_id:
            # The entry came out of this node's own WAL: the data is already
            # here via its local prepare/commit — bookkeeping only.
            replica.stash.pop(stash_key, None)
            return
        if entry.kind == "prepare":
            replica.stash[stash_key] = entry.records
            return
        if entry.kind == "abort":
            replica.stash.pop(stash_key, None)
            return
        records = replica.stash.pop(stash_key, None)
        if records is None:
            records = entry.records or []
        node = self.cluster.nodes[replica.node_id]
        yield node.cpu.use(self.costs.cpu_apply * max(1, len(records)))
        local_xid = node.manager.allocate_local_xid()
        node.clog.begin(local_xid)
        heap = node.heap_for(self.shard_id)
        for record in records:
            if record.kind is WalRecordKind.DELETE:
                version = heap.latest_committed_or_locked(record.key)
                if version is not None and version.xmax is None:
                    heap.mark_deleted(version, local_xid)
            elif record.kind is not WalRecordKind.LOCK:
                heap.put_version(record.key, record.value, local_xid)
        node.clog.set_committed(local_xid, entry.commit_ts)

    # ------------------------------------------------------------------
    # Quorum acknowledgement
    # ------------------------------------------------------------------
    def _entry_quorum_met(self, entry):
        return len(entry.acked_by) >= self.quorum

    def wait_quorum(self, kind, origin, xid):
        """Generator: wait until the (kind, origin, xid) entry exists and a
        quorum of replicas acked it. Raises StaleEpoch if an election fails
        the wait first."""
        while True:
            entry = self._entry_index.get((kind, origin, xid))
            if entry is not None and self._entry_quorum_met(entry):
                return
            event = self.sim.event(name="repl-quorum:{}".format(self.shard_id))
            self._quorum_waiters.append((kind, origin, xid, event))
            yield event

    def _resolve_quorum_waiters(self):
        if not self._quorum_waiters:
            return
        ready = []
        for waiter in self._quorum_waiters:
            entry = self._entry_index.get(waiter[:3])
            if entry is not None and self._entry_quorum_met(entry):
                ready.append(waiter)
        for waiter in ready:
            self._quorum_waiters.remove(waiter)
            waiter[3].succeed(None)

    def _fail_quorum_waiters(self, message):
        waiters, self._quorum_waiters = self._quorum_waiters, []
        for waiter in waiters:
            waiter[3].fail(StaleEpoch(message))

    # ------------------------------------------------------------------
    # Lease monitor and election
    # ------------------------------------------------------------------
    def _monitor(self):
        try:
            interval = self.config.repl_lease_interval
            silent = 0.0
            while True:
                yield interval
                self._kick()  # let feeders re-check downs/heals each tick
                leader = self._by_id(self.leader_id)
                if not self.replica_down(leader):
                    silent = 0.0
                    continue
                probes = self.live_followers()
                if not probes:
                    continue  # nobody left to elect
                try:
                    yield from self.cluster.rpc_send(
                        probes[0].node_id, leader.node_id, _PROBE_SIZE
                    )
                except RpcAbort:
                    pass  # a partitioned leader is a silent leader
                silent += interval
                if silent >= self.config.repl_lease_timeout:
                    silent = 0.0
                    # Re-validate after the probe yield: the leader may have
                    # healed (or an election already replaced it) while the
                    # probe RPC was in flight — electing on the stale
                    # pre-probe liveness check would depose a healthy leader
                    # and burn an epoch for nothing.
                    leader = self._by_id(self.leader_id)
                    if self.replica_down(leader):
                        yield from self._elect()
        except Interrupt:
            return

    def _elect(self):
        """Generator: deterministic failover — lowest live replica id wins."""
        live = self.live_replicas()
        old_leader = self._by_id(self.leader_id)
        if not live or self._electing:
            return
        self._electing = True
        try:
            new_leader = live[0]  # replicas are ordered by replica id
            self.epoch += 1
            COUNTERS.failover_elections += 1
            self._stop_pump()
            self._abort_writers_on(old_leader.node_id)
            # In-flight quorum waits straddle the reconfiguration: fail them
            # so the coordinator aborts (prepare) or re-routes the decision
            # to the new leader (commit) instead of wedging.
            self._fail_quorum_waiters(
                "shard {} epoch {} superseded".format(self.shard_id, self.epoch - 1)
            )
            yield from self._catch_up(new_leader)
            self.leader_id = new_leader.replica_id
            cluster = self.cluster
            oracle = cluster.oracle
            cts = yield from oracle.commit_timestamp(
                new_leader.node_id, oracle.local_now(new_leader.node_id)
            )
            for node_id in cluster.node_ids():
                node = cluster.nodes[node_id]
                local_xid = node.manager.allocate_local_xid()
                node.clog.begin(local_xid)
                node.shardmap_heap.put_version(self.shard_id, new_leader.node_id, local_xid)
                node.clog.set_committed(local_xid, cts)
            cluster.record_ownership(self.shard_id, new_leader.node_id)
            cluster.refresh_caches(self.shard_id, new_leader.node_id, cts)
            cluster.metrics.mark(
                "failover_election:{}:{}".format(self.shard_id, self.epoch)
            )
            from_lsn = cluster.nodes[new_leader.node_id].wal.tail_lsn
            self._start_pump(from_lsn)
            self._kick()
        finally:
            self._electing = False

    def _abort_writers_on(self, node_id):
        """Doom in-flight transactions that wrote this shard on the crashed
        leader — their execution state died with the leader process."""
        from repro.txn.transaction import TxnState

        for txn in self.cluster.snapshot_active_txns():
            participant = txn.participant(node_id)
            if participant is None or txn.is_shadow:
                continue
            if self.shard_id not in participant.wrote_shards:
                continue
            if txn.state is TxnState.ACTIVE:
                exc = ReplicaFailover(
                    "leader of {} failed over".format(self.shard_id), txn_id=txn.tid
                )
                txn.doom(exc)
                if txn.process is not None:
                    txn.process.interrupt(exc)

    def _catch_up(self, replica):
        """Generator: locally apply every group-log entry the replica has
        not seen (log reconciliation at election / rehome)."""
        while replica.next_index < len(self.log):
            entry = self.log[replica.next_index]
            yield from self._apply_entry(replica, entry)
            # The replica's feeder may have applied this entry concurrently
            # while the apply above was paying its CPU charge: skip instead
            # of rolling the cursor back over the feeder's progress.
            if replica.next_index > entry.seq:
                continue
            replica.next_index = entry.seq + 1
            replica.applied_sig = entry.sig
            if replica.replica_id not in entry.acked_by:
                entry.acked_by.append(replica.replica_id)
        self._resolve_quorum_waiters()

    # ------------------------------------------------------------------
    # Reconfiguration-aware 2PC hooks (called by the Session)
    # ------------------------------------------------------------------
    def check_access(self, owner):
        """Reject routing to a dead leader before an election republishes
        the map — the client retries once failover completes."""
        replica = self.replica_on(owner)
        if replica is not None and self.replica_down(replica):
            raise ReplicaFailover(
                "leader {} of {} is down".format(owner, self.shard_id)
            )

    def validate_prepare(self, txn, participant):
        """Reject a prepare routed under a superseded epoch, or landing on a
        node that is neither the group leader nor the shard-map owner (the
        owner may legitimately differ during a migration's dual execution,
        when post-T_m transactions commit on the destination)."""
        node = participant.node_id
        if txn.shard_epochs.get(self.shard_id, self.epoch) != self.epoch or (
            node != self.leader_node_id
            and node != self.cluster.shard_owner(self.shard_id)
        ):
            COUNTERS.stale_epoch_rejects += 1
            raise StaleEpoch(
                "prepare for {} routed under a stale epoch".format(self.shard_id),
                txn_id=txn.tid,
            )

    def commit_on_new_leader(self, origin, xid, commit_ts):
        """Generator: deliver a commit decision whose origin leader was
        deposed between prepare and commit. Exactly-once: if the commit
        entry is already in the group log, only the quorum wait remains."""
        entry = self._entry_index.get(("commit", origin, xid))
        if entry is None:
            # Re-resolved through the shard map: relay the decision to the
            # current leader, which applies the prepared changes and logs
            # the commit for the rest of the group.
            yield from self.cluster.rpc_send(
                origin, self.leader_node_id, _ACK_SIZE, persistent=True
            )
            entry = self._entry_index.get(("commit", origin, xid))
            if entry is None:
                prepared = self._entry_index.get(("prepare", origin, xid))
                records = prepared.records if prepared is not None else []
                leader = self._by_id(self.leader_id)
                entry = self._append_entry("commit", origin, xid, records, commit_ts)
                yield from self._apply_entry(leader, entry)
        while not self._entry_quorum_met(entry):
            yield from self.wait_quorum("commit", origin, xid)

    # ------------------------------------------------------------------
    # Migration handover (Remus / wait-and-remaster)
    # ------------------------------------------------------------------
    def in_sync_follower(self, node_id):
        """True if ``node_id`` hosts a live follower that has applied the
        whole group log (the near-free wait-and-remaster precondition)."""
        replica = self.replica_on(node_id)
        return (
            replica is not None
            and replica.replica_id != self.leader_id
            and not self.replica_down(replica)
            and replica.next_index >= len(self.log)
        )

    def drain(self):
        """Generator: wait until the pump has handled the leader's whole WAL
        (every record it consumed is in the group log) and every live
        follower has applied the full group log."""
        interval = self.config.repl_lease_interval
        while True:
            leader_wal = self.cluster.nodes[self.leader_node_id].wal
            tailer = self._tailer
            if tailer is not None and tailer.handled_lsn < leader_wal.tail_lsn:
                yield interval
                continue
            behind = [
                r for r in self.live_replicas() if r.next_index < len(self.log)
            ]
            if behind:
                yield interval
                continue
            return

    def rehome(self, dest, from_lsn=0):
        """Generator: epoch-bumped leadership handover to ``dest`` after a
        migration. The old leader stays in the group as a follower; if the
        destination was not a member it joins fully caught up (the data
        arrived through the migration copy)."""
        yield from self.drain()
        self._stop_pump()
        self.epoch += 1
        replica = self.replica_on(dest)
        if replica is None:
            replica = Replica(self.replicas[-1].replica_id + 1, dest)
            replica.next_index = len(self.log)
            replica.applied_sig = self.log[-1].sig if self.log else 0
            self.replicas.append(replica)
            self._start_feeder(replica)
        else:
            yield from self._catch_up(replica)
        self.leader_id = replica.replica_id
        self.cluster.metrics.mark(
            "rehome:{}:{}:{}".format(self.shard_id, dest, self.epoch)
        )
        # Resume from the destination's WAL position at migration start:
        # replayed shadow commits re-ship as convergent re-applies, and
        # dual-execution commits the old group never saw are picked up.
        self._start_pump(from_lsn)
        self._kick()

    # ------------------------------------------------------------------
    # Fault injection (replica-level crash/heal; the node stays up)
    # ------------------------------------------------------------------
    def crash_replica(self, node_id):
        replica = self.replica_on(node_id)
        if replica is None or replica.down:
            return False
        replica.down = True
        replica.down_since = self.sim.now
        self.cluster.metrics.mark(
            "replica_crash:{}:{}".format(self.shard_id, node_id)
        )
        return True

    def heal_replica(self, node_id):
        replica = self.replica_on(node_id)
        if replica is None or not replica.down:
            return False
        replica.down = False
        replica.down_since = None
        self.cluster.metrics.mark(
            "replica_heal:{}:{}".format(self.shard_id, node_id)
        )
        self._kick()
        return True


class ReplicationManager:
    """Cluster-level registry of shard replication groups.

    Every method is a cheap no-op while no group exists, so unreplicated
    clusters keep a bit-identical timeline.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.groups = {}  # shard_id -> ShardReplicaGroup

    # -- queries -------------------------------------------------------
    def is_replicated(self, shard_id):
        return shard_id in self.groups

    def group_for(self, shard_id):
        return self.groups.get(shard_id)

    def epoch_of(self, shard_id):
        group = self.groups.get(shard_id)
        return group.epoch if group is not None else 0

    def leader_of(self, shard_id):
        group = self.groups.get(shard_id)
        return group.leader_node_id if group is not None else None

    def sorted_groups(self):
        return [self.groups[shard_id] for shard_id in sorted(self.groups)]

    # -- setup ---------------------------------------------------------
    def enable_replication(self, table, n_followers=2):
        """Wrap every shard of ``table`` in a replication group: the current
        owner leads; followers are chosen round-robin over the other nodes
        (deterministic in shard index)."""
        schema = self.cluster.tables[table]
        node_ids = self.cluster.node_ids()
        for shard_id in schema.shard_ids():
            if shard_id in self.groups:
                continue
            owner = self.cluster.shard_owner(shard_id)
            others = [n for n in node_ids if n != owner]
            members = [owner] + [
                others[(shard_id.index + i) % len(others)]
                for i in range(min(n_followers, len(others)))
            ]
            group = ShardReplicaGroup(self.cluster, shard_id, members)
            self.groups[shard_id] = group
            group.start()
        return [self.groups[s] for s in schema.shard_ids()]

    def stop(self):
        for group in self.sorted_groups():
            group.stop()

    # -- Session integration ------------------------------------------
    def on_route(self, txn, shard_id, owner):
        group = self.groups.get(shard_id)
        if group is None:
            return
        txn.shard_epochs[shard_id] = group.epoch
        group.check_access(owner)

    def after_local_prepare(self, txn, participant):
        """Generator: epoch-validate and quorum-replicate one participant's
        prepare for every replicated shard it wrote."""
        for shard_id in participant.wrote_shards:
            group = self.groups.get(shard_id)
            if group is None:
                continue
            group.validate_prepare(txn, participant)
            if group.leader_node_id == participant.node_id:
                yield from group.wait_quorum(
                    "prepare", participant.node_id, participant.xid
                )

    def after_local_commit(self, txn, participant, commit_ts):
        """Generator: quorum-replicate the commit; if the leader moved
        between prepare and commit, re-route the decision (exactly once)."""
        for shard_id in participant.wrote_shards:
            group = self.groups.get(shard_id)
            if group is None:
                continue
            prepared = group._entry_index.get(
                ("prepare", participant.node_id, participant.xid)
            )
            if prepared is None:
                # Never replicated at prepare time (e.g. a dual-execution
                # commit on the migration destination before it joins the
                # group): the rehome pump picks it up from the WAL later.
                continue
            while True:
                try:
                    if group.leader_node_id == participant.node_id:
                        yield from group.wait_quorum(
                            "commit", participant.node_id, participant.xid
                        )
                    else:
                        yield from group.commit_on_new_leader(
                            participant.node_id, participant.xid, commit_ts
                        )
                    break
                except StaleEpoch:
                    # Another election landed mid-wait: re-resolve the
                    # leader and re-deliver — the log-entry presence check
                    # keeps the commit exactly-once.
                    continue
