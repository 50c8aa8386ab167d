"""The cluster facade: the library's main entry point.

A :class:`Cluster` wires together the simulator, network, timestamp oracle,
elastic nodes, table catalog, shard map replicas, transaction registry and
metrics. Migration protocols (in :mod:`repro.migration`) operate on a cluster
through the same public surface that workloads use, plus a small set of
protocol hooks (access hooks, the routing gate, cache read-through control).
"""

from repro.cluster.coordinator import Session
from repro.cluster.node import Node
from repro.cluster.replication import ReplicationManager
from repro.cluster.shard import HashPartitioner, ShardId, TableSchema
from repro.cluster.shardmap import BOOTSTRAP_XID
from repro.config import ClusterConfig
from repro.metrics.collector import MetricsCollector
from repro.sim.events import AllOf
from repro.sim.kernel import Simulator
from repro.sim.network import MIGRATION_CLASS, Network
from repro.sim.rpc import RetryPolicy, RpcStats, RpcTimeout, clean_send, reliable_send
from repro.sim.topology import LinkProfile, Topology
from repro.txn.errors import RpcAbort, TransactionError
from repro.txn.timestamps import DtsOracle, GtsOracle

CONTROL_PLANE = "control-plane"


class Cluster:
    """A shared-nothing distributed database over simulated elastic nodes."""

    def __init__(self, config=None, sim=None):
        self.config = config or ClusterConfig()
        self.sim = sim or Simulator(seed=self.config.seed)
        topology = self.config.topology
        if topology is None:
            # Degenerate one-rack topology from the flat network numbers:
            # the uncontended constant-delay model, byte-identical to the
            # pre-topology network.
            net = self.config.network
            topology = Topology.single(LinkProfile(net.base_latency, net.bandwidth))
        self.network = Network.from_topology(
            self.sim, topology, config=self.config.network
        )
        self.network.set_class_cap(MIGRATION_CLASS, self.config.pump_share)
        if self.config.timestamp_scheme == "gts":
            self.oracle = GtsOracle(self.sim, self.network, CONTROL_PLANE)
        elif self.config.timestamp_scheme == "dts":
            skews = self._node_skews()
            self.oracle = DtsOracle(self.sim, skew_by_node=skews)
        else:
            raise ValueError(
                "unknown timestamp scheme {!r}".format(self.config.timestamp_scheme)
            )
        self.nodes = {}
        for i in range(self.config.num_nodes):
            self.add_node("node-{}".format(i + 1))
        self.tables = {}
        self.shard_owners = {}  # authoritative owner map (mirrors shard map)
        self.metrics = MetricsCollector(self.sim)
        self.active_txns = {}
        self.routing_gate = None  # Event while wait-and-remaster blocks BEGINs
        self.cc_mode = "mvcc"  # or "shard_lock" (the Squall port, §4.2)
        self._access_hooks = {}  # shard_id -> [hook]
        self._quiesce_waiters = []
        self._vacuum_holds = []
        self.replication = ReplicationManager(self)
        self.rpc_stats = RpcStats()
        self.rpc_policy = RetryPolicy(
            timeout=self.config.rpc_timeout,
            max_attempts=self.config.rpc_max_attempts,
            backoff_base=self.config.rpc_backoff_base,
            backoff_cap=self.config.rpc_backoff_cap,
        )
        self.rpc_commit_policy = RetryPolicy(
            timeout=self.config.rpc_timeout,
            max_attempts=0,
            backoff_base=self.config.rpc_backoff_base,
            backoff_cap=self.config.rpc_backoff_cap,
            persistent=True,
        )

    def rpc_send(self, src, dst, size=0, persistent=False, traffic_class=None):
        """Generator: one cross-node protocol hop with timeout + retry.

        Bounded hops raise :class:`~repro.txn.errors.RpcAbort` (a
        ``TransactionError``, so ordinary abort/retry handling applies) once
        the retry budget is exhausted; ``persistent`` hops — 2PC decision
        delivery — retransmit with capped backoff until the link heals.
        ``traffic_class`` tags the send for contended-link fair-share
        accounting (migration bulk traffic passes
        :data:`~repro.sim.network.MIGRATION_CLASS` so ``pump_share`` caps
        it).
        """
        arrived = clean_send(self.network, src, dst, size, traffic_class)
        if arrived is not None:
            # Clean link: this generator is the hop's only frame.
            yield arrived
            return
        policy = self.rpc_commit_policy if persistent else self.rpc_policy
        try:
            yield from reliable_send(
                self.network, src, dst, size, policy=policy,
                stats=self.rpc_stats, traffic_class=traffic_class,
            )
        except RpcTimeout as exc:
            raise RpcAbort(str(exc)) from exc

    def rpc_broadcast(self, src, size=0, persistent=False):
        """Generator: reliably deliver a message to every *other* node.

        A plain :meth:`Network.broadcast` is an ``AllOf`` over raw sends, so a
        single partitioned link wedges the waiter forever. This fans out one
        :meth:`rpc_send` per destination instead; a bounded broadcast raises
        :class:`~repro.txn.errors.RpcAbort` if any leg exhausts its budget.
        """

        def leg(dst):
            # Workers run detached: hold a failure as a value so it surfaces
            # through the parent instead of sim.failed_processes.
            try:
                yield from self.rpc_send(src, dst, size, persistent=persistent)
            except RpcAbort as exc:
                return exc
            return None

        procs = [
            self.sim.spawn(leg(dst), name="bcast:{}->{}".format(src, dst))
            for dst in self.node_ids()
            if dst != src
        ]
        if not procs:
            return
        results = yield AllOf(procs)
        for result in results:
            if isinstance(result, RpcAbort):
                raise result

    def _node_skews(self):
        rng = self.sim.rng("clock-skew")
        skews = {}
        for i in range(self.config.num_nodes):
            bound = self.config.clock_skew
            skews["node-{}".format(i + 1)] = rng.uniform(-bound, bound) if bound else 0.0
        return skews

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node_id):
        """Add an elastic node (used by scale-out before migrating to it).

        The new node receives a full replica of the shard map table so it
        can route queries and participate in T_m transactions immediately.
        """
        if node_id in self.nodes:
            raise ValueError("duplicate node {!r}".format(node_id))
        node = Node(self.sim, node_id, self.config, cluster=self)
        self.nodes[node_id] = node
        if hasattr(self, "shard_owners"):
            for shard_id, owner in self.shard_owners.items():
                node.shardmap_heap.put_version(
                    shard_id, owner, BOOTSTRAP_XID, committed=True
                )
                node.shardmap_cache.install(shard_id, owner)
        return node

    def node_ids(self):
        return list(self.nodes.keys())

    def session(self, node_id):
        """Open a client session coordinated by ``node_id``."""
        return Session(self, node_id)

    def start_vacuum_daemons(self):
        sim = self.sim
        for node_id, node in self.nodes.items():
            if sim.partitioned:
                # Home each vacuum daemon on its node's partition so its
                # heap scans stay inside that partition's event window.
                with sim.partition_scope(sim.node_partition(node_id)):
                    node.start_vacuum()
            else:
                node.start_vacuum()

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(
        self,
        name,
        num_shards=None,
        partitioner=None,
        tuple_size=1024,
        collocation_group=None,
        placement=None,
    ):
        """Create a sharded table and install its shard map rows everywhere.

        ``placement`` maps shard index -> node id; the default spreads shards
        round-robin across nodes (collocated tables reuse their group's
        placement so that shard i of each table lands on the same node).
        """
        if name in self.tables:
            raise ValueError("table {!r} exists".format(name))
        if partitioner is None:
            if num_shards is None:
                raise ValueError("need num_shards or partitioner")
            partitioner = HashPartitioner(num_shards)
        schema = TableSchema(
            name,
            partitioner,
            tuple_size=tuple_size,
            collocation_group=collocation_group,
        )
        self.tables[name] = schema
        node_ids = self.node_ids()
        if placement is None:
            placement = {
                i: node_ids[i % len(node_ids)] for i in range(schema.num_shards)
            }
        for index in range(schema.num_shards):
            shard_id = ShardId(name, index)
            owner = placement[index]
            self.shard_owners[shard_id] = owner
            self.nodes[owner].heap_for(shard_id)
            self._install_shardmap_row(shard_id, owner)
        return schema

    def _install_shardmap_row(self, shard_id, owner):
        for node in self.nodes.values():
            node.shardmap_heap.put_version(
                shard_id, owner, BOOTSTRAP_XID, committed=True
            )
            node.shardmap_cache.install(shard_id, owner)

    def bulk_load(self, table, items):
        """Load committed rows without consuming virtual time."""
        schema = self.tables[table]
        by_shard = {}
        for key, value in items:
            by_shard.setdefault(schema.shard_for_key(key), []).append((key, value))
        for shard_id, rows in by_shard.items():
            owner = self.shard_owners[shard_id]
            self.nodes[owner].bulk_install(shard_id, rows)

    def enable_replication(self, table, n_followers=2):
        """Wrap every shard of ``table`` in a leader+followers replication
        group (call after :meth:`bulk_load`; the followers are seeded from
        the leader's committed state)."""
        return self.replication.enable_replication(table, n_followers)

    def shard_owner(self, shard_id):
        return self.shard_owners[shard_id]

    def shards_on_node(self, node_id, table=None):
        return [
            shard_id
            for shard_id, owner in sorted(self.shard_owners.items())
            if owner == node_id and (table is None or shard_id.table == table)
        ]

    def collocated_shards(self, shard_id):
        """Shards of other tables in the same collocation group and index."""
        group = self.tables[shard_id.table].collocation_group
        result = []
        for schema in self.tables.values():
            if schema.collocation_group == group and shard_id.index < schema.num_shards:
                result.append(ShardId(schema.name, shard_id.index))
        return result

    # ------------------------------------------------------------------
    # Transaction registry
    # ------------------------------------------------------------------
    def register_txn(self, txn):
        self.active_txns[txn.tid] = txn

    def finish_txn(self, txn, committed, reason=None):
        self.active_txns.pop(txn.tid, None)
        latency = (
            self.sim.now - txn.begin_time if txn.begin_time is not None else 0.0
        )
        if not txn.is_shadow:
            if committed:
                self.metrics.record_commit(txn.label, latency, weight=max(1, txn.op_count))
            else:
                kind = reason.kind if isinstance(reason, TransactionError) else "error"
                self.metrics.record_abort(txn.label, kind)
        self._check_quiesce()

    def snapshot_active_txns(self):
        return list(self.active_txns.values())

    def wait_for_txns(self, tids):
        """Event that fires once every transaction in ``tids`` has finished."""
        event = self.sim.event(name="wait-txns")
        pending = {tid for tid in tids if tid in self.active_txns}
        if not pending:
            event.succeed(None)
            return event
        self._quiesce_waiters.append((pending, event))
        return event

    def _check_quiesce(self):
        done = []
        for pending, event in self._quiesce_waiters:
            pending.intersection_update(self.active_txns.keys())
            if not pending:
                done.append((pending, event))
        for entry in done:
            self._quiesce_waiters.remove(entry)
            entry[1].succeed(None)

    # ------------------------------------------------------------------
    # Routing gate (wait-and-remaster)
    # ------------------------------------------------------------------
    def close_routing_gate(self):
        if self.routing_gate is None:
            self.routing_gate = self.sim.event(name="routing-gate")

    def open_routing_gate(self):
        if self.routing_gate is not None:
            gate, self.routing_gate = self.routing_gate, None
            gate.succeed(None)

    # ------------------------------------------------------------------
    # Access hooks (migration protocols intercept shard access)
    # ------------------------------------------------------------------
    def add_access_hook(self, shard_id, hook):
        self._access_hooks.setdefault(shard_id, []).append(hook)

    def remove_access_hook(self, shard_id, hook):
        hooks = self._access_hooks.get(shard_id)
        if hooks and hook in hooks:
            hooks.remove(hook)
            if not hooks:
                del self._access_hooks[shard_id]

    def run_access_hooks(self, txn, shard_id, owner, key, is_write):
        hooks = self._access_hooks.get(shard_id)
        if not hooks:
            return
        for hook in list(hooks):
            yield from hook.before_access(txn, shard_id, owner, key, is_write)

    # ------------------------------------------------------------------
    # Shard map maintenance (used by migrations)
    # ------------------------------------------------------------------
    def set_cache_read_through(self, shard_ids):
        for node in self.nodes.values():
            node.shardmap_cache.set_read_through(shard_ids)

    def clear_cache_read_through(self, shard_ids):
        for node in self.nodes.values():
            node.shardmap_cache.clear_read_through(shard_ids)

    def refresh_caches(self, shard_id, owner, cts):
        for node in self.nodes.values():
            node.shardmap_cache.maybe_update(shard_id, owner, cts)

    def record_ownership(self, shard_id, owner):
        self.shard_owners[shard_id] = owner

    # ------------------------------------------------------------------
    # Fault injection / failover (§3.7)
    # ------------------------------------------------------------------
    def fail_node(self, node_id, failover_time=0.5):
        """Crash ``node_id``'s primary and promote a replica after
        ``failover_time``.

        With synchronous replication the committed state survives on the
        replica; transactions that were *executing* on the failed primary
        lose their in-memory state and are aborted. Prepared 2PC
        participants survive in the replicated WAL, so distributed
        transactions already past their prepare complete normally once the
        new primary is up (standard 2PC recovery).
        """
        node = self.nodes[node_id]
        node.fail()
        self.metrics.mark("node_failed:{}".format(node_id))
        from repro.txn.errors import MigrationAbort
        from repro.txn.transaction import TxnState

        for txn in self.snapshot_active_txns():
            participant = txn.participant(node_id)
            involved = participant is not None or txn.coordinator_node == node_id
            if not involved or txn.is_shadow:
                continue
            if txn.state is TxnState.ACTIVE:
                exc = MigrationAbort(
                    "node {} failed during execution".format(node_id), txn_id=txn.tid
                )
                txn.doom(exc)
                if txn.process is not None:
                    txn.process.interrupt(exc)

        def promote():
            yield failover_time
            node.recover()
            self.metrics.mark("node_recovered:{}".format(node_id))

        return self.spawn(promote(), name="failover:{}".format(node_id))

    # ------------------------------------------------------------------
    # Vacuum horizon
    # ------------------------------------------------------------------
    def add_vacuum_hold(self, ts):
        """Pin the vacuum horizon at ``ts`` (long snapshots, migrations)."""
        self._vacuum_holds.append(ts)

    def remove_vacuum_hold(self, ts):
        """Release a vacuum hold. Idempotent: crash/recovery paths may race
        a migration's own cleanup and release the same hold twice."""
        try:
            self._vacuum_holds.remove(ts)
        except ValueError:
            pass

    def vacuum_horizon(self):
        candidates = [t.start_ts for t in self.active_txns.values()]
        candidates.extend(self._vacuum_holds)
        if candidates:
            return min(candidates)
        return self.oracle.safe_horizon()

    # ------------------------------------------------------------------
    # Verification helpers (tests / consistency checking)
    # ------------------------------------------------------------------
    def dump_table(self, table, shards=None):
        """Latest-committed view of a table as {key: value} (test helper).

        ``shards`` restricts the dump to those shard ids — a parallel-drain
        worker dumps only the shards whose owner it simulated, so the union
        across workers reassembles the full table exactly once.
        """
        schema = self.tables[table]
        result = {}
        wanted = None if shards is None else set(shards)
        for shard_id in schema.shard_ids():
            if wanted is not None and shard_id not in wanted:
                continue
            owner = self.shard_owners[shard_id]
            node = self.nodes[owner]
            heap = node.heap_for(shard_id)
            for key in list(heap.keys()):
                version = heap.latest_committed_or_locked(key)
                if version is None:
                    continue
                if node.clog.status(version.xmin).value != "committed":
                    continue
                if version.xmax is not None and node.clog.status(version.xmax).value == "committed":
                    continue
                result[key] = version.value
        return result

    def run(self, until=None):
        return self.sim.run(until=until)

    def spawn(self, generator, name=""):
        return self.sim.spawn(generator, name=name)
