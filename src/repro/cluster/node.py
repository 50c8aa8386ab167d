"""An elastic node: storage, transaction manager, shard map replica, vacuum."""

from repro.cluster.shardmap import (
    BOOTSTRAP_XID,
    RESERVED_MIN_TS,
    SHARDMAP_SHARD,
    ShardMapCache,
)
from repro.sim.resources import CpuResource
from repro.storage.clog import Clog
from repro.storage.heap import HeapTable
from repro.storage.wal import Wal
from repro.txn.manager import NodeTxnManager


class Node:
    """One PostgreSQL-based elastic node of the simulated cluster (§2.1)."""

    def __init__(self, sim, node_id, config, cluster=None):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.cluster = cluster
        self.cpu = CpuResource(
            sim, config.cpu_per_node, name=node_id, bin_width=config.cpu_bin_width
        )
        self.clog = Clog(sim, node_id=node_id)
        self.wal = Wal(sim, node_id=node_id)
        self._heaps = {}
        self.manager = NodeTxnManager(
            sim,
            node_id,
            self.clog,
            self.wal,
            self.cpu,
            config.costs,
            heap_for=self.heap_for,
        )
        self.shardmap_cache = ShardMapCache(node_id)
        # Bootstrap transaction: owns rows installed at table creation / bulk
        # load, committed at the reserved minimal timestamp.
        self.clog.begin(BOOTSTRAP_XID)
        self.clog.set_committed(BOOTSTRAP_XID, RESERVED_MIN_TS)
        # The shard map replica is a regular MVCC table on this node.
        self.heap_for(SHARDMAP_SHARD)
        self._vacuum_running = False
        # Fault tolerance: while failed, requests queue until a synchronized
        # replica takes over as the new primary (§3.7).
        self.failed = False
        self._recovered = None

    # ------------------------------------------------------------------
    # Failure / failover
    # ------------------------------------------------------------------
    def fail(self):
        """Mark the primary as failed; requests block until failover."""
        if self.failed:
            return
        self.failed = True
        self._recovered = self.sim.event(name="failover:{}".format(self.node_id))

    def recover(self):
        """A replica has taken over: resume processing.

        With synchronous replication the committed state (heap + CLOG + WAL)
        survives intact; transactions that were in flight on the old primary
        were aborted by the cluster's failure handler.
        """
        if not self.failed:
            return
        self.failed = False
        recovered, self._recovered = self._recovered, None
        recovered.succeed(None)

    def wait_available(self):
        """Generator: block while the node is failed over."""
        while self.failed:
            yield self._recovered

    # ------------------------------------------------------------------
    # Heaps
    # ------------------------------------------------------------------
    def heap_for(self, shard_id):
        """The heap table backing ``shard_id`` on this node (created lazily —
        migration destinations start with an empty heap)."""
        if shard_id not in self._heaps:
            self._heaps[shard_id] = HeapTable(self.sim, self.clog, shard_id=shard_id)
        return self._heaps[shard_id]

    def has_shard_data(self, shard_id):
        return shard_id in self._heaps and self._heaps[shard_id].key_count > 0

    def drop_shard(self, shard_id):
        """Remove a shard's local data (cleanup after migrating away)."""
        if shard_id in self._heaps:
            self._heaps[shard_id].clear()
            del self._heaps[shard_id]

    @property
    def shardmap_heap(self):
        return self._heaps[SHARDMAP_SHARD]

    @property
    def heaps(self):
        return dict(self._heaps)

    # ------------------------------------------------------------------
    # Bulk load fast path (no virtual time)
    # ------------------------------------------------------------------
    def bulk_install(self, shard_id, items):
        """Install committed rows at the reserved minimal timestamp.

        Used for initial data loading and for the streaming snapshot install
        on a migration destination (§3.2), where the copied tuples must be
        visible to any destination transaction starting after the snapshot.
        The bootstrap transaction is committed, so the rows are no vacuum
        candidates until something updates or deletes them.
        """
        heap = self.heap_for(shard_id)
        for key, value in items:
            heap.put_version(key, value, BOOTSTRAP_XID, committed=True)

    # ------------------------------------------------------------------
    # Vacuum
    # ------------------------------------------------------------------
    def start_vacuum(self):
        """Begin the periodic vacuum daemon for this node (idempotent)."""
        if self._vacuum_running:
            return
        self._vacuum_running = True
        self.sim.spawn(self._vacuum_loop(), name="vacuum:{}".format(self.node_id))

    def _vacuum_loop(self):
        while True:
            yield self.config.vacuum_interval
            if self.cluster is None:
                continue
            horizon = self.cluster.vacuum_horizon()
            for heap in list(self._heaps.values()):
                heap.vacuum(horizon)

    def __repr__(self):
        return "Node({!r})".format(self.node_id)
