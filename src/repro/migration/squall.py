"""The PolarDB-Squall port: pull-based live reconfiguration (§2.3.2, §4.2).

Squall [23] flips ownership at the start of the migration and then moves the
data in ~8 MB *chunks*: reactively when a transaction on the destination
touches a missing chunk, and in the background otherwise. A migration-status
tracking table records each chunk's location. Because Squall's consistency
story relies on H-store partition locks, the PolarDB port runs with
shard-lock concurrency control (``cluster.cc_mode == "shard_lock"``): every
transaction takes shared/exclusive shard locks for its duration, and each
chunk pull takes the source shard's lock exclusively while it copies.

Consequences reproduced from the paper:

- transactions still running on the source abort when they touch an
  already-migrated chunk (the 13 % batch aborts of Table 2);
- a long batch transaction holding shard locks blocks pulls *and* all other
  transactions on those shards (YCSB throughput ~0 during the batch);
- every reactive pull blocks the waiting transactions for the chunk transfer
  time (the post-batch fluctuation in Figures 6c/7c).
"""

from repro.cluster.hashing import consistent_hash
from repro.config import PULL_CHUNK_LATENCY
from repro.migration.base import BaseMigration
from repro.sim.errors import Interrupt
from repro.sim.events import AllOf
from repro.sim.network import MIGRATION_CLASS
from repro.storage.snapshot import is_committed, resolve_deleter
from repro.txn.errors import MigrationAbort

DEFAULT_CHUNK_BYTES = 8 << 20  # 8 MB, as suggested in the Squall paper


class _ChunkTracker:
    """Migration-status tracking table for one shard's chunks."""

    def __init__(self, shard_id, hash_range, num_chunks):
        self.shard_id = shard_id
        self.hash_range = hash_range
        self.num_chunks = max(1, num_chunks)
        self.state = ["source"] * self.num_chunks  # "source"|"pulling"|"done"
        self.events = [None] * self.num_chunks

    def chunk_of(self, key):
        offset = consistent_hash(key) - self.hash_range.lo
        index = offset * self.num_chunks // self.hash_range.width
        return min(max(index, 0), self.num_chunks - 1)

    def pending_chunks(self):
        return [i for i, s in enumerate(self.state) if s == "source"]

    @property
    def all_done(self):
        return all(s == "done" for s in self.state)


class SquallMigration(BaseMigration):
    name = "squall"

    def __init__(
        self, cluster, shard_ids, source, dest, chunk_bytes=DEFAULT_CHUNK_BYTES, **kwargs
    ):
        super().__init__(cluster, shard_ids, source, dest, **kwargs)
        if cluster.cc_mode != "shard_lock":
            raise ValueError(
                "the Squall port requires shard-lock concurrency control "
                "(set cluster.cc_mode = 'shard_lock' before the workload starts)"
            )
        self.chunk_bytes = chunk_bytes
        self.trackers = {}
        for shard_id in self.shard_ids:
            schema = cluster.tables[shard_id.table]
            hash_range = schema.partitioner.range_for(shard_id.index)
            if hash_range is None:
                raise NotImplementedError(
                    "the Squall port does not support multi-key range "
                    "partitioning (§4.6: not shown in the TPC-C scale-out)"
                )
            shard_bytes = (
                cluster.nodes[source].heap_for(shard_id).key_count * schema.tuple_size
            )
            num_chunks = max(1, round(shard_bytes / chunk_bytes))
            self.trackers[shard_id] = _ChunkTracker(shard_id, hash_range, num_chunks)

    # ------------------------------------------------------------------
    def run(self):
        if (yield from self.remaster_prepositioned()):
            yield from self._reconfigure_and_pull()
        # The reconfiguration is done once every chunk has been pulled; the
        # straggler handling (pre-flip transactions aborting on touch) and
        # hook removal run detached, so consecutive migrations proceed back
        # to back — Squall's consolidation completes much faster than the
        # push approaches', as in the paper (§4.4.2).
        self.sim.spawn(self.detached_cleanup(), name="squall-cleanup")

    def _reconfigure_and_pull(self):
        stats = self.stats
        stats.phase_start(self.sim, "reconfig")
        # The tracking-table hook must be live *before* ownership flips: the
        # first destination-routed transaction triggers a reactive pull.
        # Pre-flip the hook is a no-op (owner == source, all chunks there).
        self.install_access_hook(self)
        # Ownership flips immediately; missing data is pulled on demand.
        yield from self.transfer_ownership(label="squall_reconfig")
        stats.phase_end(self.sim, "reconfig")

        stats.phase_start(self.sim, "pulls")
        # One asynchronous background worker per migrating shard (§4.2).
        self.copy_tasks.extend(
            self.sim.spawn(self._background_puller(shard_id), name="squall-bg")
            for shard_id in self.shard_ids
        )
        yield AllOf(self.copy_tasks)
        stats.phase_end(self.sim, "pulls")

    def _background_puller(self, shard_id):
        tracker = self.trackers[shard_id]
        try:
            while not tracker.all_done:
                pending = tracker.pending_chunks()
                if not pending:
                    # Chunks still in "pulling" state: wait for the earliest.
                    for i, state in enumerate(tracker.state):
                        if state == "pulling":
                            yield tracker.events[i]
                            break
                    continue
                yield from self._pull_chunk(shard_id, pending[0])
        except Interrupt:
            return  # crash teardown: recovery moves what is left (§3.7)

    # ------------------------------------------------------------------
    # Access hook: reactive pulls and source-side aborts
    # ------------------------------------------------------------------
    def before_access(self, txn, shard_id, owner, key, is_write):
        if txn.is_shadow or txn.label.startswith("__"):
            return
        tracker = self.trackers[shard_id]
        if key is None:
            # Full-shard scan: the destination needs every chunk; a source
            # scan aborts if anything already moved.
            if owner == self.dest:
                for chunk in range(tracker.num_chunks):
                    if tracker.state[chunk] != "done":
                        yield from self._pull_chunk(shard_id, chunk)
                return
            if not all(s == "source" for s in tracker.state):
                self.stats.txns_aborted_by_migration += 1
                raise MigrationAbort(
                    "shard {!r} partially migrated".format(shard_id), txn_id=txn.tid
                )
            return
        chunk = tracker.chunk_of(key)
        if owner == self.dest:
            if tracker.state[chunk] != "done":
                yield from self._pull_chunk(shard_id, chunk)
            return
        # A transaction still running against the source: its chunk may
        # already have left the building.
        if tracker.state[chunk] != "source":
            self.stats.txns_aborted_by_migration += 1
            raise MigrationAbort(
                "chunk {} of {!r} already migrated".format(chunk, shard_id),
                txn_id=txn.tid,
            )

    # ------------------------------------------------------------------
    def _pull_chunk(self, shard_id, chunk):
        """Generator: move one chunk source -> dest under the source shard
        lock (the paper's partition-lock-per-pull)."""
        tracker = self.trackers[shard_id]
        if tracker.state[chunk] == "done":
            return
        if tracker.state[chunk] == "pulling":
            yield tracker.events[chunk]
            return
        tracker.state[chunk] = "pulling"
        done = self.sim.event(name="pull:{}:{}".format(shard_id, chunk))
        tracker.events[chunk] = done

        locks = self.source_node.manager.shard_locks
        lock_owner = ("squall-pull", shard_id, chunk)
        request = locks.acquire(shard_id, lock_owner, locks.EXCLUSIVE)
        try:
            yield request
            heap = self.source_node.heap_for(shard_id)
            moved = []
            # The chunk filter only reads; versions are removed in a second
            # loop below, so the index's live list is safe to walk here. Key
            # order does not reach the timeline (one summed-size send, no
            # yield per key) — the equivalence suite pins that.
            for key in heap.sorted_keys():
                if tracker.chunk_of(key) != chunk:
                    continue
                version = heap.latest_committed_or_locked(key)
                if version is None:
                    continue
                if version.xmax is not None and is_committed(
                    resolve_deleter(version, heap.clog)
                ):
                    continue  # deleted row
                moved.append((key, version.value))
            # Chunk transfer: storage I/O plus the wire.
            yield PULL_CHUNK_LATENCY
            size = sum(
                self.cluster.tables[shard_id.table].tuple_size for _ in moved
            )
            yield from self.cluster.rpc_send(
                self.source, self.dest, size, traffic_class=MIGRATION_CLASS
            )
            self.dest_node.bulk_install(shard_id, moved)
            # A replicated shard's rows stay: the source remains in the
            # group as a follower (BaseMigration.finish keeps its copy).
            if not self.cluster.replication.is_replicated(shard_id):
                for key, _value in moved:
                    for version in heap.chain(key):
                        heap.remove_version(version)
            self.stats.chunks_pulled += 1
            self.stats.tuples_copied += len(moved)
            self.stats.bytes_copied += size
            tracker.state[chunk] = "done"
        finally:
            # A crash teardown may interrupt the pull while it queues for
            # the lock: withdraw the request instead of leaking the grant.
            if request.triggered:
                locks.release(shard_id, lock_owner)
            else:
                locks.cancel_wait(shard_id, lock_owner)
            done.succeed(None)
