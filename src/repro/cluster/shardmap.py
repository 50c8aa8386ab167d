"""The shard map table and its per-coordinator private cache (§3.5.1).

Every node keeps a full replica of the *shard map table* — a regular
multi-versioned table mapping each shard to its owning node. The ownership
handover transaction T_m updates this table on every node through normal MVCC
writes committed with 2PC, so a transaction's snapshot decides which side of
the migration it sees: start_ts >= T_m.commitTS routes to the destination,
anything older to the source. That is the *ordered diversion* barrier.

Coordinators normally route from a fast private cache. Because a stale cache
could route a post-T_m transaction to the source, Remus marks migrating
shards *cache-read-through* before T_m executes: while the mark is set,
routing for those shards goes through an MVCC read of the shard map table
(inheriting prepare-wait on T_m itself), and the cache entry is refreshed
when a newer committed version becomes visible.
"""

from repro.cluster.shard import ShardId
from repro.storage.snapshot import resolve_creator
from repro.storage.tuples import BOOTSTRAP_XID, RESERVED_MIN_TS  # noqa: F401 (re-exported)

# The shard map replica is addressed like a shard so that T_m can update it
# through the ordinary transaction manager on each node.
SHARDMAP_SHARD = ShardId("__shardmap__", 0)


class ShardMapCache:
    """Ordered private routing cache for one coordinator node (session
    routing reads ``entries`` and ``read_through`` in place)."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.entries = {}  # shard_id -> (owner_node_id, version_cts)
        self.read_through = set()
        self.read_through_lookups = 0

    def install(self, shard_id, owner, cts=RESERVED_MIN_TS):
        self.entries[shard_id] = (owner, cts)

    def lookup(self, shard_id):
        return self.entry(shard_id)[0]

    def entry(self, shard_id):
        """(owner, version_cts) — callers compare the cts against their
        snapshot to detect a cache entry newer than what they may see."""
        entry = self.entries.get(shard_id)
        if entry is None:
            raise KeyError("shard {!r} not in cache on {}".format(shard_id, self.node_id))
        return entry

    def maybe_update(self, shard_id, owner, cts):
        """Refresh the entry if ``cts`` is newer than the cached version."""
        current = self.entries.get(shard_id)
        if current is None or cts > current[1]:
            self.entries[shard_id] = (owner, cts)
            return True
        return False

    def is_read_through(self, shard_id):
        return shard_id in self.read_through

    def set_read_through(self, shard_ids):
        self.read_through.update(shard_ids)

    def clear_read_through(self, shard_ids):
        self.read_through.difference_update(shard_ids)


def read_shard_owner(shardmap_heap, clog, shard_id, snapshot):
    """Generator: MVCC read of the shard map row for ``shard_id``.

    Returns ``(owner_node_id, version_cts)`` for the version visible to
    ``snapshot``. Prepare-waits on an in-flight T_m, which is exactly the
    mechanism that keeps diversion ordered across nodes.
    """
    version, _traversed = yield from shardmap_heap.visible_version(shard_id, snapshot)
    if version is None:
        raise KeyError("shard {!r} missing from shard map".format(shard_id))
    cts = resolve_creator(version, clog)
    if cts is None:  # the reader's own uncommitted write
        cts = RESERVED_MIN_TS
    return version.value, cts
