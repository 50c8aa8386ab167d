"""Shard identities, table schemas and partitioners.

Each user table is sharded across nodes (§2.1): YCSB-style tables use
consistent hashing, while TPC-C tables partition by warehouse id so that all
of a warehouse's shards (one per table) collocate on the same node (§4.3).
The collocation group lets migrations move collocated shards together (§3.8).
"""

from repro.cluster.hashing import (
    consistent_hash,
    shard_index_for_hash,
    split_hash_space,
)


class ShardId(tuple):
    """Identity of one shard: ``(table_name, shard_index)``. Hash/sortable."""

    __slots__ = ()

    def __new__(cls, table, index):
        return tuple.__new__(cls, (table, index))

    @property
    def table(self):
        return self[0]

    @property
    def index(self):
        return self[1]

    def __repr__(self):
        return "ShardId({!r}, {})".format(self[0], self[1])


class HashPartitioner:
    """Consistent-hash partitioning: key -> shard index via ring ranges."""

    kind = "hash"

    def __init__(self, num_shards):
        self.num_shards = num_shards
        self.ranges = split_hash_space(num_shards)

    def shard_index(self, key):
        if self.num_shards == 1:
            return 0  # the only range covers the whole ring: no need to hash
        return shard_index_for_hash(consistent_hash(key), self.num_shards)

    def range_for(self, index):
        return self.ranges[index]


class ValuePartitioner:
    """Explicit partitioning by a function of the key (e.g. warehouse id)."""

    kind = "value"

    def __init__(self, num_shards, index_fn):
        self.num_shards = num_shards
        self._index_fn = index_fn

    def shard_index(self, key):
        index = self._index_fn(key)
        if not 0 <= index < self.num_shards:
            raise ValueError(
                "partitioner mapped {!r} to shard {} of {}".format(
                    key, index, self.num_shards
                )
            )
        return index

    def range_for(self, index):
        return None  # value-partitioned tables have no hash ranges


class TableSchema:
    """Metadata for one sharded user table."""

    def __init__(self, name, partitioner, tuple_size=1024, collocation_group=None):
        self.name = name
        self.partitioner = partitioner
        self.tuple_size = tuple_size
        # Tables in the same collocation group share a partitioner shape so
        # that shard i of every table lives on the same node.
        self.collocation_group = collocation_group or name
        # One ShardId per shard, built once: every statement routes through
        # shard_for_key, and identities are immutable.
        self._shard_ids = tuple(ShardId(name, i) for i in range(partitioner.num_shards))

    @property
    def num_shards(self):
        return self.partitioner.num_shards

    def shard_for_key(self, key):
        return self._shard_ids[self.partitioner.shard_index(key)]

    def shard_ids(self):
        return list(self._shard_ids)

    def __repr__(self):
        return "TableSchema({!r}, shards={})".format(self.name, self.num_shards)
