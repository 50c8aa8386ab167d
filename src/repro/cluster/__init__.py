"""The shared-nothing distributed database (simulated PolarDB-PG).

- :mod:`repro.cluster.hashing` — consistent hashing of keys to shards and
  chunk subdivision (used by the Squall port's 8 MB pulls);
- :mod:`repro.cluster.shard` — shard ids, table schemas, partitioners
  (hash-based for YCSB, value-based for TPC-C's warehouse collocation);
- :mod:`repro.cluster.shardmap` — the multi-versioned shard map table and the
  per-coordinator ordered private cache with the cache-read-through state
  that ordered diversion relies on (§3.5.1);
- :mod:`repro.cluster.node` — an elastic node: CPU, CLOG, WAL, heaps, lock
  tables, transaction manager, shard map replica, vacuum;
- :mod:`repro.cluster.coordinator` — client sessions: routing, distributed
  execution, 2PC commit;
- :mod:`repro.cluster.cluster` — the public facade tying it all together.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.coordinator import Session
from repro.cluster.hashing import HashRange, consistent_hash, split_hash_space
from repro.cluster.node import Node
from repro.cluster.shard import HashPartitioner, ShardId, TableSchema, ValuePartitioner

__all__ = [
    "Cluster",
    "HashPartitioner",
    "HashRange",
    "Node",
    "Session",
    "ShardId",
    "TableSchema",
    "ValuePartitioner",
    "consistent_hash",
    "split_hash_space",
]
