"""PostgreSQL-style MVCC storage engine for one simulated node.

This package implements the storage substrate the paper's protocols rely on:

- :mod:`repro.storage.tuples` — multi-versioned tuples with ``xmin``/``xmax``
  transaction ids, chained newest-first per primary key;
- :mod:`repro.storage.clog` — the commit log mapping each transaction id to
  its status (in-progress / **prepared** / committed / aborted) and commit
  timestamp, including the *prepare-wait* hook used for distributed SI;
- :mod:`repro.storage.wal` — a write-ahead log with typed records, LSNs and
  the shard-routed tailer that both update propagation (Remus' send
  process) and the replication pump run on;
- :mod:`repro.storage.heap` — versioned heap tables (one per shard) with a
  primary-key index and MVCC reads/writes;
- :mod:`repro.storage.snapshot` — snapshots, the one resolver of a
  version's writer against the CLOG, and visibility checking.
"""

from repro.storage.clog import Clog, TxnStatus
from repro.storage.heap import HeapTable
from repro.storage.snapshot import Snapshot
from repro.storage.tuples import TupleVersion
from repro.storage.wal import Wal, WalRecord, WalRecordKind, WalTailer

__all__ = [
    "Clog",
    "HeapTable",
    "Snapshot",
    "TupleVersion",
    "TxnStatus",
    "Wal",
    "WalRecord",
    "WalRecordKind",
    "WalTailer",
]
