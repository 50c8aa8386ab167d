"""Transaction layer: snapshot isolation, locking, timestamps, 2PC state.

- :mod:`repro.txn.errors` — the abort taxonomy (WW serialization failures,
  migration-induced aborts, unique violations);
- :mod:`repro.txn.timestamps` — the two timestamp ordering schemes from the
  paper: centralized **GTS** (a sequencer on the control plane) and
  decentralized **DTS** (per-node Hybrid Logical Clocks);
- :mod:`repro.txn.locks` — FIFO row locks and shared/exclusive shard locks
  (the latter used by the Squall port and lock-and-abort);
- :mod:`repro.txn.transaction` — the transaction record: snapshot, per-node
  participants, undo log, held locks, lifecycle state;
- :mod:`repro.txn.manager` — the per-node transaction manager executing MVCC
  reads/writes under SI with first-updater-wins, plus the local halves of
  2PC (prepare / commit / abort) with WAL flushes and the one prepare gate
  that Remus's MOCC sync barrier plugs into.
"""

from repro.txn.errors import (
    MigrationAbort,
    SerializationFailure,
    TransactionError,
    UniqueViolation,
)
from repro.txn.locks import RowLockTable, SharedExclusiveLockTable
from repro.txn.manager import NodeTxnManager
from repro.txn.timestamps import DtsOracle, GtsOracle, HybridLogicalClock
from repro.txn.transaction import Transaction, TxnState

__all__ = [
    "DtsOracle",
    "GtsOracle",
    "HybridLogicalClock",
    "MigrationAbort",
    "NodeTxnManager",
    "RowLockTable",
    "SerializationFailure",
    "SharedExclusiveLockTable",
    "Transaction",
    "TransactionError",
    "TxnState",
    "UniqueViolation",
]
