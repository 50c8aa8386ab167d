"""Transaction records.

A :class:`Transaction` is coordinated by one node and may have participant
state on several nodes (shared-nothing execution). Each participant gets its
own node-local ``xid`` — mirroring PostgreSQL, where a distributed transaction
is a set of local transactions stitched together by 2PC — while the snapshot
(start timestamp) is global.
"""

from __future__ import annotations

import enum

from repro.profiling.counters import COUNTERS
from repro.sim.ordered import OrderedSet
from repro.storage.snapshot import Snapshot


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Participant:
    """Per-node transaction state."""

    __slots__ = (
        "node_id",
        "xid",
        "wrote_shards",
        "row_locks",
        "shard_locks",
        "writes",
        "prepare_lsn",
    )

    def __init__(self, node_id: str, xid: int) -> None:
        self.node_id = node_id
        self.xid = xid
        # Insertion-ordered so that release/validation loops over them are
        # deterministic across processes (simlint SIM003).
        self.wrote_shards = OrderedSet()
        self.row_locks = OrderedSet()  # (shard_id, key) pairs currently held
        self.shard_locks = OrderedSet()
        self.writes = 0
        self.prepare_lsn = None  # LSN of this participant's PREPARE record


class Transaction:
    """One (possibly distributed) transaction under snapshot isolation."""

    _next_tid = 0

    @classmethod
    def allocate_tid(cls) -> int:
        cls._next_tid += 1
        return cls._next_tid

    def __init__(
        self, tid: int, coordinator_node: str, start_ts: int, label: str = ""
    ) -> None:
        self.tid = tid
        self.coordinator_node = coordinator_node
        self.start_ts = start_ts
        self.label = label
        self.state = TxnState.ACTIVE
        self.commit_ts: int | None = None
        self.participants: dict[str, Participant] = {}
        self.process = None  # owning sim Process; migrations interrupt it
        self.doomed = None  # exception to raise at the next operation
        self.begin_time = None
        self.is_shadow = False
        self.source_tid = None  # for shadow txns: the source transaction
        self.op_count = 0
        # shard_id -> replication-group epoch observed at routing time;
        # participants reject prepares routed under a superseded epoch.
        self.shard_epochs: dict = {}
        # node_id -> Snapshot, reused across operations on that node until
        # the participant set changes (the only input besides the immutable
        # start_ts). Key None caches the xid-free routing snapshot.
        self._snapshots: dict = {}

    # ------------------------------------------------------------------
    def snapshot_for(self, node_id: str) -> Snapshot:
        """MVCC snapshot for reads executed on ``node_id``.

        Snapshots are immutable value objects, so one per (txn, node) is
        shared across every read/scan the transaction runs there;
        :meth:`add_participant` invalidates the entry because it changes
        the ``xid`` the snapshot must carry for own-write visibility.
        """
        snapshot = self._snapshots.get(node_id)
        if snapshot is not None:
            COUNTERS.snapshot_cache_hits += 1
            return snapshot
        COUNTERS.snapshot_cache_misses += 1
        participant = self.participants.get(node_id)
        xid = participant.xid if participant else None
        snapshot = self._snapshots[node_id] = Snapshot(self.start_ts, xid=xid)
        return snapshot

    def plain_snapshot(self) -> Snapshot:
        """The xid-free snapshot at ``start_ts`` (routing / shard-map reads).

        Never invalidated: it depends only on the immutable start_ts.
        """
        snapshot = self._snapshots.get(None)
        if snapshot is not None:
            COUNTERS.snapshot_cache_hits += 1
            return snapshot
        COUNTERS.snapshot_cache_misses += 1
        snapshot = self._snapshots[None] = Snapshot(self.start_ts)
        return snapshot

    def participant(self, node_id: str) -> Participant | None:
        return self.participants.get(node_id)

    def add_participant(self, node_id: str, xid: int) -> Participant:
        participant = Participant(node_id, xid)
        self.participants[node_id] = participant
        self._snapshots.pop(node_id, None)
        return participant

    @property
    def participant_nodes(self) -> list[str]:
        return list(self.participants.keys())

    @property
    def is_distributed(self) -> bool:
        return len(self.participants) > 1

    @property
    def wrote_anything(self) -> bool:
        return any(p.writes for p in self.participants.values())

    def wrote_shards(self) -> OrderedSet:
        shards = OrderedSet()
        for participant in self.participants.values():
            shards |= participant.wrote_shards
        return shards

    @property
    def finished(self) -> bool:
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)

    def doom(self, exc: BaseException) -> None:
        """Mark the transaction for abort at its next safe point."""
        if self.doomed is None and not self.finished:
            self.doomed = exc

    def check_doomed(self) -> None:
        if self.doomed is not None:
            exc, self.doomed = self.doomed, None
            raise exc

    def __repr__(self):
        return "Transaction(tid={}, state={}, start_ts={}, label={!r})".format(
            self.tid, self.state.value, self.start_ts, self.label
        )
