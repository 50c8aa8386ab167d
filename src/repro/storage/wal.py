"""Write-ahead log with typed records, LSNs and a routed tailer.

Remus tracks incremental changes by traversing WAL records (§3.3). The
propagation (send) process tails this log with a :class:`WalTailer`: it
builds an update-cache queue per transaction and ships a transaction's
changes when its commit record is encountered; a replication group's leader
pump is the same tailer feeding a group log. The record kinds below cover
everything the protocols need: row changes, 2PC prepare ("validation
records"), plain commit/abort and the resolution records for prepared
transactions.

Recycling: the log keeps its records from a base LSN up, and every LSN stays
absolute, so cursors, watermarks and :attr:`Wal.tail_lsn` never shift. The
node's vacuum pass calls :meth:`Wal.recycle`, which drops the records no
reader can reach any more, as PostgreSQL recycles segments behind each
replication slot's ``restart_lsn``. The floor is the lowest of the first
change of the node's oldest active transaction (where a propagation started
now would begin), every live tailer's ``handled_lsn`` and every
:meth:`Wal.hold` (a migration holding its destination's WAL for the
replicated shards' post-handover pump). :meth:`Wal.record` raises on a
recycled LSN rather than return another record.

Group commit: concurrent committers on one node whose flushes would
complete at the same instant share a single flush completion event through
:class:`FlushCoalescer` (PostgreSQL's commit_delay-free group commit — the
batch forms naturally from same-tick committers). The first flush keeps its
own timer; subsequent same-completion-time flushes wait on one shared event
closed by a single timer, so a storm of N committers costs 2 kernel events
instead of N.
"""

import enum
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.profiling.counters import COUNTERS
from repro.sim.errors import Interrupt
from repro.sim.events import Event


class WalRecordKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    LOCK = "lock"  # explicit row-level lock (SELECT ... FOR UPDATE)
    PREPARE = "prepare"  # 2PC prepare / MOCC validation record
    COMMIT = "commit"
    ABORT = "abort"
    COMMIT_PREPARED = "commit_prepared"
    ROLLBACK_PREPARED = "rollback_prepared"

    @property
    def is_change(self):
        return self in (
            WalRecordKind.INSERT,
            WalRecordKind.UPDATE,
            WalRecordKind.DELETE,
            WalRecordKind.LOCK,
        )


@dataclass(slots=True)
class WalRecord:
    """One WAL entry. ``lsn`` is assigned by :meth:`Wal.append`."""

    kind: WalRecordKind
    xid: int
    shard_id: object = None
    key: object = None
    value: object = None
    size: int = 0
    commit_ts: int = None
    start_ts: int = None
    lsn: int = field(default=None, compare=False)


class FlushCoalescer:
    """Coalesces same-completion-time WAL flush waits on one node.

    Protocol (chosen so the simulated timeline is *byte-identical* to every
    committer paying its own timer):

    - the **leader** (first flush targeting a completion time) returns
      ``None`` and does a plain ``yield delay`` — the exact event the
      unbatched path would create;
    - the **first joiner** allocates the shared event and schedules the one
      close timer, which therefore occupies precisely the (time, seq) slot
      the joiner's own timer would have occupied;
    - later joiners just wait on the shared event, allocating nothing;
    - the close timer completes the event with
      :meth:`~repro.sim.events.Event.succeed_inline`, resuming joiners
      synchronously in join order — the order their individual timers
      would have fired in.

    A single pending slot suffices: a flush targeting a different
    completion time simply starts a new group (the old close timer holds
    its own event reference), and a missed coalesce degrades to a plain
    per-flush timer, never to a wrong one.
    """

    __slots__ = ("sim", "_pending_at", "_event")

    def __init__(self, sim):
        self.sim = sim
        self._pending_at = None
        self._event = None

    def join(self, delay):
        """Register a flush taking ``delay``; returns a waitable or None.

        ``None`` means the caller is the group leader and must pay the
        delay with its own ``yield delay``.
        """
        complete_at = self.sim.now + delay
        if self._pending_at != complete_at:
            self._pending_at = complete_at
            self._event = None
            return None
        if self._event is None:
            event = Event(self.sim)
            self._event = event
            self.sim.schedule(delay, self._close, event)
        COUNTERS.wal_flush_joins += 1
        return self._event

    def _close(self, event):
        if self._event is event:
            self._event = None
            self._pending_at = None
        event.succeed_inline(None)


class Wal:
    """Append-only log for one node.

    Tailers (:class:`WalTailer`) consume records in order and block on an
    event when they reach the tail, waking as soon as new records land.
    """

    def __init__(self, sim, node_id=""):
        self.sim = sim
        self.node_id = node_id
        self._records = []
        self._base_lsn = 0  # LSN of _records[0]: everything below is recycled
        self._tailers = {}  # live tailers (insertion-ordered set)
        self._holds = {}  # holder -> the lowest LSN it still needs
        self._appended = None  # event armed while a tailer waits at the tail
        self.flush_group = FlushCoalescer(sim)
        # Per-shard routing index for the tailers: built lazily on the
        # first ``routing_index()`` call (nodes that never source a
        # migration or lead a replication group pay nothing) and maintained
        # by ``append`` from then on. ``_route_change`` maps shard_id ->
        # [lsn, ...] of change records; ``_route_control`` lists the
        # control-record LSNs (prepare/commit/abort and their 2PC
        # resolutions), which every tailer must see regardless of its
        # shard set.
        self._route_change = None
        self._route_control = None

    @property
    def tail_lsn(self):
        """LSN that the *next* appended record will receive."""
        return self._base_lsn + len(self._records)

    def append(self, record):
        """Assign the next LSN to ``record`` and append it. Returns the LSN."""
        record.lsn = lsn = self._base_lsn + len(self._records)
        self._records.append(record)
        if self._route_change is not None:
            if record.kind.is_change:
                route = self._route_change.get(record.shard_id)
                if route is None:
                    route = self._route_change[record.shard_id] = []
                route.append(lsn)
            else:
                self._route_control.append(lsn)
        if self._appended is not None:
            armed, self._appended = self._appended, None
            armed.succeed(None)
        return record.lsn

    def record(self, lsn):
        """The record at ``lsn``; raises :class:`LookupError` if recycled."""
        index = lsn - self._base_lsn
        if index < 0:
            raise LookupError(
                "WAL record {} on {!r} was recycled (oldest kept: {})".format(
                    lsn, self.node_id, self._base_lsn
                )
            )
        return self._records[index]

    def hold(self, holder, lsn):
        """Keep every record from ``lsn`` on until :meth:`release`."""
        self._holds[holder] = lsn

    def release(self, holder):
        self._holds.pop(holder, None)

    def recycle(self, floor):
        """Drop the records below ``floor``, but none that a live tailer has
        not handled yet or a hold still needs. Returns how many went.

        The routing index loses the same LSNs, and each live tailer's
        cursor into a shortened route moves down with it.
        """
        for tailer in self._tailers:
            floor = min(floor, tailer.handled_lsn)
        for lsn in self._holds.values():
            floor = min(floor, lsn)
        drop = min(floor, self.tail_lsn) - self._base_lsn
        if drop <= 0:
            return 0
        del self._records[:drop]
        self._base_lsn += drop
        if self._route_change is not None:
            for route in (self._route_control, *self._route_change.values()):
                cut = bisect_left(route, self._base_lsn)
                if cut:
                    del route[:cut]
                    for tailer in self._tailers:
                        tailer._route_cut(route, cut)
        return drop

    def routing_index(self):
        """The (change-by-shard, control) LSN routing index, built lazily."""
        if self._route_change is None:
            change = {}
            control = []
            for record in self._records:
                if record.kind.is_change:
                    route = change.get(record.shard_id)
                    if route is None:
                        route = change[record.shard_id] = []
                    route.append(record.lsn)
                else:
                    control.append(record.lsn)
            self._route_change = change
            self._route_control = control
        return self._route_change, self._route_control

    def _wait_appended(self):
        if self._appended is None:
            self._appended = self.sim.event(name="wal-append:{}".format(self.node_id))
        return self._appended


class WalTailer:
    """Shard-routed, CPU-charged send loop over one :class:`Wal`.

    Both send processes — migration propagation (§3.3) and a replication
    group's leader pump — are one of these. :meth:`run` visits only the
    records its owner acts on: change records of ``shard_ids`` and every
    control record (prepare/commit/abort and their 2PC resolutions), found
    through the WAL's routing index. The records in between are skipped,
    but the loop still pays ``cost_per_record`` for every record it passes
    (the ~6% source overhead in Figure 10): one CPU charge per ``batch``
    records, at the instant the batch boundary is crossed.

    Two cursors, because a charge can fall between consuming a record and
    acting on it:

    - the private consumed cursor moves first; it drives the charge
      accounting and :attr:`lag`, a polling distance;
    - :attr:`handled_lsn` says every record below it has had its effect.
      A skipped record has none, so it counts as handled once consumed; a
      routed record counts once ``handle(record)`` returns. Whoever asks
      "has X happened" must read this one.

    A tailer holds the WAL's recycling back to its :attr:`handled_lsn` from
    construction (an owner may build it before the loop first resumes)
    until :meth:`run` exits. Building one from a recycled LSN raises: the
    routing index no longer lists what was there, so the loop would skip it.
    """

    def __init__(self, wal, shard_ids, from_lsn, cpu, cost_per_record, batch):
        if from_lsn < wal._base_lsn:
            wal.record(from_lsn)  # raises
        self.wal = wal
        self.shard_ids = sorted(shard_ids)
        self.cpu = cpu
        self.cost_per_record = cost_per_record
        self.batch = batch
        self._consumed_lsn = from_lsn
        self.handled_lsn = from_lsn
        self._routes = []  # the routing-index lists run() follows
        self._cursors = []  # per route: index of its next unconsumed LSN
        wal._tailers[self] = None

    def _route_cut(self, route, cut):
        """``route`` lost its first ``cut`` LSNs, all consumed: follow it."""
        for index, followed in enumerate(self._routes):
            if followed is route:
                self._cursors[index] -= cut

    @property
    def lag(self):
        """Records appended but not yet consumed."""
        return self.wal.tail_lsn - self._consumed_lsn

    def run(self, handle, on_handled=lambda: None):
        """Generator: tail the WAL until interrupted, calling ``handle`` on
        each routed record in LSN order and ``on_handled`` after every move
        of :attr:`handled_lsn`."""
        wal = self.wal
        cpu = self.cpu
        batch = self.batch
        charge = self.cost_per_record * batch
        since_charge = 0
        change_index, control_index = wal.routing_index()
        routes = self._routes
        routes.append(control_index)
        for shard_id in self.shard_ids:
            route = change_index.get(shard_id)
            if route is None:
                # Share the live list so appends after this point land in it.
                route = change_index[shard_id] = []
            routes.append(route)
        cursors = self._cursors
        cursors.extend(bisect_left(route, self._consumed_lsn) for route in routes)
        try:
            while True:
                if self._consumed_lsn >= wal.tail_lsn:
                    yield wal._wait_appended()
                    continue
                # Next routed record at or beyond the consumed cursor, if any.
                next_lsn = wal.tail_lsn
                winner = -1
                for index, route in enumerate(routes):
                    cursor = cursors[index]
                    if cursor < len(route) and route[cursor] < next_lsn:
                        next_lsn = route[cursor]
                        winner = index
                gap = next_lsn - self._consumed_lsn
                if gap:
                    self._consumed_lsn = self.handled_lsn = next_lsn
                    on_handled()
                    COUNTERS.migration_pump_skipped += gap
                    since_charge += gap
                    while since_charge >= batch:
                        yield cpu.use(charge)
                        since_charge -= batch
                if winner < 0:
                    continue
                self._consumed_lsn = next_lsn + 1
                cursors[winner] += 1
                since_charge += 1
                if since_charge >= batch:
                    yield cpu.use(charge)
                    since_charge = 0
                handle(wal.record(next_lsn))
                self.handled_lsn = next_lsn + 1
                on_handled()
        except Interrupt:
            return
        finally:
            del wal._tailers[self]
