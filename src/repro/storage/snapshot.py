"""Snapshots and MVCC visibility checking with prepare-wait.

A transaction reads with a :class:`Snapshot` carrying its start timestamp.
Visibility of a tuple version is decided by consulting the CLOG for the
creating (and, if set, deleting) transaction:

- aborted / in-progress writers are ignored,
- **prepared** writers force the reader to wait for completion (the
  prepare-wait mechanism of §2.2 that both GTS and DTS rely on),
- committed writers are visible iff their commit timestamp is <= the
  snapshot's start timestamp.

The check functions are generators so that prepare-wait can block the calling
simulated process.

Fast path
---------
The hot variant of each check (:func:`creation_visible_fast`,
:func:`deletion_visible_fast`) is a plain function: it decides visibility
from the tuple's hint bits — or from a non-blocking CLOG probe, stamping the
hint for next time — and returns :data:`UNDECIDED` only when the writer is
PREPARED and the caller must block. Callers (``HeapTable.visible_version``)
try the fast variant first and fall back to the generator only for the rare
prepare-wait, which removes two generator frames and several dict/enum
operations per version on the common path. The verdicts are identical by
construction: hints are immutable CLOG facts (``repro.storage.tuples``).
"""

from repro.profiling.counters import COUNTERS
from repro.storage.clog import TxnStatus
from repro.storage.tuples import ABORTED


class VisibilityError(Exception):
    """Internal inconsistency detected during a visibility check."""


class _Undecided:
    """Singleton: the fast path could not decide without blocking."""

    __slots__ = ()

    def __repr__(self):
        return "UNDECIDED"


#: Returned by the fast checks when the writer is PREPARED (prepare-wait).
UNDECIDED = _Undecided()


class Snapshot:
    """An MVCC read snapshot.

    Attributes:
        start_ts: the snapshot (start) timestamp.
        xid: the reading transaction's id on this node, so it sees its own
            uncommitted writes; None for pure snapshot reads (e.g. the
            migration's snapshot scan).
        active_xids: optional frozenset of the node-local xids that were
            active when the snapshot was built (epoch-tagged shared
            snapshots attach it). Purely informational — visibility is
            decided by commit timestamps — but ``xid in snapshot`` is O(1)
            frozenset membership for invariant checks and introspection.
    """

    __slots__ = ("start_ts", "xid", "active_xids")

    def __init__(self, start_ts, xid=None, active_xids=None):
        self.start_ts = start_ts
        self.xid = xid
        self.active_xids = active_xids

    def __contains__(self, xid):
        """O(1): was ``xid`` active on the owning node at snapshot build?"""
        if self.active_xids is None:
            return False
        return xid in self.active_xids

    def __repr__(self):
        return "Snapshot(start_ts={}, xid={})".format(self.start_ts, self.xid)


def creation_visible_fast(version, snapshot, clog):
    """Non-blocking: is the *creation* of ``version`` visible to ``snapshot``?

    Returns True/False, or :data:`UNDECIDED` when the creator is PREPARED
    and the caller must prepare-wait. Stamps the ``cts_min`` hint whenever
    the creator resolves to a terminal state.
    """
    if snapshot.xid is not None and version.xmin == snapshot.xid:
        return True
    COUNTERS.visibility_probes += 1
    hint = version.cts_min
    if hint is not None:
        if hint is ABORTED:
            return False
        return hint <= snapshot.start_ts
    status = clog.status(version.xmin)
    COUNTERS.clog_slow_lookups += 1
    if status is TxnStatus.ABORTED:
        version.cts_min = ABORTED
        COUNTERS.hint_stamps += 1
        return False
    if status is TxnStatus.IN_PROGRESS:
        return False
    if status is TxnStatus.PREPARED:
        return UNDECIDED
    commit_ts = version.cts_min = clog.commit_ts(version.xmin)
    COUNTERS.hint_stamps += 1
    return commit_ts <= snapshot.start_ts


def deletion_visible_fast(version, snapshot, clog):
    """Non-blocking: is the *deletion* of ``version`` visible to ``snapshot``?

    Same contract as :func:`creation_visible_fast`, for ``xmax``.
    """
    if version.xmax is None:
        return False
    if snapshot.xid is not None and version.xmax == snapshot.xid:
        return True
    COUNTERS.visibility_probes += 1
    hint = version.cts_max
    if hint is not None:
        if hint is ABORTED:
            return False
        return hint <= snapshot.start_ts
    status = clog.status(version.xmax)
    COUNTERS.clog_slow_lookups += 1
    if status is TxnStatus.ABORTED:
        version.cts_max = ABORTED
        COUNTERS.hint_stamps += 1
        return False
    if status is TxnStatus.IN_PROGRESS:
        return False
    if status is TxnStatus.PREPARED:
        return UNDECIDED
    commit_ts = version.cts_max = clog.commit_ts(version.xmax)
    COUNTERS.hint_stamps += 1
    return commit_ts <= snapshot.start_ts


def creation_visible(version, snapshot, clog):
    """Generator: is the *creation* of ``version`` visible to ``snapshot``?

    Returns True/False; blocks (prepare-wait) while the creator is prepared.
    """
    while True:
        decided = creation_visible_fast(version, snapshot, clog)
        if decided is not UNDECIDED:
            return decided
        if not clog.prepare_wait_enabled:
            return False  # ablation: unsafely treat prepared as invisible
        yield clog.wait_completion(version.xmin)


def deletion_visible(version, snapshot, clog):
    """Generator: is the *deletion* of ``version`` visible to ``snapshot``?

    A version whose ``xmax`` deletion is visible is gone for this snapshot.
    """
    while True:
        decided = deletion_visible_fast(version, snapshot, clog)
        if decided is not UNDECIDED:
            return decided
        if not clog.prepare_wait_enabled:
            return False  # ablation: unsafely treat prepared as not deleted
        yield clog.wait_completion(version.xmax)


def version_is_dead(version, clog):
    """Non-blocking: True if this version was superseded by a *committed* txn
    or created by an aborted one (used by MOCC validation and vacuum)."""
    if version.cts_min is ABORTED:
        return True
    if version.xmax is not None and version.cts_max is not None:
        return version.cts_max is not ABORTED
    if clog.status(version.xmin) is TxnStatus.ABORTED:
        version.cts_min = ABORTED
        return True
    return version.xmax is not None and clog.status(version.xmax) is TxnStatus.COMMITTED
