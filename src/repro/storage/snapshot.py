"""Snapshots, the writer verdict and MVCC visibility with prepare-wait.

A transaction reads with a :class:`Snapshot`: its start timestamp and its
own xid. Visibility of a tuple version is decided by the verdict on its
creating (and, if set, deleting) transaction:

- aborted / in-progress writers are ignored,
- **prepared** writers force the reader to wait for completion (the
  prepare-wait mechanism of §2.2 that both GTS and DTS rely on),
- committed writers are visible iff their commit timestamp is <= the
  snapshot's start timestamp.

Writer verdict
--------------
:func:`resolve_creator` and :func:`resolve_deleter` are the only code that
reads the CLOG for a version's writer and stamps its hint bit
(``repro.storage.tuples``): each returns the writer's commit timestamp,
:data:`~repro.storage.tuples.ABORTED`, or ``None`` while the writer is
IN_PROGRESS or PREPARED. Every other reader of a writer's fate — the
visibility checks here, the heap's writer, scan and vacuum paths, the
transaction manager's uniqueness and first-updater-wins checks, shard-map
routing and Squall's pull — calls them, or :func:`settle_creator` /
:func:`settle_deleter`, which prepare-wait on a PREPARED writer first.
The hottest loops (``HeapTable.visible_version``, ``HeapTable.vacuum``)
test the hint inline and call a resolver only on a miss. Hints are
immutable CLOG facts, so stamping one never moves a verdict.

Fast path
---------
The hot variant of each visibility check (:func:`creation_visible_fast`,
:func:`deletion_visible_fast`) is a plain function that returns
:data:`UNDECIDED` only when the writer is PREPARED and the caller must
block; the generators :func:`creation_visible` / :func:`deletion_visible`
do the prepare-wait. Callers (``HeapTable.visible_version``) try the fast
variant first and fall back to the generator only for the rare
prepare-wait.
"""

from repro.profiling.counters import COUNTERS
from repro.storage.clog import TxnStatus
from repro.storage.tuples import ABORTED


class _Undecided:
    """Singleton: the fast path could not decide without blocking."""

    __slots__ = ()

    def __repr__(self):
        return "UNDECIDED"


#: Returned by the fast checks when the writer is PREPARED (prepare-wait).
UNDECIDED = _Undecided()


class Snapshot:
    """An MVCC read snapshot: a start timestamp and the reader's own xid.

    Visibility is decided by CLOG commit timestamps plus prepare-wait
    (§2.2), so nothing else is needed.

    Attributes:
        start_ts: the snapshot (start) timestamp.
        xid: the reading transaction's id on this node, so it sees its own
            uncommitted writes; None for pure snapshot reads (e.g. the
            migration's snapshot scan).
    """

    __slots__ = ("start_ts", "xid")

    def __init__(self, start_ts, xid=None):
        self.start_ts = start_ts
        self.xid = xid

    def __repr__(self):
        return "Snapshot(start_ts={}, xid={})".format(self.start_ts, self.xid)


def resolve_creator(version, clog):
    """The verdict on ``version``'s creator: its commit timestamp,
    :data:`ABORTED`, or ``None`` while it is IN_PROGRESS or PREPARED.

    Read from the ``cts_min`` hint, or from one CLOG lookup that stamps the
    hint once the creator is terminal.
    """
    hint = version.cts_min
    if hint is None:
        status, commit_ts = clog.entry(version.xmin)
        if status is TxnStatus.COMMITTED:
            hint = version.cts_min = commit_ts
        elif status is TxnStatus.ABORTED:
            hint = version.cts_min = ABORTED
    return hint


def resolve_deleter(version, clog):
    """The verdict on ``version``'s deleter (``xmax`` must be set), from
    the ``cts_max`` hint or one CLOG lookup that stamps it, as
    :func:`resolve_creator`."""
    hint = version.cts_max
    if hint is None:
        status, commit_ts = clog.entry(version.xmax)
        if status is TxnStatus.COMMITTED:
            hint = version.cts_max = commit_ts
        elif status is TxnStatus.ABORTED:
            hint = version.cts_max = ABORTED
    return hint


def is_committed(verdict):
    """Is a resolver's verdict a commit timestamp?"""
    return verdict is not None and verdict is not ABORTED


def _prepared(clog, xid):
    return clog.entry(xid)[0] is TxnStatus.PREPARED


def settle_creator(version, clog):
    """Generator: :func:`resolve_creator`, prepare-waiting while the
    creator is PREPARED; ``None`` then means it is IN_PROGRESS."""
    while True:
        verdict = resolve_creator(version, clog)
        if verdict is not None or not _prepared(clog, version.xmin):
            return verdict
        yield clog.wait_completion(version.xmin)


def settle_deleter(version, clog):
    """Generator: :func:`resolve_deleter`, prepare-waiting while the
    deleter is PREPARED; ``None`` then means it is IN_PROGRESS."""
    while True:
        verdict = resolve_deleter(version, clog)
        if verdict is not None or not _prepared(clog, version.xmax):
            return verdict
        yield clog.wait_completion(version.xmax)


def _visible(verdict, writer, snapshot, clog):
    """A resolver's verdict on ``writer`` as a visibility answer for
    ``snapshot``: :data:`UNDECIDED` while the writer is PREPARED."""
    if verdict is None:
        return UNDECIDED if _prepared(clog, writer) else False
    if verdict is ABORTED:
        return False
    return verdict <= snapshot.start_ts


def creation_visible_fast(version, snapshot, clog):
    """Non-blocking: is the *creation* of ``version`` visible to ``snapshot``?

    Returns True/False, or :data:`UNDECIDED` when the creator is PREPARED
    and the caller must prepare-wait.
    """
    if snapshot.xid is not None and version.xmin == snapshot.xid:
        return True
    if version.cts_min is None:
        COUNTERS.clog_slow_lookups += 1
    return _visible(resolve_creator(version, clog), version.xmin, snapshot, clog)


def deletion_visible_fast(version, snapshot, clog):
    """Non-blocking: is the *deletion* of ``version`` visible to ``snapshot``?

    Same contract as :func:`creation_visible_fast`, for ``xmax``.
    """
    if version.xmax is None:
        return False
    if snapshot.xid is not None and version.xmax == snapshot.xid:
        return True
    if version.cts_max is None:
        COUNTERS.clog_slow_lookups += 1
    return _visible(resolve_deleter(version, clog), version.xmax, snapshot, clog)


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
