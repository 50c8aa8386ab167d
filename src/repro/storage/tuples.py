"""Multi-versioned tuples.

Mirrors PostgreSQL's tuple header as extended by PolarDB-PG (§2.2 of the
paper): each version records the transaction that created it (``xmin``) and,
once updated or deleted, the transaction that invalidated it (``xmax``). The
commit timestamp of the creating/deleting transaction lives in the CLOG, not
in the tuple, exactly as in the paper's design.

On top of that the header carries PostgreSQL-style **hint bits**
(``cts_min``/``cts_max``): once the creating or deleting transaction
resolves to a *terminal* CLOG state, the outcome is stamped on the version
so repeat checks skip the CLOG entirely. The two resolvers of
:mod:`repro.storage.snapshot` (``resolve_creator``/``resolve_deleter``)
are the only code that reads the CLOG for a version's writer and stamps
its hint. A hint is either

- ``None`` — not yet resolved (or resolved to a non-terminal state),
- the transaction's commit timestamp — it committed, or
- :data:`ABORTED` — it aborted.

Terminal CLOG states are immutable, so a stamped hint can never go stale;
the one mutable input is ``xmax`` itself (a deleter can abort and a later
transaction re-stamp the version), which is why
:meth:`~repro.storage.heap.HeapTable.mark_deleted` and
:meth:`~repro.storage.heap.HeapTable.unmark_deleted` reset ``cts_max``.
Hints are a pure cache of CLOG facts: stamping them never changes any
visibility verdict or any simulated timeline.

Versions of one row form a singly linked chain, newest first, the way
PostgreSQL's ``t_ctid`` links a HOT chain: each version points to the
next-older one through ``older``, and the heap keeps only the newest (the
*head*). The head's ``count`` is the chain's length; on any other version
it is stale and never read.

Rows installed by the bootstrap transaction (:data:`BOOTSTRAP_XID`,
committed at :data:`RESERVED_MIN_TS` in every node's CLOG) are *frozen*, as
PostgreSQL freezes tuples older than every snapshot: the heap stores such a
row as its bare value and builds its one version only when a caller may
change it (see :mod:`repro.storage.heap`).
"""

#: Reserved xid of the bootstrap transaction, which owns the rows installed
#: at table creation, by bulk loads and by migration snapshot installs.
BOOTSTRAP_XID = -1
#: Reserved minimal commit timestamp of the bootstrap transaction: its rows
#: are visible to every snapshot.
RESERVED_MIN_TS = 0


class _AbortedHint:
    """Singleton hint marker: the stamped transaction is known aborted."""

    __slots__ = ()

    def __repr__(self):
        return "ABORTED"


#: Hint value recording that the creating/deleting transaction aborted.
ABORTED = _AbortedHint()


class TupleVersion:
    """One version of a row.

    Attributes:
        key: primary key value.
        value: column payload (any Python object; workloads use dicts).
        xmin: id of the transaction that created this version.
        xmax: id of the transaction that deleted/superseded it, or None.
        cts_min: hint for ``xmin`` — commit ts, :data:`ABORTED` or None.
        cts_max: hint for ``xmax`` — commit ts, :data:`ABORTED` or None.
        older: the next-older version of the row, or None at the tail.
        count: versions in the chain, when this version is its head.
    """

    __slots__ = ("key", "value", "xmin", "xmax", "cts_min", "cts_max", "older", "count")

    def __init__(self, key, value, xmin, xmax=None, older=None):
        self.key = key
        self.value = value
        self.xmin = xmin
        self.xmax = xmax
        self.cts_min = None
        self.cts_max = None
        self.older = older
        self.count = 1 if older is None else older.count + 1

    def __repr__(self):
        return "TupleVersion(key={!r}, xmin={}, xmax={})".format(
            self.key, self.xmin, self.xmax
        )
