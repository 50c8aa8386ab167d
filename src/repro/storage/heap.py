"""Versioned heap tables: one per shard per node.

A heap table stores one version chain per primary key, exactly the
structure the paper's protocols manipulate: MVCC reads traverse the chain
until the first version visible to the reader's snapshot; updates prepend a
new version and stamp the old one's ``xmax``; vacuum trims versions that no
active snapshot can see (long snapshot scans hold vacuum back, which is the
mechanism behind the paper's Figure 10 throughput dip).

A chain is linked newest first through ``TupleVersion.older``, as
PostgreSQL's ``t_ctid`` links a HOT chain, and the table maps each key to
its newest version.

Frozen rows: a row the bootstrap transaction installs (:meth:`bulk_install`:
bulk loads and every migration install) is mapped to its bare value, not to
a version. It stands for one version created by ``BOOTSTRAP_XID`` at
``RESERVED_MIN_TS`` and never deleted, so it is visible to every snapshot,
its chain length is 1 and a read traverses one version: the read paths
(``frozen_value``, ``visible_version``, ``scan_visible_fast``,
``committed_version``, ``chain_length``) answer it as such without storing
anything, handing out a transient version where they return one. The row
*materializes*, in its own dict slot so that key order never moves, only
where a caller may change the version: ``latest_committed_or_locked``
(writers, replication apply, Squall), ``chain`` (vacuum, ``remove_version``,
invariant checks) and a ``put_version`` over it. On the hot paths the frozen test is an inline
``type(head) is TupleVersion``. No code outside this module knows whether a
row is frozen. Vacuum and ``remove_version`` relink survivors in place
(``_relink``); an unlinked version keeps its ``older`` link, so a reader
parked on it in a prepare-wait walks on, skipping at worst versions
reclaimed below the horizon, which never exceeds an active reader's
``start_ts``.

Vacuum does not sweep the heap: the table keeps a *candidate set* of the
keys whose chain may hold garbage now or later (fed by ``put_version`` and
``mark_deleted``, drained by ``vacuum`` itself), so a pass costs what the
churn since the last pass costs, not what the heap holds. The invariant is
spelled out on :meth:`HeapTable.vacuum` and in DESIGN.md §9.

Writer verdicts: every path here that needs a version's creator or deleter
— reads, the writer's ``latest_committed_or_locked``, ``committed_version``,
the batched scan and vacuum — takes it from the hint, or from the resolvers
of :mod:`repro.storage.snapshot` (``resolve_creator``/``resolve_deleter``),
the only code that reads the CLOG for it and stamps the hint.
:meth:`HeapTable.visible_version` and :meth:`HeapTable.vacuum` test the
hint inline, so a hit costs no call; a read falls back to the blocking
generator only when a writer is PREPARED. Hints cache terminal CLOG
verdicts, so every answer is the one a CLOG-only reader would give;
``tests/test_properties.py`` keeps that reader as the oracle.
"""

from bisect import bisect_left, insort

from repro.profiling.counters import COUNTERS
from repro.storage.snapshot import (
    UNDECIDED,
    creation_visible,
    creation_visible_fast,
    deletion_visible,
    deletion_visible_fast,
    is_committed,
    resolve_creator,
    resolve_deleter,
)
from repro.storage.tuples import ABORTED, BOOTSTRAP_XID, RESERVED_MIN_TS, TupleVersion


def _frozen_version(key, value):
    """The one version a frozen row stands for (hint already stamped)."""
    version = TupleVersion(key, value, BOOTSTRAP_XID)
    version.cts_min = RESERVED_MIN_TS
    return version


class HeapTable:
    """MVCC storage for one shard on one node."""

    def __init__(self, sim, clog, shard_id=None):
        self.sim = sim
        self.clog = clog
        self.shard_id = shard_id
        self._chains = {}
        self.version_count = 0
        # Keys whose chain may hold a version that is, or can still become,
        # reclaimable (insertion-ordered; see ``vacuum`` for the invariant).
        self._vacuum_candidates = {}
        # Sorted key index for migration snapshot scans: built lazily on the
        # first ``sorted_keys()`` call and maintained incrementally from then
        # on, so repeated scans (crash-recovery retries, repair passes) stop
        # re-sorting the whole heap. Heaps that are never scanned (e.g. the
        # shard map replica) never pay for it.
        self._sorted_keys = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key):
        return key in self._chains

    def keys(self):
        return self._chains.keys()

    def chain(self, key):
        """Fresh list of ``key``'s versions, newest first (empty if unknown).
        Materializes a frozen row."""
        versions = []
        version = self._chains.get(key)
        if type(version) is not TupleVersion and version is not None:
            version = self._chains[key] = _frozen_version(key, version)
        while version is not None:
            versions.append(version)
            version = version.older
        return versions

    def chain_length(self, key):
        head = self._chains.get(key)
        if type(head) is TupleVersion:
            return head.count
        return 0 if head is None else 1

    @property
    def key_count(self):
        return len(self._chains)

    def sorted_keys(self):
        """The incrementally maintained sorted key index (§3.2 fast scan).

        Returns the live index list — callers that scan while the heap can
        mutate must take a copy, exactly as ``sorted(heap.keys())`` would
        have materialised one.
        """
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._chains)
        return keys

    def _index_discard(self, key):
        keys = self._sorted_keys
        if keys is not None:
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                del keys[index]

    def _relink(self, key, kept):
        """Make ``kept`` (versions of the chain, newest first) the chain of
        ``key``, or drop the key when it is empty. Versions left out keep
        their own ``older`` link."""
        if not kept:
            del self._chains[key]
            self._index_discard(key)
            return
        older = None
        for version in reversed(kept):
            version.older = older
            older = version
        kept[0].count = len(kept)
        self._chains[key] = kept[0]

    # ------------------------------------------------------------------
    # Physical mutation (called by the transaction layer under locks)
    # ------------------------------------------------------------------
    def put_version(self, key, value, xmin, committed=False):
        """Prepend a new version for ``key`` created by ``xmin``.

        The key becomes a vacuum candidate (``xmin`` may still abort) unless
        the caller passes ``committed=True``, vouching that ``xmin`` is
        already COMMITTED in this node's CLOG: such a version carries no
        ``xmax`` and can only turn into garbage through a later
        :meth:`mark_deleted`, which enrols the key itself. The shard map
        rows and :meth:`bulk_install` over an existing chain use it. Over a
        frozen row, the new version goes on top of the row's own.
        """
        head = self._chains.get(key)
        if head is None:
            if self._sorted_keys is not None:
                insort(self._sorted_keys, key)
        elif type(head) is not TupleVersion:
            head = _frozen_version(key, head)
        version = self._chains[key] = TupleVersion(key, value, xmin, None, head)
        self.version_count += 1
        if not committed:
            self._vacuum_candidates[key] = None
        return version

    def bulk_install(self, items):
        """Install ``(key, value)`` rows created by the bootstrap transaction.

        A new key becomes a frozen row. A key that already has a chain, and
        a ``None`` value (which a frozen slot cannot tell from a missing
        key), get a version as :meth:`put_version` with ``committed=True``
        makes it: on top of the chain, and no vacuum candidate.
        """
        chains = self._chains
        sorted_keys = self._sorted_keys
        for key, value in items:
            if value is None or key in chains:
                self.put_version(key, value, BOOTSTRAP_XID, committed=True)
                continue
            chains[key] = value
            if sorted_keys is not None:
                insort(sorted_keys, key)
            self.version_count += 1

    def mark_deleted(self, version, xmax):
        """Stamp ``version`` as superseded/deleted by transaction ``xmax``."""
        version.xmax = xmax
        version.cts_max = None  # the old deleter's hint no longer applies
        self._vacuum_candidates[version.key] = None

    def unmark_deleted(self, version, xmax):
        """Roll back an xmax stamp if it still belongs to ``xmax``."""
        if version.xmax == xmax:
            version.xmax = None
            version.cts_max = None

    def remove_version(self, version):
        kept = self.chain(version.key)
        if version in kept:
            kept.remove(version)
            self._relink(version.key, kept)
            self.version_count -= 1
            if not kept:
                self._vacuum_candidates.pop(version.key, None)

    # ------------------------------------------------------------------
    # MVCC reads (generators: may prepare-wait via the CLOG)
    # ------------------------------------------------------------------
    def visible_version(self, key, snapshot):
        """Generator returning (version, versions_traversed) or (None, n).

        Walks the chain newest-first to the first version whose creation is
        visible to ``snapshot``; the row is then visible iff that version's
        deletion is not. ``versions_traversed`` lets callers charge CPU time
        proportional to chain length.

        The loop checks the hint bits *inline* — a stamped junk version
        costs three attribute loads to skip, no function call — and drops
        to :func:`creation_visible_fast` / the blocking generators only on
        a hint miss or a PREPARED writer. A non-None hint implies the
        writer is in a terminal CLOG state, which an active reader's own
        xid never is, so the hint can be trusted before the own-xid check.
        """
        clog = self.clog
        traversed = 0
        try:
            start_ts = snapshot.start_ts
            version = self._chains.get(key)
            if type(version) is not TupleVersion and version is not None:
                version = _frozen_version(key, version)
            while version is not None:
                traversed += 1
                hint = version.cts_min
                if hint is not None:
                    if hint is ABORTED or hint > start_ts:
                        version = version.older
                        continue
                else:
                    created = creation_visible_fast(version, snapshot, clog)
                    if created is UNDECIDED:
                        created = yield from creation_visible(version, snapshot, clog)
                    if not created:
                        version = version.older
                        continue
                if version.xmax is None:
                    return version, traversed
                hint = version.cts_max
                if hint is not None:
                    # Terminal deleter: aborted or committed after us means
                    # the deletion is invisible and the version survives.
                    if hint is ABORTED or hint > start_ts:
                        return version, traversed
                    return None, traversed
                deleted = deletion_visible_fast(version, snapshot, clog)
                if deleted is UNDECIDED:
                    deleted = yield from deletion_visible(version, snapshot, clog)
                if deleted:
                    return None, traversed
                return version, traversed
            return None, traversed
        finally:
            COUNTERS.visibility_checks += 1
            COUNTERS.visibility_versions += traversed

    def read(self, key, snapshot):
        """Generator returning (value_or_None, versions_traversed)."""
        version, traversed = yield from self.visible_version(key, snapshot)
        return (None if version is None else version.value), traversed

    def frozen_value(self, key):
        """A frozen row's value, counted as the one-version visibility check
        a read of it makes; ``None`` for any other key (read it then)."""
        head = self._chains.get(key)
        if type(head) is TupleVersion or head is None:
            return None
        COUNTERS.visibility_checks += 1
        COUNTERS.visibility_versions += 1
        return head

    def latest_committed_or_locked(self, key):
        """Newest version not created by an aborted transaction (or None).

        This is the version an updater contends on after acquiring the row
        lock: it is either committed, prepared or belongs to the lock holder.
        Materializes a frozen row: the caller may stamp the version.
        """
        clog = self.clog
        version = self._chains.get(key)
        if type(version) is not TupleVersion and version is not None:
            version = self._chains[key] = _frozen_version(key, version)
        while version is not None and resolve_creator(version, clog) is ABORTED:
            version = version.older
        return version

    def committed_version(self, key):
        """The key's committed live version (or None): the newest surviving
        version, created by a committed transaction and not deleted by one."""
        head = self._chains.get(key)
        if type(head) is not TupleVersion:
            return None if head is None else _frozen_version(key, head)
        version = self.latest_committed_or_locked(key)
        if version is None or version.cts_min is None:
            return None  # its creator is still IN_PROGRESS or PREPARED
        if version.xmax is not None and is_committed(resolve_deleter(version, self.clog)):
            return None
        return version

    # ------------------------------------------------------------------
    # Snapshot scan (for migration snapshot copying, §3.2)
    # ------------------------------------------------------------------
    def scan_visible_fast(self, key, snapshot):
        """Non-blocking visibility for the batched migration scan.

        Returns the visible version for ``key``, ``None`` (no visible
        version), or :data:`UNDECIDED`. Unlike the per-version fast checks,
        *any* non-terminal writer — IN_PROGRESS as well as PREPARED —
        returns UNDECIDED: the batched scan inspects a key slightly before
        the instant the per-tuple path would, and only terminal CLOG
        verdicts (committed with a fixed timestamp, or aborted) are stable
        across that window. An in-progress writer could be PREPARED — and
        force a prepare-wait — by the time a per-tuple check would have run,
        so the caller must flush its deferred CPU charges and re-check
        through :meth:`visible_version` at the per-tuple instant.
        """
        if snapshot.xid is not None:
            return UNDECIDED
        clog = self.clog
        start_ts = snapshot.start_ts
        traversed = 0
        outcome = None
        version = self._chains.get(key)
        if type(version) is not TupleVersion and version is not None:
            version = _frozen_version(key, version)
        while version is not None:
            traversed += 1
            created = resolve_creator(version, clog)
            if created is None:
                return UNDECIDED
            if created is ABORTED or created > start_ts:
                version = version.older
                continue
            # Creation visible: the row survives iff its deletion is not.
            if version.xmax is None:
                outcome = version
                break
            deleted = resolve_deleter(version, clog)
            if deleted is None:
                return UNDECIDED
            if deleted is ABORTED or deleted > start_ts:
                outcome = version
            break
        COUNTERS.visibility_checks += 1
        COUNTERS.visibility_versions += traversed
        return outcome

    def scan_at(self, snapshot):
        """Materialise all (key, value) pairs visible to ``snapshot``.

        Returns a generator *process* whose return value is the list of
        pairs; it prepare-waits on in-doubt writers, so the snapshot is
        transactionally consistent.
        """
        pairs = []
        for key in list(self.sorted_keys()):
            version, _traversed = yield from self.visible_version(key, snapshot)
            if version is not None:
                pairs.append((key, version.value))
        return pairs

    # ------------------------------------------------------------------
    # Vacuum
    # ------------------------------------------------------------------
    def vacuum(self, horizon_ts):
        """Remove versions no snapshot at/after ``horizon_ts`` can see.

        A version is reclaimable if its creator aborted, or its deletion
        committed with a timestamp <= ``horizon_ts``. Returns the number of
        versions removed. A long-running snapshot (e.g. a migration snapshot
        scan) holds ``horizon_ts`` back and lets chains grow.

        Only the candidate set is visited, and the rule above is applied to
        every version of every candidate chain. The set's invariant: *a
        chain holding a version that is reclaimable now, or can become so
        without another* ``put_version``/``mark_deleted`` *on its key, is in
        the set*. Those two calls enrol the key; a pass keeps it enrolled
        while some surviving version has a creator that is not COMMITTED yet
        (it may abort) or an ``xmax`` whose deleter is not ABORTED (it may
        commit, or has committed above a held horizon — so a pinned chain is
        looked at again every pass and goes the pass after the hold drops).
        Every other chain can only change through those two calls.

        Hint bits are trusted and stamped, as every reader does: they cache
        terminal, immutable CLOG verdicts. The links are walked in place; the
        list of survivors is built, and relinked, only for a chain that
        loses a version.
        """
        candidates = self._vacuum_candidates
        if not candidates:
            return 0
        clog = self.clog
        chains = self._chains
        survivors = {}
        removed = 0
        for key in candidates:
            version = chains[key]
            kept = None  # built lazily: only chains that lose a version
            index = 0
            watch = False
            while version is not None:
                cts_min = version.cts_min
                if cts_min is None:
                    cts_min = resolve_creator(version, clog)
                unsettled = cts_min is None
                reclaim = cts_min is ABORTED
                if not reclaim and version.xmax is not None:
                    cts_max = version.cts_max
                    if cts_max is None:
                        cts_max = resolve_deleter(version, clog)
                        unsettled = unsettled or cts_max is None
                    if cts_max is not None and cts_max is not ABORTED:
                        if cts_max <= horizon_ts:
                            reclaim = True
                        else:
                            unsettled = True
                if reclaim:
                    removed += 1
                    if kept is None:
                        kept = self.chain(key)[:index]
                else:
                    if unsettled:
                        watch = True
                    if kept is not None:
                        kept.append(version)
                index += 1
                version = version.older
            if kept is not None:
                self._relink(key, kept)
            if watch:
                survivors[key] = None
        # A fresh dict every pass: a drained dict never gives its table back.
        self._vacuum_candidates = survivors
        self.version_count -= removed
        COUNTERS.vacuum_chains_visited += len(candidates)
        COUNTERS.vacuum_versions_reclaimed += removed
        return removed

    def clear(self):
        """Drop all data (used when cleaning up a migrated-away shard)."""
        self._chains.clear()
        self.version_count = 0
        self._vacuum_candidates = {}
        self._sorted_keys = None
