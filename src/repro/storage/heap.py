"""Versioned heap tables: one per shard per node.

A heap table stores version chains newest-first per primary key, exactly the
structure the paper's protocols manipulate: MVCC reads traverse the chain
until the first version visible to the reader's snapshot; updates append a
new version and stamp the old one's ``xmax``; vacuum trims versions that no
active snapshot can see (long snapshot scans hold vacuum back, which is the
mechanism behind the paper's Figure 10 throughput dip).

Vacuum does not sweep the heap: the table keeps a *candidate set* of the
keys whose chain may hold garbage now or later (fed by ``put_version`` and
``mark_deleted``, drained by ``vacuum`` itself), so a pass costs what the
churn since the last pass costs, not what the heap holds. The invariant is
spelled out on :meth:`HeapTable.vacuum` and in DESIGN.md §9.

Hot-path note: :meth:`HeapTable.visible_version` decides visibility through
the non-blocking hint-bit checks (``creation_visible_fast``) and only falls
back to the blocking generator when a writer is PREPARED, so the common
read pays no sub-generator frames and, once hints are stamped, no CLOG
lookups at all. Hints cache terminal CLOG verdicts, so every answer is the
one a CLOG-only reader would give; ``tests/test_properties.py`` keeps that
reader as the oracle.
"""

from bisect import bisect_left, insort

from repro.profiling.counters import COUNTERS
from repro.storage.clog import TxnStatus
from repro.storage.snapshot import (
    UNDECIDED,
    creation_visible,
    creation_visible_fast,
    deletion_visible,
    deletion_visible_fast,
    version_is_dead,
)
from repro.storage.tuples import ABORTED, TupleVersion


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
        """Version chain for ``key``, newest first (empty if unknown)."""
        return self._chains.get(key, [])

    def chain_length(self, key):
        return len(self._chains.get(key, ()))

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

    # ------------------------------------------------------------------
    # Physical mutation (called by the transaction layer under locks)
    # ------------------------------------------------------------------
    def put_version(self, key, value, xmin, committed=False):
        """Prepend a new version for ``key`` created by ``xmin``.

        The key becomes a vacuum candidate (``xmin`` may still abort) unless
        the caller passes ``committed=True``, vouching that ``xmin`` is
        already COMMITTED in this node's CLOG: such a version carries no
        ``xmax`` and can only turn into garbage through a later
        :meth:`mark_deleted`, which enrols the key itself. Bulk loads use
        it so that set-up pays nothing for rows that are never updated.
        """
        version = TupleVersion(key, value, xmin)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = []
            if self._sorted_keys is not None:
                insort(self._sorted_keys, key)
        chain.insert(0, version)
        self.version_count += 1
        if not committed:
            self._vacuum_candidates[key] = None
        return version

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
        chain = self._chains.get(version.key)
        if chain and version in chain:
            chain.remove(version)
            self.version_count -= 1
            if not chain:
                del self._chains[version.key]
                self._index_discard(version.key)
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
            for version in list(self.chain(key)):
                traversed += 1
                hint = version.cts_min
                if hint is not None:
                    if hint is ABORTED or hint > start_ts:
                        continue
                else:
                    created = creation_visible_fast(version, snapshot, clog)
                    if created is UNDECIDED:
                        created = yield from creation_visible(version, snapshot, clog)
                    if not created:
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
        if version is None:
            return None, traversed
        return version.value, traversed

    def latest_committed_or_locked(self, key):
        """Newest version not created by an aborted transaction (or None).

        This is the version an updater contends on after acquiring the row
        lock: it is either committed, prepared or belongs to the lock holder.
        """
        clog = self.clog
        for version in self.chain(key):
            hint = version.cts_min
            if hint is not None:
                if hint is ABORTED:
                    continue
                return version
            status = clog.status(version.xmin)
            if status is TxnStatus.ABORTED:
                version.cts_min = ABORTED
                continue
            if status is TxnStatus.COMMITTED:
                version.cts_min = clog.commit_ts(version.xmin)
            return version
        return None

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
        for version in self._chains.get(key, ()):
            traversed += 1
            hint = version.cts_min
            if hint is None:
                status = clog.status(version.xmin)
                if status is TxnStatus.ABORTED:
                    version.cts_min = ABORTED
                    continue
                if status is not TxnStatus.COMMITTED:
                    return UNDECIDED
                hint = version.cts_min = clog.commit_ts(version.xmin)
            if hint is ABORTED or hint > start_ts:
                continue
            # Creation visible: the row survives iff its deletion is not.
            if version.xmax is None:
                outcome = version
                break
            dhint = version.cts_max
            if dhint is None:
                status = clog.status(version.xmax)
                if status is TxnStatus.ABORTED:
                    version.cts_max = ABORTED
                    outcome = version
                    break
                if status is not TxnStatus.COMMITTED:
                    return UNDECIDED
                dhint = version.cts_max = clog.commit_ts(version.xmax)
            if dhint is ABORTED or dhint > start_ts:
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
        terminal, immutable CLOG verdicts. Chains that lose nothing are kept
        in place (no list rebuild).
        """
        candidates = self._vacuum_candidates
        if not candidates:
            return 0
        entry_of = self.clog.entry
        chains = self._chains
        survivors = {}
        removed = 0
        for key in candidates:
            chain = chains[key]
            kept = None  # built lazily: only chains that lose a version
            watch = False
            for index, version in enumerate(chain):
                cts_min = version.cts_min
                unsettled = False
                if cts_min is None:
                    status = entry_of(version.xmin)[0]
                    if status is TxnStatus.ABORTED:
                        cts_min = version.cts_min = ABORTED
                    else:
                        unsettled = status is not TxnStatus.COMMITTED
                reclaim = cts_min is ABORTED
                if not reclaim and version.xmax is not None:
                    cts_max = version.cts_max
                    if cts_max is None:
                        status, commit_ts = entry_of(version.xmax)
                        if status is TxnStatus.COMMITTED:
                            cts_max = version.cts_max = commit_ts
                        elif status is not TxnStatus.ABORTED:
                            unsettled = True
                    if cts_max is not None and cts_max is not ABORTED:
                        if cts_max <= horizon_ts:
                            reclaim = True
                        else:
                            unsettled = True
                if reclaim:
                    removed += 1
                    if kept is None:
                        kept = chain[:index]
                else:
                    if unsettled:
                        watch = True
                    if kept is not None:
                        kept.append(version)
            if kept is not None:
                if kept:
                    chains[key] = kept
                else:
                    del chains[key]
                    self._index_discard(key)
            if watch:
                survivors[key] = None
        # A fresh dict every pass: a drained dict never gives its table back.
        self._vacuum_candidates = survivors
        self.version_count -= removed
        COUNTERS.vacuum_chains_visited += len(candidates)
        COUNTERS.vacuum_versions_reclaimed += removed
        return removed

    def is_dead(self, version):
        return version_is_dead(version, self.clog)

    def clear(self):
        """Drop all data (used when cleaning up a migrated-away shard)."""
        self._chains.clear()
        self.version_count = 0
        self._vacuum_candidates = {}
        self._sorted_keys = None
