"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hashing import (
    HASH_SPACE,
    consistent_hash,
    shard_index_for_hash,
    split_hash_space,
)
from repro.metrics.series import bin_series, downtime_windows, moving_average
from repro.sim import Simulator
from repro.storage import Clog, HeapTable, Snapshot, TxnStatus
from repro.storage.snapshot import UNDECIDED
from repro.storage.tuples import ABORTED
from repro.txn.timestamps import HybridLogicalClock, decode_hlc, encode_hlc
from repro.workloads.zipf import ZipfGenerator


# ----------------------------------------------------------------------
# Hybrid logical clocks
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10**15), min_size=1, max_size=50))
def test_hlc_now_is_strictly_monotonic(observed):
    sim = Simulator()
    clock = HybridLogicalClock(sim)
    last = 0
    for ts in observed:
        clock.update(ts)
        current = clock.now()
        assert current > last
        assert current > ts  # causality: after observing ts, we are past it
        last = current


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**16 - 1),
)
def test_hlc_encode_decode_roundtrip(physical, logical):
    ts = encode_hlc(physical, logical)
    assert decode_hlc(ts) == (physical, logical)


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_hlc_tracks_physical_time(now):
    sim = Simulator()
    sim.now = now
    clock = HybridLogicalClock(sim)
    physical, _logical = decode_hlc(clock.now())
    assert physical == int(now * 1e6)


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=64), st.integers())
def test_every_key_maps_to_exactly_one_shard_range(num_shards, key):
    ranges = split_hash_space(num_shards)
    h = consistent_hash(key)
    containing = [i for i, r in enumerate(ranges) if h in r]
    assert len(containing) == 1
    assert containing[0] == shard_index_for_hash(h, num_shards)


@given(st.integers(min_value=1, max_value=64))
def test_shard_ranges_tile_the_ring(num_shards):
    ranges = split_hash_space(num_shards)
    assert ranges[0].lo == 0
    assert ranges[-1].hi == HASH_SPACE
    for left, right in zip(ranges, ranges[1:]):
        assert left.hi == right.lo


@given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=32))
def test_chunk_split_tiles_the_shard_range(num_shards, chunks):
    shard_range = split_hash_space(num_shards)[0]
    pieces = shard_range.split(chunks)
    assert pieces[0].lo == shard_range.lo
    assert pieces[-1].hi == shard_range.hi
    assert sum(p.width for p in pieces) == shard_range.width


@given(st.data())
def test_consistent_hash_is_deterministic(data):
    key = data.draw(st.one_of(st.integers(), st.text(max_size=20), st.tuples(st.integers())))
    assert consistent_hash(key) == consistent_hash(key)
    assert 0 <= consistent_hash(key) < HASH_SPACE


# ----------------------------------------------------------------------
# MVCC visibility against a reference model
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=120),
)
@settings(max_examples=60)
def test_visible_version_matches_reference_model(gaps, read_ts):
    """Committed versions at strictly increasing timestamps: a read at ts
    must return the newest version with commit_ts <= ts."""
    sim = Simulator()
    clog = Clog(sim)
    heap = HeapTable(sim, clog)
    commit_times = []
    cursor = 0
    for i, gap in enumerate(gaps):
        cursor += gap
        xid = i + 1
        clog.begin(xid)
        previous = heap.chain("k")[0] if "k" in heap else None
        if previous is not None:
            heap.mark_deleted(previous, xid)
        heap.put_version("k", "v{}".format(cursor), xid)
        clog.set_committed(xid, cursor)
        commit_times.append(cursor)

    def read():
        value, _n = yield from heap.read("k", Snapshot(read_ts))
        return value

    value = sim.run_until_complete(sim.spawn(read()))
    visible = [t for t in commit_times if t <= read_ts]
    expected = "v{}".format(max(visible)) if visible else None
    assert value == expected


# ----------------------------------------------------------------------
# Hint-bit visibility against the CLOG-only reader it replaced
# ----------------------------------------------------------------------
#: The reference reader's verdict when it would prepare-wait.
_WAIT = "prepare-wait"


def _clog_only_read(chain, snapshot, clog):
    """The reader ``HeapTable`` had before hint bits: every version goes to
    the CLOG, nothing is stamped. Kept here, and only here, as the oracle.
    Returns ``(version_or_None, versions_traversed)`` or ``(_WAIT, None)``."""

    def committed_for_us(xid):
        if xid == snapshot.xid:
            return True
        status = clog.status(xid)
        if status is TxnStatus.PREPARED:
            return _WAIT
        return status is TxnStatus.COMMITTED and clog.commit_ts(xid) <= snapshot.start_ts

    for traversed, version in enumerate(chain, 1):
        created = committed_for_us(version.xmin)
        if created is _WAIT:
            return _WAIT, None
        if not created:
            continue
        if version.xmax is None:
            return version, traversed
        deleted = committed_for_us(version.xmax)
        if deleted is _WAIT:
            return _WAIT, None
        return (None if deleted else version), traversed
    return None, len(chain)


def _first_step(generator):
    """Run a visibility generator to its first yield: its return value, or
    ``(_WAIT, None)`` if it parks on a prepare-wait."""
    try:
        generator.send(None)
    except StopIteration as stop:
        return stop.value
    generator.close()
    return _WAIT, None


_XIDS = 6  # xid 0 is the reader's own transaction and stays IN_PROGRESS
_XID = st.integers(min_value=0, max_value=_XIDS - 1)
_FATE = st.tuples(
    st.sampled_from(list(TxnStatus)), st.integers(min_value=1, max_value=4)
)


@given(
    st.lists(st.tuples(_XID, st.none() | _XID), min_size=1, max_size=6),
    st.lists(_FATE, min_size=_XIDS - 1, max_size=_XIDS - 1),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # snapshot start_ts
            st.booleans(),  # read as xid 0 (sees its own writes)
            st.none() | st.tuples(_XID, st.booleans()),  # then settle an xid
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=400, deadline=None)
def test_hint_bits_match_the_clog_only_reader(chain_spec, fates, reads):
    """Mixed-fate chains — creators and deleters COMMITTED, ABORTED,
    IN_PROGRESS or PREPARED, with the reader's own writes among them — read
    repeatedly, so later reads trust the hints earlier ones stamped, while
    in-doubt writers settle in between. Every answer matches the CLOG-only
    reader: ``visible_version`` (version and chain positions walked, or a
    prepare-wait), ``latest_committed_or_locked``, and
    ``scan_visible_fast`` whenever it decides without a fallback."""
    sim = Simulator()
    clog = Clog(sim)
    heap = HeapTable(sim, clog)
    for xid in range(_XIDS):
        clog.begin(xid)
    for (status, commit_ts), xid in zip(fates, range(1, _XIDS)):
        if status is TxnStatus.PREPARED:
            clog.set_prepared(xid)
        elif status is TxnStatus.COMMITTED:
            clog.set_committed(xid, commit_ts)
        elif status is TxnStatus.ABORTED:
            clog.set_aborted(xid)
    for creator, deleter in reversed(chain_spec):
        version = heap.put_version("k", "v", creator)
        if deleter is not None:
            heap.mark_deleted(version, deleter)
    chain = heap.chain("k")

    for start_ts, own, settle in reads:
        snapshot = Snapshot(start_ts, xid=0 if own else None)
        expected = _clog_only_read(chain, snapshot, clog)
        scanned = heap.scan_visible_fast("k", snapshot)
        if scanned is not UNDECIDED:
            assert scanned is expected[0]
        assert _first_step(heap.visible_version("k", snapshot)) == expected
        latest = next(
            (v for v in chain if clog.status(v.xmin) is not TxnStatus.ABORTED), None
        )
        assert heap.latest_committed_or_locked("k") is latest
        if settle is not None and settle[0] != 0 and not clog.is_finished(settle[0]):
            xid, commit = settle
            if commit:
                clog.set_committed(xid, fates[xid - 1][1])
            else:
                clog.set_aborted(xid)


# ----------------------------------------------------------------------
# Candidate-set vacuum against the whole-heap sweep it replaced
# ----------------------------------------------------------------------
def _reference_sweep(heap, horizon_ts, hints):
    """The vacuum ``HeapTable`` had before the candidate set: walk every
    chain of the heap and probe the CLOG for every version. Kept here, and
    only here, as the oracle; ``hints`` is the old ``fastpath.clog_hints``
    fork (trust and stamp the hint bits, or go to the CLOG for everything).
    """
    clog = heap.clog
    removed = 0
    for key in list(heap._chains):
        kept = []
        for version in heap._chains[key]:
            reclaim = False
            if hints and version.cts_min is ABORTED:
                reclaim = True
            elif clog.status(version.xmin) is TxnStatus.ABORTED:
                if hints:
                    version.cts_min = ABORTED
                reclaim = True
            elif version.xmax is not None:
                cts_max = version.cts_max if hints else None
                if cts_max is None:
                    if clog.status(version.xmax) is TxnStatus.COMMITTED:
                        cts_max = clog.commit_ts(version.xmax)
                        if hints:
                            version.cts_max = cts_max
                if cts_max is not None and cts_max is not ABORTED:
                    reclaim = cts_max <= horizon_ts
            if reclaim:
                removed += 1
            else:
                kept.append(version)
        if kept:
            heap._chains[key] = kept
        else:
            del heap._chains[key]
            heap._index_discard(key)
    heap.version_count -= removed
    return removed


def _chains_of(heap):
    return [
        (key, [(v.xmin, v.xmax) for v in heap.chain(key)]) for key in heap.keys()
    ]


_PICK = st.integers(min_value=0, max_value=2)
_TS = st.integers(min_value=1, max_value=8)
_HORIZON = st.integers(min_value=0, max_value=9)
_HEAP_OPS = st.one_of(
    st.tuples(st.just("write"), _PICK, _PICK),
    st.tuples(st.just("delete"), _PICK, _PICK),
    st.tuples(st.just("commit"), _PICK, _TS),
    st.tuples(st.just("commit"), _PICK, _TS),
    st.tuples(st.just("abort"), _PICK),
    st.tuples(st.just("prepare"), _PICK),
    st.tuples(st.just("put"), _PICK, _PICK, st.booleans()),
    st.tuples(st.just("mark"), _PICK, _PICK, _PICK),
    st.tuples(st.just("unmark"), _PICK, _PICK),
    st.tuples(st.just("remove"), _PICK, _PICK),
    st.tuples(st.just("scan"), _PICK, _TS),
)


class _HeapUnderTest:
    """One heap + CLOG driven by the drawn operations. Two of these replay
    the same operations; they differ only in how they vacuum.

    Transactions live in three slots. ``write`` and ``delete`` are what
    the transaction layer does (stamp the newest version's ``xmax`` and, for
    a write, prepend the new one) and open a fresh transaction when their
    slot's last one has finished; ``put``/``mark``/``unmark``/``remove`` are
    the bare heap calls, also on behalf of finished transactions.
    """

    KEYS = 2

    def __init__(self, preload):
        sim = Simulator()
        self.clog = Clog(sim)
        self.heap = HeapTable(sim, self.clog)
        self.heap.sorted_keys()  # switch the incremental key index on
        self.slots = {}
        self.next_xid = 1
        if preload:  # a bulk load: committed rows that are no candidates
            self.clog.begin(0)
            self.clog.set_committed(0, 0)
            for key in range(self.KEYS):
                self.heap.put_version(key, "v", 0, committed=True)

    def _xid(self, slot, fresh=False):
        xid = self.slots.get(slot)
        if xid is None or (fresh and self.clog.is_finished(xid)):
            xid = self.slots[slot] = self.next_xid
            self.next_xid += 1
            self.clog.begin(xid)
        return xid

    def _version(self, key_pick, version_pick):
        chain = self.heap.chain(key_pick % self.KEYS)
        return chain[version_pick % len(chain)] if chain else None

    def apply(self, op):
        kind, args = op[0], op[1:]
        heap, clog = self.heap, self.clog
        if kind in ("write", "delete"):
            key, xid = args[0] % self.KEYS, self._xid(args[1], fresh=True)
            if key in heap:
                heap.mark_deleted(heap.chain(key)[0], xid)
            if kind == "write":
                heap.put_version(key, "v", xid)
        elif kind == "put":
            xid = self._xid(args[1])
            # ``committed=True`` is a promise only a committed creator keeps.
            vouch = args[2] and clog.status(xid) is TxnStatus.COMMITTED
            heap.put_version(args[0] % self.KEYS, "v", xid, committed=vouch)
        elif kind == "mark":
            version = self._version(args[0], args[1])
            if version is not None:
                heap.mark_deleted(version, self._xid(args[2]))
        elif kind == "unmark":
            version = self._version(*args)
            if version is not None and version.xmax is not None:
                heap.unmark_deleted(version, version.xmax)
        elif kind == "remove":
            version = self._version(*args)
            if version is not None:
                heap.remove_version(version)
        elif kind == "scan":
            found = heap.scan_visible_fast(args[0] % self.KEYS, Snapshot(args[1]))
            return getattr(found, "xmin", found)
        else:
            xid = self.slots.get(args[0])
            if xid is None or clog.is_finished(xid):
                return None
            if kind == "commit":
                clog.set_committed(xid, args[1])
            elif kind == "abort":
                clog.set_aborted(xid)
            elif clog.status(xid) is TxnStatus.IN_PROGRESS:
                clog.set_prepared(xid)
        return None


@given(
    st.lists(st.tuples(_HEAP_OPS, st.none() | _HORIZON), min_size=8, max_size=40),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_candidate_vacuum_equals_whole_heap_sweep(steps, preload, reference_hints):
    """Whatever the history — aborts, re-stamped and rolled-back ``xmax``,
    physical removals, horizons that hold and then move, hint bits stamped
    by scans in between — visiting only the candidates reclaims exactly
    what sweeping every chain does. Most steps vacuum right after their
    operation, so keys keep leaving the set and must find their way back."""
    subject, reference = _HeapUnderTest(preload), _HeapUnderTest(preload)
    for op, horizon in list(steps) + [(("scan", 0, 1), 9)]:
        assert subject.apply(op) == reference.apply(op)
        if horizon is None:
            continue
        removed = subject.heap.vacuum(horizon)
        assert removed == _reference_sweep(reference.heap, horizon, reference_hints)
        assert _chains_of(subject.heap) == _chains_of(reference.heap)
        assert subject.heap.version_count == reference.heap.version_count
        assert subject.heap.version_count == sum(
            len(chain) for _key, chain in _chains_of(subject.heap)
        )
        assert subject.heap.sorted_keys() == sorted(subject.heap.keys())
        assert subject.heap.vacuum(horizon) == 0  # nothing left at this horizon


# ----------------------------------------------------------------------
# Metrics helpers
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=99.99, allow_nan=False),
            st.integers(min_value=1, max_value=10),
        ),
        max_size=50,
    )
)
def test_bin_series_preserves_totals(points):
    series = bin_series(points, bin_width=1.0, start=0.0, end=100.0)
    assert len(series) == 100
    total_in = sum(w for _t, w in points)
    total_out = sum(rate * 1.0 for _t, rate in series)
    assert abs(total_in - total_out) < 1e-6


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=30)
)
def test_downtime_never_exceeds_window(times):
    longest, total = downtime_windows(sorted(times), 0.0, 100.0, min_window=0.5)
    assert 0.0 <= longest <= 100.0
    assert 0.0 <= total <= 100.0 + 1e-9
    assert longest <= total or total == 0.0


@given(
    st.lists(
        st.tuples(st.integers(0, 100), st.floats(0, 1000, allow_nan=False)),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=10),
)
def test_moving_average_stays_within_bounds(series, window):
    smoothed = moving_average(series, window)
    lo = min(v for _t, v in series)
    hi = max(v for _t, v in series)
    assert all(lo - 1e-9 <= v <= hi + 1e-9 for _t, v in smoothed)
    assert len(smoothed) == len(series)


# ----------------------------------------------------------------------
# Zipf
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=2**31))
def test_zipf_samples_in_domain(n, seed):
    from repro.sim.rng import RngStream

    gen = ZipfGenerator(n)
    rng = RngStream(seed)
    for _ in range(10):
        assert 0 <= gen.sample(rng) < n
