"""Global switches for the transaction-layer fast paths.

Every optimization in this module's purview is *semantics-preserving*: with a
flag on or off the simulated timeline must be byte-identical (proven by
``tests/test_fastpath_equivalence.py``). The flags exist so that

- the equivalence tests can run every scenario with the optimizations
  disabled and compare canonical timelines against the fast runs, and
- the txn microbenchmarks (``repro.bench.txn_bench``) can attribute their
  speedup to specific mechanisms instead of asserting it.

The flags are plain module globals so the hot paths pay a single attribute
load to consult them (no dataclass indirection, no function call).

Flags
-----
``clog_hints``
    Stamp PostgreSQL-style visibility hints (the creating/deleting
    transaction's resolved commit timestamp, or an ABORTED marker) on tuple
    headers, so repeat visibility checks skip the CLOG entirely.
``snapshot_cache``
    Reuse one :class:`~repro.storage.snapshot.Snapshot` object per
    (transaction, node) and share epoch-tagged read snapshots instead of
    rebuilding the active-xid set per transaction.
``group_commit``
    Coalesce WAL flushes completing at the same simulated instant into one
    flush event with a single cost-model charge (per-record LSNs are
    assigned at append time and unaffected).
``lock_fastpath``
    O(1) uncontended lock acquire/release with no event allocation and no
    queue scan; contended requests take the FIFO slow path unchanged.
``migration_scan``
    Indexed snapshot scan (§3.2): per-shard heaps keep an incrementally
    sorted key index so the migration snapshot copy (and crash-recovery
    repair scan) stops re-sorting the whole heap per copy, decides
    visibility inline over runs of hint-bit-clean tuples, and charges the
    scan CPU once per tuple batch with identical totals.
``migration_pump``
    Shard-routed WAL pump (§3.3): the WAL keeps a per-shard record routing
    index so the propagation send process consumes only records touching
    the migrating shard set — skipped records still advance the reader and
    its CPU-charge accounting at the exact legacy boundaries.
``migration_replay``
    Batched replay dispatch (§3.3/§3.6): replay slots pull coalesced
    per-transaction change vectors (the per-record kind dispatch is
    resolved once, when the transfer is scheduled) and applied-watermark
    waiters resolve through a sorted cursor instead of a linear sweep per
    record.
``batch_workload``
    Population-level arrival dispatch (``repro.workloads.batch``): one
    dispatcher process walks the shared arrival schedule and spawns
    transaction runners, instead of one pacer process per simulated client.
    Timeline-byte-identical to the per-client mode (arrival instants come
    from the same RNG draws and are globally unique). Defaults **off**: it
    swaps the driving machinery rather than a hot path inside it, so the
    storm harness and ``repro bench --cluster`` opt in explicitly.

No flag selects the event loop: every run drives the one
:class:`~repro.sim.kernel.Simulator`.
"""

from __future__ import annotations

from contextlib import contextmanager

clog_hints: bool = True
snapshot_cache: bool = True
group_commit: bool = True
lock_fastpath: bool = True
migration_scan: bool = True
migration_pump: bool = True
migration_replay: bool = True
batch_workload: bool = False

_FLAG_NAMES = (
    "clog_hints",
    "snapshot_cache",
    "group_commit",
    "lock_fastpath",
    "migration_scan",
    "migration_pump",
    "migration_replay",
    "batch_workload",
)


def flags() -> dict:
    """Current flag values as a dict (for reports and tests)."""
    return {name: globals()[name] for name in _FLAG_NAMES}


def configure(**values: bool) -> dict:
    """Set flags by name; returns the previous values of the touched flags."""
    previous = {}
    for name, value in values.items():
        if name not in _FLAG_NAMES:
            raise ValueError(
                "unknown fast-path flag {!r}; known: {}".format(name, _FLAG_NAMES)
            )
        previous[name] = globals()[name]
        globals()[name] = bool(value)
    return previous


@contextmanager
def overridden(**values: bool):
    """Context manager: temporarily set flags, restoring them on exit."""
    previous = configure(**values)
    try:
        yield
    finally:
        configure(**previous)


def all_disabled():
    """Context manager: run with every fast path off (the legacy paths)."""
    return overridden(**{name: False for name in _FLAG_NAMES})
