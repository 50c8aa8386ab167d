"""Zero-sim-time-overhead fast-path counters.

The storage, transaction and migration fast paths — hint bits, snapshot
sharing, group commit, the lock fast path, the batched scan, the routed WAL
tailer (migration and replication pumps alike), coalesced replay — bump
these plain integer attributes as they run, showing how often each one
fires. Incrementing a counter never touches the simulator — no events, no
virtual time, no RNG draws — so the counts can stay on in production runs
and feed the end-to-end benchmark unperturbed.

The counters are deliberately coarse: one increment per *operation* (e.g.
per ``visible_version`` call), not per version traversed, to keep the cost
negligible next to the work being counted. Derived rates (hint hit ratio,
flush coalescing factor) are computed at report time.
"""

from __future__ import annotations


class FastPathCounters:
    """A bag of monotonically increasing integers. No sim interaction."""

    __slots__ = (
        "visibility_checks",
        "visibility_versions",
        "clog_slow_lookups",
        "snapshot_cache_hits",
        "snapshot_cache_misses",
        "wal_flushes",
        "wal_flush_joins",
        "lock_fast_acquires",
        "lock_slow_acquires",
        "migration_scan_batches",
        "migration_pump_skipped",
        "migration_replay_coalesced",
        "repl_ship_batches",
        "failover_elections",
        "stale_epoch_rejects",
        "vacuum_chains_visited",
        "vacuum_versions_reclaimed",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def to_dict(self) -> dict:
        raw = {name: getattr(self, name) for name in self.__slots__}
        raw["derived"] = self.derived()
        return raw

    def derived(self) -> dict:
        """Ratios a report wants: hit rates and coalescing factors."""
        out = {}
        if self.visibility_versions:
            # Every traversed version is at least one creation-visibility
            # probe; only hint misses reach the CLOG.
            out["hint_hit_ratio"] = round(
                1.0 - self.clog_slow_lookups / self.visibility_versions, 4
            )
        snap_total = self.snapshot_cache_hits + self.snapshot_cache_misses
        if snap_total:
            out["snapshot_cache_hit_ratio"] = round(
                self.snapshot_cache_hits / snap_total, 4
            )
        if self.wal_flushes:
            out["wal_flush_coalesced_ratio"] = round(
                self.wal_flush_joins / self.wal_flushes, 4
            )
        lock_total = self.lock_fast_acquires + self.lock_slow_acquires
        if lock_total:
            out["lock_fast_ratio"] = round(self.lock_fast_acquires / lock_total, 4)
        if self.migration_scan_batches:
            out["migration_scan_batches"] = self.migration_scan_batches
        if self.migration_pump_skipped:
            out["migration_pump_skipped"] = self.migration_pump_skipped
        if self.migration_replay_coalesced:
            out["migration_replay_coalesced"] = self.migration_replay_coalesced
        if self.repl_ship_batches:
            out["repl_ship_batches"] = self.repl_ship_batches
        if self.failover_elections:
            out["failover_elections"] = self.failover_elections
        if self.stale_epoch_rejects:
            out["stale_epoch_rejects"] = self.stale_epoch_rejects
        if self.vacuum_chains_visited:
            # Chains vacuum looked at (its candidate set, not the heap) and
            # what that bought: a full sweep would show up here as a visit
            # count near passes x heap keys.
            out["vacuum_chains_visited"] = self.vacuum_chains_visited
            out["vacuum_versions_reclaimed"] = self.vacuum_versions_reclaimed
        return out


#: The process-wide counter instance hot paths increment.
COUNTERS = FastPathCounters()
