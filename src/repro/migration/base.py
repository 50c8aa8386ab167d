"""Migration framework: specs, statistics, the sequential plan runner."""

from repro.cluster.shardmap import SHARDMAP_SHARD


class MigrationStats:
    """Per-migration bookkeeping reported by every approach."""

    def __init__(self):
        self.phase_times = {}  # phase name -> (start, end)
        self.tuples_copied = 0
        self.bytes_copied = 0
        self.records_propagated = 0
        self.records_applied = 0
        self.shadow_txns = 0
        self.ww_conflicts = 0  # MOCC validation conflicts during dual exec
        self.txns_aborted_by_migration = 0
        self.sync_waits = 0  # synchronized source transactions
        self.sync_wait_total = 0.0  # total added latency (Table 3 numerator)
        self.chunks_pulled = 0  # Squall
        self.tm_commit_ts = None
        # Supervisor bookkeeping (chaos runs): crash/recovery outcomes.
        self.crash_recoveries = 0  # crash_migration + recover_migration runs
        self.migration_retries = 0  # rolled-back batches retried
        self.batches_skipped = 0  # batches degraded after exhausted retries
        self.on_phase = None  # optional callback(name) at phase entry

    def phase_start(self, sim, name):
        self.phase_times[name] = (sim.now, None)
        if self.on_phase is not None:
            self.on_phase(name)

    def phase_end(self, sim, name):
        start, _ = self.phase_times.get(name, (sim.now, None))
        self.phase_times[name] = (start, sim.now)

    def phase_duration(self, name):
        start, end = self.phase_times.get(name, (None, None))
        if start is None or end is None:
            return 0.0
        return end - start

    @property
    def avg_sync_wait(self):
        if self.sync_waits == 0:
            return 0.0
        return self.sync_wait_total / self.sync_waits

    def to_dict(self):
        """JSON-safe snapshot of the stats (used by experiment payloads)."""
        return {
            "phase_times": {
                name: [start, end] for name, (start, end) in self.phase_times.items()
            },
            "tuples_copied": self.tuples_copied,
            "bytes_copied": self.bytes_copied,
            "records_propagated": self.records_propagated,
            "records_applied": self.records_applied,
            "shadow_txns": self.shadow_txns,
            "ww_conflicts": self.ww_conflicts,
            "txns_aborted_by_migration": self.txns_aborted_by_migration,
            "sync_waits": self.sync_waits,
            "sync_wait_total": self.sync_wait_total,
            "avg_sync_wait": self.avg_sync_wait,
            "chunks_pulled": self.chunks_pulled,
            "tm_commit_ts": self.tm_commit_ts,
            "crash_recoveries": self.crash_recoveries,
            "migration_retries": self.migration_retries,
            "batches_skipped": self.batches_skipped,
        }

    def merge(self, other):
        """Accumulate another migration's stats (plan-level totals)."""
        self.tuples_copied += other.tuples_copied
        self.bytes_copied += other.bytes_copied
        self.records_propagated += other.records_propagated
        self.records_applied += other.records_applied
        self.shadow_txns += other.shadow_txns
        self.ww_conflicts += other.ww_conflicts
        self.txns_aborted_by_migration += other.txns_aborted_by_migration
        self.sync_waits += other.sync_waits
        self.sync_wait_total += other.sync_wait_total
        self.chunks_pulled += other.chunks_pulled
        self.crash_recoveries += other.crash_recoveries
        self.migration_retries += other.migration_retries
        self.batches_skipped += other.batches_skipped


class BaseMigration:
    """Common state and the one lifecycle of a migration of a shard group.

    ``shard_ids`` may contain several shards (collocated migration, §3.8, or
    arbitrary multi-shard groups); all move from ``source`` to ``dest``
    within one protocol run. Shards whose replication group already has a
    member on the destination are handed over by a pure remastering
    handshake first; every approach then ends through :meth:`finish`. A
    crash (:func:`~repro.migration.recovery.crash_migration`) tears down
    what the attributes below name, except the fences, which recovery
    lifts (:meth:`lift_fences`).
    """

    name = "base"
    propagation = None  # the ISC approaches' WAL propagation pipeline
    mocc = None  # Remus's sync barrier (the source's prepare gate)
    access_hook = None  # per-access hook on the migrating shards
    # Remus's §3.5.1 ablation switches (constructor arguments there).
    use_cache_read_through = True
    cache_refresh_delay = 0.0

    def __init__(self, cluster, shard_ids, source, dest, catchup_threshold=64):
        self.cluster = cluster
        self.sim = cluster.sim
        self.shard_ids = list(shard_ids)
        self.source = source
        self.dest = dest
        self.catchup_threshold = catchup_threshold
        self.stats = MigrationStats()
        self.copy_tasks = []  # data-moving processes a crash interrupts
        self._tm_txn = None  # in-flight T_m handle for 2PC crash recovery
        # Destination WAL position when the migration began: a replicated
        # shard's post-handover pump starts here, covering every record the
        # migration lands on the destination without rescanning history.
        self._dest_wal_floor = cluster.nodes[dest].wal.tail_lsn
        for shard_id in self.shard_ids:
            if cluster.shard_owner(shard_id) != source:
                raise ValueError(
                    "shard {!r} not on source {!r}".format(shard_id, source)
                )
        # Until the migration ends, the destination's WAL is not recycled
        # past the floor: a replicated shard's rehomed pump reads from it.
        if any(cluster.replication.is_replicated(s) for s in self.shard_ids):
            cluster.nodes[dest].wal.hold(self, self._dest_wal_floor)

    @property
    def source_node(self):
        return self.cluster.nodes[self.source]

    @property
    def dest_node(self):
        return self.cluster.nodes[self.dest]

    def run(self):
        """Generator: execute the whole migration protocol."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def transfer_ownership(self, label="tm", guarded=True):
        """Generator: every approach's one ownership flip — T_m, then the
        new owner pushed into every coordinator cache; returns T_m's commit
        timestamp. ``guarded`` transfers run under live transactions: a
        bounded announcement (pre-T_m, an unreachable node just fails the
        migration) puts the caches in read-through until the refresh lands
        (§3.5.1). The refresh is persistent: a committed T_m is decided and,
        like a 2PC decision, is retransmitted until every node hears it."""
        if guarded:
            yield from self.cluster.rpc_broadcast(self.source, 64)
            if self.use_cache_read_through:
                self.cluster.set_cache_read_through(self.shard_ids)
        commit_ts = yield from self.update_shard_map(label)
        if guarded and self.cache_refresh_delay:
            yield self.cache_refresh_delay
        yield from self.cluster.rpc_broadcast(self.source, 128, persistent=True)
        for shard_id in self.shard_ids:
            self.cluster.refresh_caches(shard_id, self.dest, commit_ts)
        if guarded:
            self.cluster.clear_cache_read_through(self.shard_ids)
        return commit_ts

    def update_shard_map(self, label):
        """Generator: run T_m — the distributed transaction that updates the
        shard map row for every migrating shard on every node, committed with
        2PC (§3.5.1). Returns T_m's commit timestamp.

        The transaction handle is stashed on the migration (``_tm_txn``) so
        that crash recovery (§3.7) can resolve an in-doubt T_m with standard
        2PC recovery if the migration machinery dies mid-flight.
        """
        session = self.cluster.session(self.source)
        txn = yield from session.begin(label="__{}__".format(label), internal=True)
        self._tm_txn = txn
        for node_id in self.cluster.node_ids():
            node = self.cluster.nodes[node_id]
            if node_id != self.source:
                yield from self.cluster.rpc_send(self.source, node_id, 256)
            for shard_id in self.shard_ids:
                yield from node.manager.update(
                    txn, SHARDMAP_SHARD, shard_id, self.dest, size=64
                )
        commit_ts = yield from session.commit(txn)
        for shard_id in self.shard_ids:
            self.cluster.record_ownership(shard_id, self.dest)
        self.stats.tm_commit_ts = commit_ts
        return commit_ts

    def install_access_hook(self, hook):
        """Run ``hook.before_access`` on every access to a migrating shard
        until :meth:`lift_fences`."""
        self.access_hook = hook
        for shard_id in self.shard_ids:
            self.cluster.add_access_hook(shard_id, hook)

    def lift_fences(self):
        """Remove what guards the source copy against pre-T_m writers: the
        MOCC prepare gate (sync barrier, or the fence a crash made of it)
        and the access hook. Until then a crash leaves both standing."""
        if self.mocc is not None:
            self.mocc.remove()
        if self.access_hook is not None:
            for shard_id in self.shard_ids:
                self.cluster.remove_access_hook(shard_id, self.access_hook)

    def detached_cleanup(self):
        """Generator for a detached process that lets a migration end at
        once (lock-and-abort, Squall): wait out the pre-T_m transactions,
        lift the fences, tear down propagation where there is one,
        then :meth:`finish`."""
        yield from self.cluster.wait_out(self.stats.tm_commit_ts)
        self.lift_fences()
        yield from self.teardown_propagation()
        yield from self.finish()

    def teardown_propagation(self):
        """Generator: let replay drain, then stop the send process (where
        there is one)."""
        if self.propagation is None:
            return
        yield self.propagation.wait_applied_through(self.source_node.wal.tail_lsn)
        yield from self.propagation.drain()
        self.propagation.stop()

    def finish(self):
        """Generator: every migration's one ending (and crash recovery's
        ``completed`` one), once the destination owns the shards and their
        data: rehome each replicated shard's group onto the destination
        (epoch bump), release the destination's WAL, and drop the source
        copy of each unreplicated shard — the old leader of a replicated
        one stays in its group as a follower."""
        for shard_id in self.shard_ids:
            group = self.cluster.replication.group_for(shard_id)
            if group is not None:
                yield from group.rehome(self.dest, from_lsn=self._dest_wal_floor)
        self.release_dest_wal()
        for shard_id in self.shard_ids:
            if not self.cluster.replication.is_replicated(shard_id):
                self.source_node.drop_shard(shard_id)

    def release_dest_wal(self):
        """Let the destination recycle its WAL past ``_dest_wal_floor``."""
        self.dest_node.wal.release(self)

    # ------------------------------------------------------------------
    # Prepositioned destinations (STAR-style asymmetric availability)
    # ------------------------------------------------------------------
    def remaster_prepositioned(self):
        """Generator: hand over every *prepositioned* shard — one whose
        replication group already has a member on the destination — with a
        pure remastering handshake, and narrow the migration to the rest.
        Returns the remaining ids.

        The group feed is the only legal write path into a member's heap,
        so no approach may copy, propagate or pull into it: a stale copied
        row prepended over a newer replicated version would shadow
        committed updates (lost updates)."""
        replication = self.cluster.replication
        pre, rest = [], []
        for shard_id in self.shard_ids:
            group = replication.group_for(shard_id)
            if group is not None and group.replica_on(self.dest) is not None:
                pre.append(shard_id)
            else:
                rest.append(shard_id)
        if not pre:
            return rest
        # Close the routing gate, wait for on-the-fly transactions, drain the
        # group feed (the propagation pipeline here) so the destination
        # holds every committed change, flip the shard map, rehome.
        self.shard_ids = pre
        self.stats.phase_start(self.sim, "ownership_transfer")
        self.cluster.close_routing_gate()
        try:
            yield from self.wait_on_the_fly()
            groups = [replication.group_for(shard_id) for shard_id in pre]
            for group in groups:
                yield from group.drain()
            yield from self.transfer_ownership(guarded=False)
            for group in groups:
                yield from group.rehome(self.dest, from_lsn=self._dest_wal_floor)
        finally:
            self.cluster.open_routing_gate()
        self.stats.phase_end(self.sim, "ownership_transfer")
        self.shard_ids = rest
        return rest

    def wait_on_the_fly(self):
        """Generator: wait for every running user transaction, booking the
        wait as sync wait."""
        stats = self.stats
        ongoing = [
            txn.tid for txn in self.cluster.snapshot_active_txns() if not txn.is_shadow
        ]
        stats.sync_waits += len(ongoing)
        wait_start = self.sim.now
        yield self.cluster.wait_for_txns(ongoing)
        stats.sync_wait_total += self.sim.now - wait_start

    def active_writers_of_shards(self):
        """Active transactions that have written any migrating shard."""
        shard_set = set(self.shard_ids)
        writers = []
        for txn in self.cluster.snapshot_active_txns():
            if txn.is_shadow:
                continue
            if any(shard_set & p.wrote_shards for p in txn.participants.values()):
                writers.append(txn)
        return writers


class MigrationPlan:
    """A sequence of migration batches executed back to back, as in §4.4
    ("two shards are migrated together each time, resulting in 30
    consecutive migrations")."""

    def __init__(self, approach_cls, batches, pause=0.0, **kwargs):
        """``batches`` is a list of (shard_ids, source, dest)."""
        self.approach_cls = approach_cls
        self.batches = batches
        self.pause = pause
        self.kwargs = kwargs
        self.stats = MigrationStats()
        self.migrations = []


def run_plan(cluster, plan):
    """Generator: run every batch in ``plan`` sequentially.

    Marks ``migration_start`` / ``migration_end`` (whole plan) and
    ``batch_start`` / ``batch_end`` (each batch) in the cluster metrics, as
    the vertical lines in the paper's figures do.
    """
    cluster.metrics.mark("migration_start")
    for shard_ids, source, dest in plan.batches:
        cluster.metrics.mark("batch_start")
        migration = plan.approach_cls(cluster, shard_ids, source, dest, **plan.kwargs)
        plan.migrations.append(migration)
        yield from migration.run()
        plan.stats.merge(migration.stats)
        cluster.metrics.mark("batch_end")
        if plan.pause:
            yield plan.pause
    cluster.metrics.mark("migration_end")
    return plan.stats


class Migration:
    """The one front door to every migration approach.

    Historically each family had its own entry point (``IscMigration``
    subclasses, ``SquallMigration``, ``StopAndCopyMigration``) and callers
    wired classes, plans and ``run_plan`` together by hand. This facade
    unifies them: resolve an approach by name or class, build a plan, and
    launch it — ``experiments/common.py::migrate_and_settle``, and with it
    every experiment harness, delegates here.
    """

    @staticmethod
    def resolve(approach):
        """Approach name (or migration class, passed through) -> class."""
        if isinstance(approach, type) and issubclass(approach, BaseMigration):
            return approach
        from repro.migration import APPROACHES

        try:
            return APPROACHES[approach]
        except KeyError:
            raise ValueError(
                "unknown approach {!r}; pick one of {}".format(
                    approach, sorted(APPROACHES)
                )
            ) from None

    @staticmethod
    def plan(approach, batches, pause=0.0, **kwargs):
        """Build a :class:`MigrationPlan` for an approach name or class."""
        return MigrationPlan(Migration.resolve(approach), batches, pause=pause, **kwargs)

    @staticmethod
    def launch(cluster, plan):
        """Generator: run ``plan`` on ``cluster``; returns the plan's
        :class:`MigrationStats`. Spawn it to run in the background::

            plan = Migration.plan("remus", batches)
            proc = cluster.spawn(Migration.launch(cluster, plan), name="consolidation")
        """
        return run_plan(cluster, plan)


def spread_batches(cluster, shards, source, group_size):
    """Batches that move ``shards`` off ``source`` in groups of
    ``group_size``, spread over the other nodes round-robin."""
    targets = [n for n in cluster.node_ids() if n != source]
    return [
        (shards[i : i + group_size], source, targets[(i // group_size) % len(targets)])
        for i in range(0, len(shards), group_size)
    ]


def consolidation_batches(cluster, source, table=None, group_size=2):
    """Batches that empty ``source`` (the cluster consolidation scenario,
    §4.4)."""
    shards = cluster.shards_on_node(source, table=table)
    return spread_batches(cluster, shards, source, group_size)
