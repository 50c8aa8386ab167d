"""Self-healing migration supervision.

:func:`~repro.migration.base.run_plan` assumes every migration runs to
completion. Under fault injection that is no longer true: the migration
machinery can crash (nemesis interrupt), wedge behind a partition, or fail a
T_m commit. The :class:`MigrationSupervisor` runs a plan batch by batch with
a watchdog per migration:

* a **crashed** migration (interrupted, or killed by an exception) is put
  through standard crash recovery (§3.7): ``crash_migration`` tears down
  its machinery, leaving its fences standing, and ``recover_migration``
  starts in the same instant, with no settle time — straggler 2PC legs and
  source commits still in flight are decisions recovery learns, not ones
  it waits out;
* a **stalled** migration — no observable progress for ``STALL_TIMEOUT``
  simulated seconds, or a propagation pipeline wounded by an RPC failure —
  is treated exactly like a crash;
* a migration recovered as ``rolled_back`` is **retried** with capped
  exponential backoff; after ``MAX_RETRIES`` failed attempts the batch is
  skipped (recorded in the plan stats) and the plan degrades gracefully
  instead of wedging;
* a migration recovered as ``completed`` (T_m had committed) needs no retry —
  the destination already owns the shards.

The supervisor emits the same plan-level metric marks as ``run_plan``
(``migration_start``/``batch_start``/...) plus fault-handling marks
(``migration_crash``, ``migration_recovered:<outcome>``, ``batch_skipped``)
so recovery timelines can be read straight out of the metrics.
"""

from repro.migration.recovery import crash_migration, recover_migration

# Watchdog and retry timing, in simulated seconds.
CHECK_INTERVAL = 0.1  # watchdog poll period
STALL_TIMEOUT = 3.0  # no progress for this long => crash it
MAX_RETRIES = 3  # rolled-back batch retry budget
RETRY_BACKOFF = 0.25  # base delay before retrying a batch
RETRY_BACKOFF_CAP = 2.0


class MigrationSupervisor:
    """Run a :class:`~repro.migration.base.MigrationPlan` under supervision."""

    def __init__(self, cluster, plan):
        self.cluster = cluster
        self.sim = cluster.sim
        self.plan = plan
        self.current = None  # in-flight migration, for the nemesis
        self.current_proc = None
        self.residue = {}  # the prepared shadows a running recovery resolves
        self.events = []  # (time, description) recovery timeline
        self._phase_waiters = {}  # phase name -> [Event]

    # ------------------------------------------------------------------
    # Nemesis interface
    # ------------------------------------------------------------------
    def crash_current(self, reason="nemesis"):
        """Crash the in-flight migration process (fault injection hook).

        Returns True if a migration was running and got interrupted."""
        proc = self.current_proc
        if proc is None or proc.finished:
            return False
        proc.interrupt(reason)
        return True

    def current_phase(self):
        """Name of the started-but-unfinished phase of the in-flight
        migration, or None."""
        migration = self.current
        if migration is None:
            return None
        for name, (_start, end) in reversed(list(migration.stats.phase_times.items())):
            if end is None:
                return name
        return None

    def phase_event(self, phase):
        """Event that fires the next time any supervised migration enters
        ``phase`` — how the nemesis targets faults at named phases that are
        far shorter than any polling interval."""
        event = self.sim.event(name="phase:{}".format(phase))
        self._phase_waiters.setdefault(phase, []).append(event)
        return event

    def _on_phase(self, name):
        for event in self._phase_waiters.pop(name, []):
            event.succeed(name)

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def run(self):
        """Generator: run every batch, recovering and retrying as needed."""
        self.cluster.metrics.mark("migration_start")
        for shard_ids, source, dest in self.plan.batches:
            yield from self._run_batch(shard_ids, source, dest)
            if self.plan.pause:
                yield self.plan.pause
        self.cluster.metrics.mark("migration_end")
        return self.plan.stats

    def _run_batch(self, shard_ids, source, dest):
        attempt = 0
        while True:
            pending = [
                s for s in shard_ids if self.cluster.shard_owner(s) != dest
            ]
            if not pending:
                return  # a recovered attempt already completed the move
            # Re-resolve the source each attempt: a replication failover may
            # have remastered a shard onto a follower while the batch was
            # down, and retrying against the deposed leader would wedge.
            source_now = self.cluster.shard_owner(pending[0])
            group = [
                s for s in pending if self.cluster.shard_owner(s) == source_now
            ]
            self.cluster.metrics.mark("batch_start")
            migration = self.plan.approach_cls(
                self.cluster, group, source_now, dest, **self.plan.kwargs
            )
            migration.stats.on_phase = self._on_phase
            self.plan.migrations.append(migration)
            outcome = yield from self._supervise(migration)
            self.plan.stats.merge(migration.stats)
            self.cluster.metrics.mark("batch_end")
            if outcome in ("ok", "completed"):
                continue  # done, or shards scattered by an election: move the rest
            attempt += 1
            if attempt > MAX_RETRIES:
                self.plan.stats.batches_skipped += 1
                self.cluster.metrics.mark("batch_skipped")
                self._note("batch {} -> {} skipped after {} attempts".format(
                    pending, dest, attempt))
                return
            self.plan.stats.migration_retries += 1
            yield min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * (2 ** (attempt - 1)))

    def _supervise(self, migration):
        """Generator: run one migration under the watchdog.

        Returns "ok" (clean finish), "completed" or "rolled_back" (the
        recovery outcome after a crash/stall)."""
        proc = self.sim.spawn(
            self._guarded_run(migration), name="supervised-{}".format(migration.name)
        )
        self.current = migration
        self.current_proc = proc
        last_sig = self._progress_signature(migration)
        last_progress = self.sim.now
        try:
            while not proc.finished:
                yield CHECK_INTERVAL
                if proc.finished:
                    break
                prop = migration.propagation
                if prop is not None and prop.wounded is not None:
                    proc.interrupt("propagation wounded: {}".format(prop.wounded))
                    break
                sig = self._progress_signature(migration)
                if sig != last_sig:
                    last_sig = sig
                    last_progress = self.sim.now
                elif self.sim.now - last_progress >= STALL_TIMEOUT:
                    proc.interrupt(
                        "stalled for {:.2f}s".format(self.sim.now - last_progress)
                    )
                    break
            while not proc.finished:
                yield CHECK_INTERVAL  # let a just-delivered interrupt land
        finally:
            self.current = None
            self.current_proc = None
        status, cause = proc.result()
        if status == "ok":
            return "ok"
        # Crash path: tear down, then recover at once (§3.7): recovery
        # learns every in-flight decision, it never waits for one to settle.
        self._note("migration crashed: {}".format(cause))
        self.cluster.metrics.mark("migration_crash")
        self.residue = crash_migration(migration)
        outcome = yield from recover_migration(self.cluster, migration, self.residue)
        self.residue = {}
        migration.stats.crash_recoveries += 1
        self.cluster.metrics.mark("migration_recovered:{}".format(outcome))
        self._note("recovered as {!r}".format(outcome))
        return outcome

    def _guarded_run(self, migration):
        """Generator wrapper so a crashed migration finishes its process
        normally (with an outcome value) instead of polluting
        ``sim.failed_processes``."""
        try:
            result = yield from migration.run()
        except BaseException as exc:  # noqa: BLE001 - includes Interrupt
            return ("crashed", exc)
        return ("ok", result)

    def _progress_signature(self, migration):
        """Snapshot of everything that should move while a migration is
        healthy; if two watchdog ticks see the same signature for too long,
        the migration is declared stalled.

        Only migration-driven counters belong here: the WAL reader's lsn and
        backlog grow whenever the *workload* writes, so including them would
        make a dead snapshot copy look alive as long as clients keep
        committing."""
        stats = migration.stats
        return (
            stats.tuples_copied,
            stats.records_propagated,
            stats.records_applied,
            stats.shadow_txns,
            stats.chunks_pulled,
            tuple(sorted(
                (name, end is not None)
                for name, (_start, end) in stats.phase_times.items()
            )),
        )

    def _note(self, description):
        self.events.append((self.sim.now, description))
