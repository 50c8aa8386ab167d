"""Live migration protocols.

The paper's contribution and every baseline it evaluates against:

- :mod:`repro.migration.base` — the migration framework: specs, stats,
  phase bookkeeping, the sequential multi-migration controller;
- :mod:`repro.migration.snapshot_copy` — streaming MVCC snapshot copy (§3.2);
- :mod:`repro.migration.propagation` — WAL-based update propagation with
  per-transaction update-cache queues and transaction-level parallel replay
  (§3.3, §3.6);
- :mod:`repro.migration.mocc` — the MOCC concurrency-control protocol for
  dual execution: shadow transactions, validation/commit stages (§3.5.2);
- :mod:`repro.migration.remus` — Remus: sync barrier, mode change, ordered
  diversion via T_m, dual execution (§3.4, §3.5);
- :mod:`repro.migration.lock_and_abort` — the Citus/LibrA-style baseline;
- :mod:`repro.migration.wait_and_remaster` — the DynaMast-style baseline;
- :mod:`repro.migration.squall` — the pull-based Squall port with chunked
  reactive/background pulls and shard-lock concurrency control;
- :mod:`repro.migration.stop_and_copy` — the Greenplum/Redshift-style
  read-only redistribution (used in ablations, §6);
- :mod:`repro.migration.recovery` — crash recovery of in-flight migrations
  (§3.7);
- :mod:`repro.migration.supervisor` — self-healing plan execution
  (:class:`MigrationSupervisor`, run with ``supervisor.run()`` where
  ``run_plan`` would go): watchdog, crash recovery, bounded retries,
  graceful degradation (chaos harness).
"""

from repro.migration.base import Migration, MigrationPlan, MigrationStats, run_plan
from repro.migration.lock_and_abort import LockAndAbortMigration
from repro.migration.recovery import crash_migration, recover_migration
from repro.migration.remus import RemusMigration
from repro.migration.squall import SquallMigration
from repro.migration.stop_and_copy import StopAndCopyMigration
from repro.migration.supervisor import MigrationSupervisor
from repro.migration.wait_and_remaster import WaitAndRemasterMigration

APPROACHES = {
    "remus": RemusMigration,
    "lock_and_abort": LockAndAbortMigration,
    "wait_and_remaster": WaitAndRemasterMigration,
    "squall": SquallMigration,
    "stop_and_copy": StopAndCopyMigration,
}

__all__ = [
    "APPROACHES",
    "LockAndAbortMigration",
    "Migration",
    "MigrationPlan",
    "MigrationStats",
    "MigrationSupervisor",
    "RemusMigration",
    "SquallMigration",
    "StopAndCopyMigration",
    "WaitAndRemasterMigration",
    "crash_migration",
    "recover_migration",
    "run_plan",
]
