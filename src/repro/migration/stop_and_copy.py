"""Stop-and-copy redistribution (§6: Greenplum [13], Amazon Redshift [4]).

The crudest industrial strategy: stop accepting transactions, copy the
shards, flip the shard map, resume. Downtime equals the full copy duration.
Included as an ablation baseline to anchor the downtime axis.
"""

from repro.migration.base import BaseMigration
from repro.migration.snapshot_copy import copy_group_snapshot


class StopAndCopyMigration(BaseMigration):
    name = "stop_and_copy"

    def run(self):
        if (yield from self.remaster_prepositioned()):
            yield from self._stop_and_copy()
        yield from self.finish()

    def _stop_and_copy(self):
        stats = self.stats
        stats.phase_start(self.sim, "stop_and_copy")
        self.cluster.close_routing_gate()
        try:
            ongoing = [
                txn.tid
                for txn in self.cluster.snapshot_active_txns()
                if not txn.is_shadow
            ]
            yield self.cluster.wait_for_txns(ongoing)
            snapshot_ts = yield from self.cluster.oracle.start_timestamp(self.source)
            yield from copy_group_snapshot(
                self.cluster, self.shard_ids, self.source, self.dest, snapshot_ts,
                stats, task_sink=self.copy_tasks,
            )
            yield from self.transfer_ownership(guarded=False)
        finally:
            self.cluster.open_routing_gate()
        stats.phase_end(self.sim, "stop_and_copy")
