"""Wait-and-remaster ownership transfer (§2.3.3; DynaMast [1]).

After the shared ISC phases, the transfer phase suspends routing of newly
arrived transactions (the cluster routing gate), waits for **all** ongoing
transactions to complete — the write set of an interactive transaction is
unknown up front, so every on-the-fly transaction must be waited for, even
ones that never touch the migrating data — replays the final updates, flips
the shard map (remastering) and reopens the gate.

No transaction is ever aborted, but a single long-running transaction (a
batch ingest or an analytical query) keeps the gate closed for its entire
remaining lifetime, producing the zero-throughput troughs of Figures 6b/7b.
"""

from repro.migration.isc import IscMigration


class WaitAndRemasterMigration(IscMigration):
    name = "wait_and_remaster"

    def _phase_ownership_transfer(self):
        stats = self.stats
        stats.phase_start(self.sim, "ownership_transfer")
        self.cluster.close_routing_gate()
        try:
            # Wait for every on-the-fly transaction (unknown write sets).
            yield from self.wait_on_the_fly()
            # Nothing is running: replay the final updates, then remaster.
            yield self.propagation.wait_applied_through(self.source_node.wal.tail_lsn)
            yield from self.propagation.drain()
            yield from self.transfer_ownership(guarded=False)
        finally:
            self.cluster.open_routing_gate()
        stats.phase_end(self.sim, "ownership_transfer")
