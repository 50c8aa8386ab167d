"""Continuous safety checking under fault injection.

The checker is a background process that inspects cluster state every
``INTERVAL`` simulated seconds and records violations of the invariants that
must survive any combination of faults and recoveries:

* **single owner** — every shard has exactly one live owning node, and the
  latest committed shard-map replica rows agree with it;
* **cache coherence** — no coordinator cache entry claims an ownership
  version *newer* than the authoritative shard map (stale-but-older entries
  are legal by design: §3.5.1's read-through + T_m commit-timestamp ordering
  makes them safe);
* **no orphaned PREPARED** — every PREPARED CLOG entry is referenced by a
  live client transaction, a shadow that a live propagation or a running
  recovery owns, or gets resolved within a grace period (2PC decisions may
  legitimately be in flight across a partition);
* **no lost updates** (snapshot isolation) — checked at the end against a
  counter workload: the committed counter sum must equal the number of
  committed increments (:meth:`final_check`).

Transient in-flight states are exempted with a *suspect/confirm* scheme: a
condition only becomes a violation after it persists for ``GRACE`` seconds,
and checks that migrations legitimately perturb are skipped while the
supervisor reports a migration or recovery in flight.
"""

from repro.cluster.shardmap import BOOTSTRAP_XID, SHARDMAP_SHARD
from repro.storage.clog import TxnStatus

INTERVAL = 0.25  # simulated seconds between sweeps
GRACE = 2.0  # how long a suspect condition may persist before it counts


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantChecker.assert_ok`."""


class InvariantChecker:
    """Background safety checker."""

    def __init__(self, cluster, supervisor=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.supervisor = supervisor
        self.violations = []  # (time, description)
        self.checks_run = 0
        self._suspects = {}  # suspect key -> first time seen

    # ------------------------------------------------------------------
    def run(self):
        """Generator: check forever (detached background process)."""
        while True:
            yield INTERVAL
            self.check_once()

    def check_once(self):
        self.checks_run += 1
        self._check_single_owner()
        self._check_cache_coherence()
        self._check_prepared_orphans()
        self._check_replication()

    def assert_ok(self):
        if self.violations:
            lines = "\n".join(
                "  t={:.3f}: {}".format(t, d) for t, d in self.violations
            )
            raise InvariantViolation(
                "{} invariant violation(s):\n{}".format(len(self.violations), lines)
            )

    def final_check(self, table, expected_sum, field="n"):
        """No-lost-updates: committed state of ``table`` must sum to the
        number of committed increments (counter workload)."""
        total = sum(row[field] for row in self.cluster.dump_table(table).values())
        if total != expected_sum:
            self._violate(
                "lost updates on {!r}: committed sum {} != {} committed increments".format(
                    table, total, expected_sum
                )
            )
        self.assert_ok()

    def final_replication_check(self):
        """At quiescence every live follower must hold exactly the leader's
        committed key -> value map, and every live replica must have applied
        the entire group log (replica convergence)."""
        for group in self.cluster.replication.sorted_groups():
            leader_node = self.cluster.nodes[group.leader_node_id]
            want = dict(group._committed_rows(leader_node))
            for replica in group.live_replicas():
                if replica.next_index != len(group.log):
                    self._violate(
                        "replica {} of {} stopped at log index {} of {}".format(
                            replica.node_id, group.shard_id,
                            replica.next_index, len(group.log),
                        )
                    )
                if replica.replica_id == group.leader_id:
                    continue
                node = self.cluster.nodes[replica.node_id]
                got = dict(group._committed_rows(node))
                if got != want:
                    extra = sorted(set(got) - set(want))[:3]
                    missing = sorted(set(want) - set(got))[:3]
                    differ = sorted(
                        k for k in sorted(set(got) & set(want))
                        if got[k] != want[k]
                    )[:3]
                    self._violate(
                        "replica divergence on {}: follower {} vs leader {} "
                        "(missing={} extra={} differ={})".format(
                            group.shard_id, replica.node_id,
                            group.leader_node_id, missing, extra, differ,
                        )
                    )
        self.assert_ok()

    # ------------------------------------------------------------------
    def _migration_in_flight(self):
        supervisor = self.supervisor
        return supervisor is not None and supervisor.current is not None

    def _check_single_owner(self):
        owners = self.cluster.shard_owners
        for shard_id, owner in owners.items():
            if owner not in self.cluster.nodes:
                self._violate(
                    "shard {} owned by unknown node {!r}".format(shard_id, owner)
                )
        if self._migration_in_flight():
            # T_m / recovery may be flipping replica rows right now.
            self._clear_suspects("replica:")
            return
        for node_id, node in self.cluster.nodes.items():
            heap = node.heap_for(SHARDMAP_SHARD)
            for shard_id, owner in owners.items():
                if shard_id == SHARDMAP_SHARD:
                    continue
                row_owner = _latest_committed_owner(heap, node.clog, shard_id)
                key = "replica:{}:{}".format(node_id, shard_id)
                if row_owner is not None and row_owner != owner:
                    self._suspect(
                        key,
                        "shard-map replica on {} says {} owns {}, "
                        "authoritative owner is {}".format(
                            node_id, row_owner, shard_id, owner
                        ),
                    )
                else:
                    self._suspects.pop(key, None)

    def _check_cache_coherence(self):
        """A cache entry must never be newer than the authoritative map."""
        owners = self.cluster.shard_owners
        if self._migration_in_flight():
            self._clear_suspects("cache:")
            return
        for node_id, node in self.cluster.nodes.items():
            cache = node.shardmap_cache
            for shard_id, owner in owners.items():
                if shard_id == SHARDMAP_SHARD:
                    continue
                if cache.is_read_through(shard_id):
                    continue
                try:
                    cached_owner, _cts = cache.entry(shard_id)
                except KeyError:
                    continue
                key = "cache:{}:{}".format(node_id, shard_id)
                if cached_owner != owner:
                    # Stale caches heal on the next refresh broadcast; only a
                    # *persistently* wrong entry is a coherence bug.
                    self._suspect(
                        key,
                        "cache on {} routes {} to {}, owner is {}".format(
                            node_id, shard_id, cached_owner, owner
                        ),
                    )
                else:
                    self._suspects.pop(key, None)

    def _check_prepared_orphans(self):
        # A shadow stays registered until ended: it counts only while its
        # uncrashed propagation, or the recovery a crash handed it to, owns it.
        owners = [txn for txn in self.cluster.active_txns.values() if not txn.is_shadow]
        supervisor = self.supervisor
        if supervisor is not None:
            owners += [shadow for shadow, _entry in supervisor.residue.values()]
            for migration in supervisor.plan.migrations:
                propagation = migration.propagation
                if propagation is not None and not propagation.crashed:
                    owners += propagation._shadows
        referenced = {
            (participant.node_id, participant.xid)
            for txn in owners
            for participant in txn.participants.values()
        }
        for node_id, node in self.cluster.nodes.items():
            for xid, status in node.clog.statuses():
                key = "prepared:{}:{}".format(node_id, xid)
                if status is not TxnStatus.PREPARED:
                    self._suspects.pop(key, None)
                    continue
                if (node_id, xid) in referenced:
                    self._suspects.pop(key, None)
                    continue
                self._suspect(
                    key,
                    "orphaned PREPARED xid {} on {} (no live transaction, "
                    "propagation or recovery references it)".format(xid, node_id),
                )

    def _check_replication(self):
        """Replication-group safety under faults:

        * **no dual leader** — each group has exactly one leader, and (when
          no migration/recovery is perturbing routing) the authoritative
          shard map routes the shard to that leader's node;
        * **log-prefix consistency** — no replica claims to have applied
          more entries than the group log holds, and a replica's rolling
          fingerprint matches the log entry at its applied position (a
          mismatch means it applied a *different* prefix — divergence).
        """
        for group in self.cluster.replication.sorted_groups():
            log_len = len(group.log)
            for replica in group.replicas:
                if replica.next_index > log_len:
                    self._violate(
                        "replica {} of {} ahead of the group log "
                        "({} > {})".format(
                            replica.node_id, group.shard_id,
                            replica.next_index, log_len,
                        )
                    )
                elif replica.next_index > 0:
                    entry = group.log[replica.next_index - 1]
                    if replica.applied_sig != entry.sig:
                        self._violate(
                            "replica {} of {} diverged: fingerprint {} != "
                            "log fingerprint {} at index {}".format(
                                replica.node_id, group.shard_id,
                                replica.applied_sig, entry.sig,
                                replica.next_index - 1,
                            )
                        )
            leaders = [
                r for r in group.replicas if r.replica_id == group.leader_id
            ]
            if len(leaders) != 1:
                self._violate(
                    "group {} has {} leaders".format(group.shard_id, len(leaders))
                )
                continue
            if self._migration_in_flight():
                self._clear_suspects("leader:")
                continue
            owner = self.cluster.shard_owner(group.shard_id)
            key = "leader:{}".format(group.shard_id)
            if owner != group.leader_node_id:
                # Transiently legal mid-election (the epoch-bumped shard-map
                # install is in flight); persistent disagreement means two
                # nodes can both believe they master the shard.
                self._suspect(
                    key,
                    "shard map routes {} to {} but group leader is {} "
                    "(epoch {})".format(
                        group.shard_id, owner, group.leader_node_id, group.epoch
                    ),
                )
            else:
                self._suspects.pop(key, None)

    # ------------------------------------------------------------------
    def _suspect(self, key, description):
        first = self._suspects.setdefault(key, self.sim.now)
        if self.sim.now - first >= GRACE:
            self._violate(description)
            del self._suspects[key]

    def _clear_suspects(self, prefix):
        for key in [k for k in self._suspects if k.startswith(prefix)]:
            del self._suspects[key]

    def _violate(self, description):
        self.violations.append((self.sim.now, description))


def _latest_committed_owner(heap, clog, shard_id):
    """Peek the newest committed shard-map row for ``shard_id`` without
    paying MVCC costs or prepare-waiting (pure introspection)."""
    for version in heap.chain(shard_id):
        if version.xmin == BOOTSTRAP_XID:
            return version.value
        if clog.status(version.xmin) is TxnStatus.COMMITTED:
            return version.value
    return None
