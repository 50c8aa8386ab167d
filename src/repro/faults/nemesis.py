"""The nemesis: a simulated process that injects scheduled faults.

The nemesis walks a :class:`~repro.faults.plan.FaultPlan` on the virtual
clock. Each fault is started in its own process so a long-lived fault (a
partition waiting to heal, a migration crash waiting for its target phase)
never delays the faults scheduled after it. Every injection and heal is
recorded both on the nemesis timeline and as a metrics mark
(``fault:...`` / ``heal:...``) so recovery timelines can be reconstructed
from the ordinary metrics stream.
"""

PHASE_WAIT = 8.0  # how long a phase-targeted fault waits for its phase (sim s)


class Nemesis:
    """Injects a fault plan into a running cluster."""

    def __init__(self, cluster, plan, supervisor=None):
        """``supervisor`` is the :class:`MigrationSupervisor` whose in-flight
        migration ``crash_migration`` faults target; without one those faults
        are no-ops."""
        self.cluster = cluster
        self.sim = cluster.sim
        self.plan = plan
        self.supervisor = supervisor
        self.timeline = []  # (time, description)

    def run(self):
        """Generator: start every fault at its scheduled time."""
        for fault in self.plan.faults:
            if fault.at > self.sim.now:
                yield fault.at - self.sim.now
            self.cluster.spawn(
                self._inject(fault), name="nemesis:{}".format(fault.kind)
            )

    # ------------------------------------------------------------------
    def _inject(self, fault):
        handler = getattr(self, "_inject_" + fault.kind)
        yield from handler(fault)

    def _inject_crash_node(self, fault):
        if self.cluster.nodes[fault.node].failed:
            # Crashing a node that is already down is an idempotent no-op:
            # random plans may double-target a node, and re-crashing it would
            # restart its failover clock and double-fire recovery hooks.
            self._note("fault:crash_node:{}:noop (already down)".format(fault.node))
            return
        self._note("fault:crash_node:{}".format(fault.node))
        supervisor = self.supervisor
        if supervisor is not None and supervisor.current is not None:
            migration = supervisor.current
            if fault.node in (migration.source, migration.dest):
                # The machinery driving the migration lived on that node.
                supervisor.crash_current("node {} crashed".format(fault.node))
        self.cluster.fail_node(fault.node, failover_time=fault.failover)
        return
        yield  # pragma: no cover - makes this a generator

    def _inject_crash_leader(self, fault):
        yield from self._crash_replica(fault, leader=True)

    def _inject_crash_follower(self, fault):
        yield from self._crash_replica(fault, leader=False)

    def _crash_replica(self, fault, leader):
        """Crash one member of a shard's replication group, heal it after
        ``fault.duration``. Leader crashes exercise lease-based election and
        the 2PC stale-epoch retry path; follower crashes exercise quorum
        commit with a degraded group and catch-up on heal. A ``phase`` on
        the fault delays the crash until a supervised migration enters that
        phase (bounded by ``PHASE_WAIT``) — how soaks land a replica crash
        exactly mid-copy or mid-propagation."""
        from repro.cluster.shard import ShardId

        kind = "crash_leader" if leader else "crash_follower"
        if fault.phase is not None and self.supervisor is not None:
            from repro.sim.events import AnyOf, Timeout

            if self.supervisor.current_phase() != fault.phase:
                yield AnyOf(
                    [self.supervisor.phase_event(fault.phase), Timeout(PHASE_WAIT)]
                )
        shard_id = ShardId(*fault.shard)
        group = self.cluster.replication.group_for(shard_id)
        if group is None:
            self._note("fault:{}:skipped (unreplicated {})".format(kind, shard_id))
            return
        if leader:
            target = group.leader
        else:
            followers = [r for r in group.live_followers()]
            if not followers:
                self._note("fault:{}:skipped (no live follower)".format(kind))
                return
            target = min(followers, key=lambda r: r.replica_id)
        if group.replica_down(target):
            self._note("fault:{}:noop (already down)".format(kind))
            return
        node_id = target.node_id
        self._note("fault:{}:{}:{}".format(kind, shard_id, node_id))
        supervisor = self.supervisor
        if supervisor is not None and supervisor.current is not None:
            migration = supervisor.current
            if node_id in (migration.source, migration.dest):
                supervisor.crash_current(
                    "replica {} crashed".format(node_id)
                )
        group.crash_replica(node_id)
        if fault.duration:
            yield fault.duration
            group.heal_replica(node_id)
            self._note("heal:{}:{}:{}".format(kind, shard_id, node_id))

    def _inject_partition(self, fault):
        network = self.cluster.network
        network.partition(fault.node, fault.peer)
        self._note("fault:partition:{}|{}".format(fault.node, fault.peer))
        yield fault.duration
        network.heal_partition(fault.node, fault.peer)
        self._note("heal:partition:{}|{}".format(fault.node, fault.peer))

    def _inject_loss(self, fault):
        network = self.cluster.network
        network.set_loss(fault.node, fault.peer, fault.value)
        self._note("fault:loss:{}|{}:{:.2f}".format(fault.node, fault.peer, fault.value))
        yield fault.duration
        network.set_loss(fault.node, fault.peer, 0.0)
        self._note("heal:loss:{}|{}".format(fault.node, fault.peer))

    def _inject_latency(self, fault):
        network = self.cluster.network
        network.set_extra_latency(fault.node, fault.peer, fault.value)
        self._note(
            "fault:latency:{}|{}:{:.3f}".format(fault.node, fault.peer, fault.value)
        )
        yield fault.duration
        network.set_extra_latency(fault.node, fault.peer, 0.0)
        self._note("heal:latency:{}|{}".format(fault.node, fault.peer))

    def _inject_degrade(self, fault):
        """Brown out one topology tier: every matching trunk's bandwidth is
        scaled by ``fault.value`` (the tier name rides in ``fault.node``),
        then restored after ``fault.duration``. Healing resets the whole
        tier rather than stacking, matching :meth:`Network.set_tier_degrade`
        last-writer-wins semantics."""
        network = self.cluster.network
        network.set_tier_degrade(fault.node, bandwidth_factor=fault.value)
        self._note("fault:degrade:{}:{:.2f}".format(fault.node, fault.value))
        yield fault.duration
        network.set_tier_degrade(fault.node)
        self._note("heal:degrade:{}".format(fault.node))

    def _inject_stall(self, fault):
        manager = self.cluster.nodes[fault.node].manager
        until = self.sim.now + fault.duration
        manager.flush_stall_until = max(manager.flush_stall_until, until)
        self._note("fault:stall:{}:{:.2f}".format(fault.node, fault.duration))
        return
        yield  # pragma: no cover - makes this a generator

    def _inject_crash_migration(self, fault):
        from repro.sim.events import AnyOf, Timeout

        supervisor = self.supervisor
        if supervisor is None:
            self._note("fault:crash_migration:skipped (no supervisor)")
            return
        if fault.phase is not None and supervisor.current_phase() != fault.phase:
            # Phases can be far shorter than any poll interval; wait on the
            # supervisor's phase-entry event (bounded by PHASE_WAIT).
            yield AnyOf([supervisor.phase_event(fault.phase), Timeout(PHASE_WAIT)])
        else:
            deadline = self.sim.now + PHASE_WAIT
            while supervisor.current is None and self.sim.now < deadline:
                yield 0.05
        reason = "nemesis crash"
        if fault.phase is not None:
            reason = "nemesis crash at {}".format(fault.phase)
        if supervisor.crash_current(reason):
            self._note("fault:crash_migration:{}".format(fault.phase or "any"))
        else:
            self._note("fault:crash_migration:missed")

    def _note(self, description):
        self.timeline.append((self.sim.now, description))
        self.cluster.metrics.mark(description)
