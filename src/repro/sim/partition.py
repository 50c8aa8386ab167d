"""Partitioned event loop: the kernel heap sharded by node group.

:class:`PartitionedSimulator` splits the single event heap into one subheap
per *partition* (a node group — typically one availability zone) plus a
**control partition** (id 0) for everything not homed on a node: workload
dispatchers, migration supervisors, harness processes. Execution proceeds in
conservative time windows::

    t0    = min event time across all subheaps
    limit = min(t0 + lookahead, until)
    drain partition 0, then 1..P, each up to (strictly before) ``limit``

``lookahead`` is the minimum network latency between nodes in *different*
partitions (:func:`partition_lookahead`, derived from the topology's tier
profiles). Within a window each partition executes its own events in exact
``(time, seq)`` order, but *across* partitions events may execute out of
global time order — the classic conservative-DES relaxation. It is safe
because the only way one partition can affect another inside a window is a
network message, and every cross-partition message takes at least
``lookahead`` of latency, landing at or beyond the window's limit:

- :meth:`repro.sim.network.Network.send` rehomes the arrival event to the
  destination node's partition (via :meth:`schedule_for_node`), so the
  receiver's continuation — the event's waiter callbacks and everything
  they schedule — runs under the receiver's subheap;
- processes, timeouts and zero-delay continuations inherit the partition
  that scheduled them, keeping node-local causality chains node-local;
- the control partition drains *first* in every window, so control-plane
  work (arrival dispatch, spawns into node partitions at the current
  instant) is visible to every node partition in the same window.

Two hard requirements, asserted by :meth:`for_topology`:

- the topology must be **uncontended**: fair-share trunks settle elapsed
  progress against ``sim.now`` and are global shared state, which a
  rewinding clock would corrupt; uncontended links price each message
  independently and never read the clock after send time;
- ``lookahead`` must be positive, i.e. the partitions must actually be
  separated by a network tier.

Determinism: the window schedule is a pure function of the event heaps, so
a fixed seed replays exactly. Byte-identity with the single-loop run
additionally requires that no *synchronous* cross-partition state access
happens inside a window (e.g. a migration actively copying between groups
mutates the destination from the source's partition); the equivalence
suite pins identity for group-local workloads and the storm bench reports
partitioned runs separately. ``fastpath.partitioned_loop`` gates the whole
mode and defaults off.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Callable

from repro.profiling.counters import COUNTERS
from repro.sim.errors import SimulationError
from repro.sim.kernel import _ARGS, _CALLBACK, _TIME, ScheduledCall, Simulator
from repro.sim.topology import Topology

#: Partition id of the control partition (dispatchers, supervisors, harness).
CONTROL_PARTITION = 0


def partitions_from_topology(topology: Topology) -> dict[str, int]:
    """Map every placed node to a partition id, one partition per AZ.

    Ids start at 1; partition 0 is reserved for the control partition.
    """
    groups: dict[str, int] = {}
    assignment: dict[str, int] = {}
    for node in topology.nodes():
        az = topology.placement(node)[1]
        pid = groups.setdefault(az, len(groups) + 1)
        assignment[node] = pid
    return assignment


def partition_lookahead(topology: Topology, assignment: dict[str, int]) -> float:
    """The conservative window width: minimum latency between nodes in
    different partitions. 0.0 when no pair crosses a partition boundary."""
    best = 0.0
    nodes = list(assignment)
    for i, a in enumerate(nodes):
        pid = assignment[a]
        for b in nodes[i + 1 :]:
            if assignment[b] == pid:
                continue
            latency = min(
                topology.profile_for(a, b).latency,
                topology.profile_for(b, a).latency,
            )
            if best == 0.0 or latency < best:
                best = latency
    return best


class PartitionedSimulator(Simulator):
    """A :class:`Simulator` whose heap is sharded into partition subheaps.

    Drop-in for the plain simulator: ``schedule`` / ``schedule_at`` /
    ``cancel`` / ``spawn`` / ``run`` / ``step`` keep their contracts, the
    sequence counter stays global (so merged same-instant execution remains
    FIFO by schedule order), and ``pending_events`` counts across subheaps.
    New events land in the *current* partition — the one whose drain is
    executing, or whatever :meth:`partition_scope` is active during setup.
    """

    partitioned = True

    def __init__(self, seed: int = 0, num_partitions: int = 1, lookahead: float = 0.0) -> None:
        super().__init__(seed)
        if num_partitions < 1:
            raise SimulationError("need at least one partition")
        if lookahead < 0.0:
            raise SimulationError("negative lookahead: {}".format(lookahead))
        self.lookahead = lookahead
        self._heaps: list[list[ScheduledCall]] = [[] for _ in range(num_partitions + 1)]
        self._node_partition: dict[str, int] = {}
        self._current = CONTROL_PARTITION
        # Highest dispatched event time; ``now`` rewinds inside a window as
        # the drain hops partitions, so the final clock comes from here.
        self._max_time = 0.0
        self._executed = 0

    @classmethod
    def for_topology(cls, topology: Topology, seed: int = 0) -> "PartitionedSimulator":
        """Build a partitioned simulator for ``topology``: one partition per
        AZ, lookahead from the tier profiles, every node assigned."""
        if topology.contended:
            raise SimulationError(
                "partitioned loop requires an uncontended topology: fair-share "
                "trunks are global state settled against a monotone clock"
            )
        assignment = partitions_from_topology(topology)
        lookahead = partition_lookahead(topology, assignment)
        if len(set(assignment.values())) > 1 and lookahead <= 0.0:
            raise SimulationError(
                "partitioned loop needs a positive inter-partition latency "
                "(topology {!r} has none)".format(topology.name)
            )
        sim = cls(seed, num_partitions=max(assignment.values(), default=1), lookahead=lookahead)
        for node, pid in assignment.items():
            sim.assign_node(node, pid)
        return sim

    # ------------------------------------------------------------------
    # Partition bookkeeping
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Node partitions (excluding the control partition)."""
        return len(self._heaps) - 1

    def assign_node(self, node: str, pid: int) -> None:
        """Home ``node``'s events (network arrivals, scoped spawns) on
        partition ``pid`` (1-based; 0 is the control partition)."""
        if not 0 <= pid < len(self._heaps):
            raise SimulationError(
                "partition {} out of range (have {})".format(pid, len(self._heaps))
            )
        self._node_partition[node] = pid

    def node_partition(self, node: str) -> int:
        """``node``'s partition; unassigned nodes map to the control one."""
        return self._node_partition.get(node, CONTROL_PARTITION)

    @contextmanager
    def partition_scope(self, pid: int):
        """Make ``pid`` the current partition for scheduling (and spawning)
        inside the ``with`` block. Used during setup to home node daemons."""
        previous = self._current
        self._current = pid
        try:
            yield
        finally:
            self._current = previous

    def spawn_on_node(self, node: str, generator, name: str = ""):
        """Spawn a process homed on ``node``'s partition."""
        previous = self._current
        self._current = self._node_partition.get(node, CONTROL_PARTITION)
        try:
            return self.spawn(generator, name=name)
        finally:
            self._current = previous

    # ------------------------------------------------------------------
    # Scheduling (current-partition variants of the base methods)
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., object], *args: Any
    ) -> ScheduledCall:
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay={})".format(delay))
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, callback, args]
        heapq.heappush(self._heaps[self._current], entry)
        return entry

    def schedule_at(
        self, time: float, callback: Callable[..., object], *args: Any
    ) -> ScheduledCall:
        if time < self.now:
            raise SimulationError(
                "cannot schedule in the past (time={}, now={})".format(time, self.now)
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, callback, args]
        heapq.heappush(self._heaps[self._current], entry)
        return entry

    def take_tail_slot(self) -> bool:
        """Never: "next in this subheap" is not "next dispatch" — other
        partitions' entries at the same instant merge in by ``seq`` — and
        the inherited ``_heap`` is always empty, which the base check would
        misread as an idle loop. Every wakeup takes its heap slot."""
        return False

    def schedule_for_node(
        self, node: str, delay: float, callback: Callable[..., object], *args: Any
    ) -> ScheduledCall:
        """Schedule into ``node``'s partition regardless of the current one.

        The network calls this for arrival events so a message's delivery —
        and every continuation hanging off it — executes under the
        destination's subheap.
        """
        previous = self._current
        self._current = self._node_partition.get(node, CONTROL_PARTITION)
        try:
            return self.schedule(delay, callback, *args)
        finally:
            self._current = previous

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_time(self) -> float | None:
        """Earliest live event time across subheaps (lazily popping
        cancelled heads), or None when everything is drained."""
        best = None
        pop = heapq.heappop
        for heap in self._heaps:
            while heap and heap[0][_CALLBACK] is None:
                pop(heap)
                self._cancelled -= 1
            if heap and (best is None or heap[0][_TIME] < best):
                best = heap[0][_TIME]
        return best

    def _drain_window(self, pid: int, limit: float) -> None:
        """Run partition ``pid``'s events with time strictly below ``limit``
        in local (time, seq) order; new events land in this partition."""
        heap = self._heaps[pid]
        pop = heapq.heappop
        profiler = Simulator._active_profiler
        previous = self._current
        self._current = pid
        executed = 0
        try:
            while heap:
                entry = heap[0]
                callback = entry[_CALLBACK]
                if callback is None:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                time = entry[_TIME]
                if time >= limit:
                    break
                pop(heap)
                self.now = time
                if time > self._max_time:
                    self._max_time = time
                executed += 1
                if profiler is None:
                    callback(*entry[_ARGS])
                else:
                    profiler.dispatch(callback, entry[_ARGS])
        finally:
            self._current = previous
            self._executed += executed

    def _drain_instant(self, boundary: float) -> None:
        """Run every event with time <= ``boundary`` in *global* (time, seq)
        order — the pinned ``run(until)`` boundary semantics: events created
        at the boundary instant by boundary callbacks still execute."""
        heaps = self._heaps
        pop = heapq.heappop
        profiler = Simulator._active_profiler
        previous = self._current
        executed = 0
        try:
            while True:
                best = None
                best_pid = -1
                for pid, heap in enumerate(heaps):
                    while heap and heap[0][_CALLBACK] is None:
                        pop(heap)
                        self._cancelled -= 1
                    if heap:
                        head = heap[0]
                        if head[_TIME] <= boundary and (best is None or head < best):
                            best = head
                            best_pid = pid
                if best is None:
                    return
                pop(heaps[best_pid])
                self._current = best_pid
                self.now = best[_TIME]
                if self.now > self._max_time:
                    self._max_time = self.now
                executed += 1
                if profiler is None:
                    best[_CALLBACK](*best[_ARGS])
                else:
                    profiler.dispatch(best[_CALLBACK], best[_ARGS])
        finally:
            self._current = previous
            self._executed += executed

    def run(self, until: float | None = None) -> float:
        """Windowed conservative drain (see module docstring).

        Same contract as :meth:`Simulator.run`: returns when the heaps are
        empty or every remaining event lies beyond ``until``; boundary
        events at exactly ``until`` execute before the clock pins there.
        """
        lookahead = self.lookahead
        heaps = self._heaps
        while True:
            t0 = self._next_time()
            if t0 is None or (until is not None and t0 > until):
                break
            limit = t0 + lookahead
            if until is not None and limit > until:
                limit = until
            if limit > t0:
                COUNTERS.drain_windows += 1
                for pid in range(len(heaps)):
                    self._drain_window(pid, limit)
            else:
                # Degenerate window (zero lookahead, or t0 == until): run
                # this single instant in merged global order and rescan.
                COUNTERS.drain_instants += 1
                self._drain_instant(t0)
                if until is not None and t0 >= until:
                    break
        if self._max_time > self.now:
            self.now = self._max_time
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Execute the globally next event (merged across subheaps).

        Exists for :meth:`run_until_complete` and debugging; the windowed
        :meth:`run` is the fast path.
        """
        heaps = self._heaps
        pop = heapq.heappop
        profiler = Simulator._active_profiler
        best = None
        best_pid = -1
        for pid, heap in enumerate(heaps):
            while heap and heap[0][_CALLBACK] is None:
                pop(heap)
                self._cancelled -= 1
            if heap:
                head = heap[0]
                if best is None or head < best:
                    best = head
                    best_pid = pid
        if best is None:
            return False
        pop(heaps[best_pid])
        previous = self._current
        self._current = best_pid
        try:
            self.now = best[_TIME]
            if self.now > self._max_time:
                self._max_time = self.now
            self._executed += 1
            if profiler is None:
                best[_CALLBACK](*best[_ARGS])
            else:
                profiler.dispatch(best[_CALLBACK], best[_ARGS])
        finally:
            self._current = previous
        return True

    @property
    def pending_events(self) -> int:
        return sum(len(heap) for heap in self._heaps) - self._cancelled

    @property
    def events_drained(self) -> int:
        """Events this simulator actually executed (cancelled entries and
        events parked in subheaps it never drains are excluded) — the
        per-worker denominator for window-rate reporting."""
        return self._executed
