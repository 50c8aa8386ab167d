"""Lock tables: FIFO row locks and shared/exclusive shard locks.

Row locks implement PostgreSQL-style tuple locking for writers: an updater
holds the row lock from its first write to the row until transaction end, and
competing updaters queue FIFO.

Shard (partition) locks model two things from the paper:

- the H-store-style partition locking that the PolarDB **Squall** port uses
  for concurrency control during pull migration (§4.2), and
- the exclusive shard locks that **lock-and-abort** takes during ownership
  transfer (§2.3.3).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Hashable

from repro.sim.errors import SimulationError
from repro.sim.ordered import OrderedSet

if TYPE_CHECKING:
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator


class RowLockTable:
    """Per-shard row lock table with FIFO queuing and reentrancy."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._owners: dict = {}
        self._queues: dict = {}

    def holder(self, key: Hashable):
        return self._owners.get(key)

    def try_acquire(self, key: Hashable, owner) -> bool:
        """O(1) uncontended/reentrant grab: True if ``owner`` now holds the
        row lock on ``key``; False means the caller must queue through
        :meth:`acquire`. Never blocks and never creates an event, so the
        uncontended hot path (the overwhelming majority of acquires) skips
        the event-name formatting and queue bookkeeping entirely."""
        current = self._owners.get(key)
        if current is None:
            self._owners[key] = owner
            return True
        return current == owner

    def acquire(self, key: Hashable, owner) -> "Event":
        """Event that succeeds once ``owner`` holds the row lock on ``key``."""
        event = self.sim.event(name="rowlock:{}:{}".format(self.name, key))
        current = self._owners.get(key)
        if current is None:
            self._owners[key] = owner
            event.succeed(None)
        elif current == owner:
            event.succeed(None)  # reentrant
        else:
            self._queues.setdefault(key, deque()).append((owner, event))
        return event

    def release(self, key: Hashable, owner) -> None:
        if self._owners.get(key) != owner:
            raise SimulationError(
                "lock on {!r} not held by {!r}".format(key, owner)
            )
        queue = self._queues.get(key)
        while queue:
            next_owner, event = queue.popleft()
            if event.triggered:
                continue  # waiter was cancelled
            self._owners[key] = next_owner
            event.succeed(None)
            if not queue:
                del self._queues[key]
            return
        if queue is not None and not queue:
            del self._queues[key]
        del self._owners[key]

    def cancel_wait(self, key: Hashable, owner) -> None:
        """Drop ``owner``'s queued request for ``key`` (txn aborted while
        waiting). The wait event is failed so a blocked process wakes."""
        queue = self._queues.get(key)
        if not queue:
            return
        for entry in list(queue):
            waiting_owner, event = entry
            if waiting_owner == owner and not event.triggered:
                queue.remove(entry)
                if not queue:
                    del self._queues[key]
                return


class _ShardLockState:
    __slots__ = ("shared_owners", "exclusive_owner", "queue")

    def __init__(self):
        # Insertion-ordered: holder snapshots and release sweeps iterate in
        # grant order rather than hash order (simlint SIM003).
        self.shared_owners = OrderedSet()
        self.exclusive_owner = None
        self.queue = deque()  # (mode, owner, event)


class SharedExclusiveLockTable:
    """Shared/exclusive locks keyed by shard id, FIFO and reentrant.

    An owner holding shared may not upgrade; callers acquire the strongest
    mode they will need up front (as the Squall port does).
    """

    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._locks: dict = {}

    def _state(self, shard_id) -> _ShardLockState:
        if shard_id not in self._locks:
            self._locks[shard_id] = _ShardLockState()
        return self._locks[shard_id]

    def holders(self, shard_id):
        """(exclusive_owner, set_of_shared_owners) snapshot."""
        state = self._locks.get(shard_id)
        if state is None:
            return None, OrderedSet()
        return state.exclusive_owner, state.shared_owners.copy()

    def write_holder(self, shard_id):
        state = self._locks.get(shard_id)
        return state.exclusive_owner if state else None

    def _grantable(self, state, mode, owner):
        if state.exclusive_owner is not None:
            return state.exclusive_owner == owner and mode == self.EXCLUSIVE
        if mode == self.SHARED:
            # Grant shared only if no exclusive waiter is queued (fairness).
            return not any(m == self.EXCLUSIVE for m, _o, _e in state.queue)
        return not state.shared_owners and not state.queue

    def _grant(self, state, mode, owner):
        if mode == self.SHARED:
            state.shared_owners.add(owner)
        else:
            state.exclusive_owner = owner

    def try_acquire(self, shard_id, owner, mode: str) -> bool:
        """O(1) uncontended/reentrant grab; False → use :meth:`acquire`.

        Deliberately conservative: any queued waiter, and the shared→
        exclusive upgrade path (which must cut to the head of the queue),
        fall back to the slow path so fairness decisions stay in one place.
        """
        state = self._locks.get(shard_id)
        if state is None:
            state = self._locks[shard_id] = _ShardLockState()
        if state.exclusive_owner is not None:
            return state.exclusive_owner == owner and mode == self.EXCLUSIVE
        if mode == self.SHARED:
            if owner in state.shared_owners:
                return True
            if not state.queue:
                state.shared_owners.add(owner)
                return True
            return False
        if owner in state.shared_owners:
            return False  # upgrade: slow path queues at the head
        if not state.shared_owners and not state.queue:
            state.exclusive_owner = owner
            return True
        return False

    def acquire(self, shard_id, owner, mode: str) -> "Event":
        """Event succeeding once ``owner`` holds ``shard_id`` in ``mode``."""
        if mode not in (self.SHARED, self.EXCLUSIVE):
            raise SimulationError("bad lock mode {!r}".format(mode))
        state = self._state(shard_id)
        event = self.sim.event(name="shardlock:{}:{}".format(self.name, shard_id))
        already_shared = owner in state.shared_owners and mode == self.SHARED
        already_exclusive = state.exclusive_owner == owner
        if already_shared or already_exclusive:
            event.succeed(None)
            return event
        if mode == self.EXCLUSIVE and owner in state.shared_owners:
            # Lock upgrade: give up the shared hold, then contend for
            # exclusive at the head of the queue (avoids self-deadlock when a
            # transaction reads a shard and later writes it).
            state.shared_owners.remove(owner)
            if state.exclusive_owner is None and not state.shared_owners:
                self._grant(state, mode, owner)
                event.succeed(None)
            else:
                state.queue.appendleft((mode, owner, event))
            return event
        if self._grantable(state, mode, owner):
            self._grant(state, mode, owner)
            event.succeed(None)
        else:
            state.queue.append((mode, owner, event))
        return event

    def release(self, shard_id, owner) -> None:
        state = self._locks.get(shard_id)
        if state is None:
            raise SimulationError("shard {!r} has no lock state".format(shard_id))
        if state.exclusive_owner == owner:
            state.exclusive_owner = None
        elif owner in state.shared_owners:
            state.shared_owners.remove(owner)
        else:
            raise SimulationError(
                "shard lock {!r} not held by {!r}".format(shard_id, owner)
            )
        self._drain(state)

    def _drain(self, state):
        while state.queue:
            mode, owner, event = state.queue[0]
            if event.triggered:
                state.queue.popleft()
                continue
            can_grant = (
                state.exclusive_owner is None
                and (mode == self.SHARED or not state.shared_owners)
            )
            if not can_grant:
                return
            state.queue.popleft()
            self._grant(state, mode, owner)
            event.succeed(None)
            if mode == self.EXCLUSIVE:
                return
            # keep draining consecutive shared waiters

    def cancel_wait(self, shard_id, owner) -> None:
        state = self._locks.get(shard_id)
        if state is None:
            return
        for entry in list(state.queue):
            _mode, waiting_owner, event = entry
            if waiting_owner == owner and not event.triggered:
                state.queue.remove(entry)
        self._drain(state)
