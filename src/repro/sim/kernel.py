"""The simulator core: a deterministic event heap with virtual time.

The event loop is the hottest code in the repository — every message hop,
timeout, CPU grant and process resumption passes through it — so it is
written for speed:

- heap entries are plain ``[time, seq, callback, args]`` lists, so heap
  sibling comparisons run entirely in C (list comparison falls through to
  float/int compares; ``seq`` is unique, so ``callback`` is never compared);
- :meth:`Simulator.run` pops and dispatches inline instead of paying a
  ``step()`` method call (and a second heap access) per event;
- cancellation clears the entry's callback slot in place and maintains a
  live counter, making :attr:`pending_events` O(1) instead of an O(n) scan;
- a zero-delay wakeup that is provably the next dispatch never enters the
  heap: :meth:`Simulator.take_tail_slot` consumes its sequence number and
  the caller runs it as the last act of the current dispatch.

``repro.bench.kernel_bench`` pins the resulting speedup against the frozen
pre-optimization kernel (:mod:`repro.bench._legacy_kernel`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.rng import RngStream, SeedSequence

#: A scheduled call: ``[time, seq, callback, args]``. Ordered by
#: ``(time, seq)`` so ties are FIFO; a ``None`` callback marks cancellation.
ScheduledCall = list

_TIME = 0
_SEQ = 1
_CALLBACK = 2
_ARGS = 3


class Simulator:
    """A discrete-event simulator with deterministic execution order.

    All simulated components share one :class:`Simulator`. Time is a float in
    *seconds* of virtual time. Determinism comes from the FIFO tie-break on
    the event heap plus seeded RNG streams handed out by :meth:`rng`.
    """

    #: Set by :class:`repro.profiling.Profiler` while active. Checked once
    #: per :meth:`run` call (zero per-event cost when profiling is off) and
    #: once per :meth:`step`; both hold the tail closed while they dispatch
    #: through it, so profiled runs keep one heap dispatch per wakeup.
    #: Class-level so the hook needs no per-instance state and survives
    #: simulator re-creation inside a profiled block.
    _active_profiler: Any = None

    #: True on :class:`repro.sim.partition.PartitionedSimulator`. The
    #: network consults this one class-attribute bool per send to decide
    #: whether arrival events must be rehomed to the destination node's
    #: partition; on the plain simulator the check costs a single attribute
    #: load and nothing else.
    partitioned: bool = False

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self._heap: list[ScheduledCall] = []
        self._seq = 0
        self._cancelled = 0  # cancelled entries still sitting in the heap
        self._tail_held = 0  # >0 while no wakeup may leave the heap (take_tail_slot)
        self._seeds = SeedSequence(seed)
        # (process, exception) of crashed processes
        self.failed_processes: list[tuple[Process, BaseException]] = []
        #: An already-succeeded event (value ``None``) for "proceed, but from
        #: your own wakeup slot" yields such as an uncontended lock grant:
        #: shared, so the hot path allocates nothing.
        self.ready = Event(self, "ready").succeed(None)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., object], *args: Any
    ) -> ScheduledCall:
        """Run ``callback(*args)`` after ``delay`` virtual seconds.

        Returns a handle accepted by :meth:`cancel` to skip the call.
        """
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay={})".format(delay))
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(
        self, time: float, callback: Callable[..., object], *args: Any
    ) -> ScheduledCall:
        """Run ``callback(*args)`` at absolute virtual ``time``.

        Exists for callers that must land on an exact precomputed instant
        (e.g. a coalesced CPU charge reproducing the float sum of its
        unbatched parts); ``schedule`` would recompute ``now + delay`` and
        can drift by an ulp.
        """
        if time < self.now:
            raise SimulationError(
                "cannot schedule in the past (time={}, now={})".format(time, self.now)
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def take_tail_slot(self) -> bool:
        """Claim the slot of a zero-delay wakeup that is provably next.

        For a caller in *tail position* of the running dispatch (nothing
        executes after it returns, all the way up to the event loop) that
        is about to ``schedule(0.0, continuation)``. Returns True iff that
        entry would be the very next dispatch — no heap entry, live or
        cancelled, has ``time <= now``, so nothing can sort ahead of it —
        and then consumes its sequence number: the caller must call the
        continuation directly as its last statement instead of scheduling
        it. Every later entry keeps the sequence number it has today, so
        the schedule is not "nearly" but exactly the one the heap would
        have produced (DESIGN.md §8, "The ordering rule"). Returns False —
        the caller schedules as usual — while the tail is held: under a
        profiler (it attributes time per heap dispatch) and inside
        :meth:`Event.succeed_inline`'s non-final callbacks, which are not
        in tail position.
        """
        heap = self._heap
        if (heap and heap[0][_TIME] <= self.now) or self._tail_held:
            return False
        self._seq += 1
        return True

    def schedule_for_node(
        self, node: str, delay: float, callback: Callable[..., object], *args: Any
    ) -> ScheduledCall:
        """Schedule on behalf of ``node``. On the plain simulator there is
        only one heap, so this is exactly :meth:`schedule`; the partitioned
        subclass homes the entry on ``node``'s partition instead."""
        return self.schedule(delay, callback, *args)

    def cancel(self, entry: ScheduledCall) -> None:
        """Cancel a scheduled call. Cancelling twice is a harmless no-op."""
        if entry[_CALLBACK] is not None:
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            self._cancelled += 1

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``; returns the Process."""
        return Process(self, generator, name=name)

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event` bound to this simulator."""
        return Event(self, name=name)

    def rng(self, label: str) -> RngStream:
        """Return an independent, reproducible RNG stream for ``label``."""
        return self._seeds.stream(label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled call. Returns False when idle."""
        heap = self._heap
        profiler = Simulator._active_profiler
        while heap:
            entry = heapq.heappop(heap)
            callback = entry[_CALLBACK]
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = entry[_TIME]
            if profiler is None:
                callback(*entry[_ARGS])
            else:
                self._tail_held += 1  # profiled: one heap dispatch per wakeup
                try:
                    profiler.dispatch(callback, entry[_ARGS])
                finally:
                    self._tail_held -= 1
            return True
        return False

    def run(self, until: float | None = None) -> float:
        """Run until the heap drains or virtual time passes ``until``.

        Events scheduled at exactly ``t == until`` — including ones created
        by callbacks running at the boundary — execute (in FIFO order)
        before the call returns; only then does ``now`` advance to
        ``until``.
        """
        if Simulator._active_profiler is not None:
            self._tail_held += 1  # profiled: one heap dispatch per wakeup
            try:
                return self._run_profiled(until)
            finally:
                self._tail_held -= 1
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            while heap:
                entry = pop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled -= 1
                    continue
                self.now = entry[_TIME]
                callback(*entry[_ARGS])
            return self.now
        while heap:
            entry = heap[0]
            if entry[_CALLBACK] is None:
                pop(heap)
                self._cancelled -= 1
                continue
            if entry[_TIME] > until:
                break
            pop(heap)
            self.now = entry[_TIME]
            entry[_CALLBACK](*entry[_ARGS])
        if until > self.now:
            self.now = until
        return self.now

    def _run_profiled(self, until: float | None) -> float:
        """The :meth:`run` loop with every dispatch routed through the
        active profiler. Identical pop order, time advancement and boundary
        semantics — the profiler only wraps the callback invocation."""
        profiler = Simulator._active_profiler
        profiler.last_sim = self
        dispatch = profiler.dispatch
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            while heap:
                entry = pop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled -= 1
                    continue
                self.now = entry[_TIME]
                dispatch(callback, entry[_ARGS])
            return self.now
        while heap:
            entry = heap[0]
            if entry[_CALLBACK] is None:
                pop(heap)
                self._cancelled -= 1
                continue
            if entry[_TIME] > until:
                break
            pop(heap)
            self.now = entry[_TIME]
            dispatch(entry[_CALLBACK], entry[_ARGS])
        if until > self.now:
            self.now = until
        return self.now

    def run_until_complete(self, process: Process, limit: float | None = None) -> Any:
        """Run until ``process`` finishes; returns its value or re-raises.

        ``limit`` bounds virtual time as a safety net against deadlock.
        """
        while not process.finished:
            if limit is not None and self.now > limit:
                raise SimulationError(
                    "process {!r} did not finish by t={}".format(process.name, limit)
                )
            if not self.step():
                raise SimulationError(
                    "deadlock: no pending events but process {!r} not finished".format(
                        process.name
                    )
                )
        return process.result()

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) scheduled calls, maintained in O(1)."""
        return len(self._heap) - self._cancelled
