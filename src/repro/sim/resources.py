"""Capacity-limited resources: generic semaphores and CPUs with accounting."""

from collections import deque

from repro.sim.errors import SimulationError
from repro.sim.events import Charge, Event


class Resource:
    """A counted resource with FIFO queuing.

    ``acquire()`` returns an :class:`Event` that succeeds when a unit becomes
    available; the holder must call :meth:`release` exactly once.
    """

    def __init__(self, sim, capacity=1, name=""):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._event_name = "acquire:" + name
        self._in_use = 0
        self._queue = deque()

    @property
    def in_use(self):
        return self._in_use

    @property
    def queued(self):
        return len(self._queue)

    def acquire(self):
        event = Event(self.sim, self._event_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._queue.append(event)
        return event

    def release(self):
        if self._in_use <= 0:
            raise SimulationError("release of idle resource {!r}".format(self.name))
        if self._queue:
            waiter = self._queue.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1

    def cancel_acquire(self, event):
        """Abandon an :meth:`acquire` whose result will never be consumed.

        Crash teardown can interrupt a process parked on — or just granted —
        an acquire. Without cancellation the unit leaks: a granted event's
        holder never calls :meth:`release`, and a queued event is later
        granted to a dead process. Still-queued requests are withdrawn;
        already-granted ones are released.
        """
        if event is None:
            return
        try:
            self._queue.remove(event)
            return
        except ValueError:
            pass
        if event.triggered:
            self.release()


class CpuResource:
    """Models a node's CPU: ``capacity`` parallel execution slots.

    Work is submitted with :meth:`use`, which returns a :class:`Charge` that
    ends once the work has queued for a free slot and then occupied it for
    ``duration`` virtual seconds; the submitting process yields the charge
    to wait for that. Busy time is accumulated into fixed-width bins so
    experiments can report a CPU-utilisation time series, as Figure 10 of
    the paper does.
    """

    def __init__(self, sim, capacity, name="", bin_width=1.0):
        if capacity < 1:
            raise SimulationError("CPU capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.bin_width = bin_width
        self._free = capacity
        self._queue = deque()
        self._busy_bins = {}
        self.total_busy_time = 0.0

    def use(self, duration, tag=None, then=None):
        """Occupy one CPU slot for ``duration``; returns the charge to yield.

        With ``then``, the charge is a chain: when the first leg ends its
        slot is handed on as after any charge, and a second leg of ``then``
        seconds enters the CPU queue in the very slot in which the woken
        process would have called ``use(then)`` — so ``yield use(a, then=b)``
        is ``yield use(a); yield use(b)`` in completion instants, busy bins
        and FIFO position (a charge queued meanwhile is served between the
        legs), without waking the process in between. A chain nobody is
        parked on when its first leg ends drops the second.
        """
        if duration < 0 or (then is not None and then < 0):
            raise SimulationError("negative CPU duration")
        charge = Charge(then)
        self._start(duration, charge)
        return charge

    def use_run(self, unit, count, tag=None):
        """Occupy one slot for ``count`` back-to-back charges of ``unit``.

        Returns the charge to yield, or ``None`` when no slot is immediately
        free — the caller must then fall back to sequential :meth:`use`
        calls, which queue exactly as the unbatched charges would have.
        The completion instant and the busy-bin accounting are computed
        with the same float operations ``count`` sequential ``use(unit)``
        calls perform (repeated addition, one ``_account`` per charge), so
        the granted case is byte-identical to the sequential chain while
        costing one kernel event instead of ``count``.
        """
        if unit < 0:
            raise SimulationError("negative CPU duration")
        if self._free <= 0:
            return None
        charge = Charge()
        self._free -= 1
        cursor = self.sim.now
        for _ in range(count):
            self._account(cursor, unit)
            cursor += unit
        self.sim.schedule_at(cursor, self._complete, charge)
        return charge

    def _start(self, duration, charge):
        """Grant ``charge`` a slot for ``duration`` now, or queue it."""
        if self._free > 0:
            # A slot is free only while nothing is queued (or _complete is
            # handing it to the head of the queue): grant it now.
            self._free -= 1
            sim = self.sim
            self._account(sim.now, duration)
            sim.schedule(duration, self._complete, charge)
        else:
            self._queue.append((duration, charge))

    def _complete(self, charge):
        """A leg ended: take the slot of the waiter's wakeup, hand the CPU
        slot straight to the oldest queued charge (or free it when none is
        waiting), then — when the wakeup is provably the next dispatch —
        run it as the last act of this one.

        The wakeup's sequence number is claimed *before* the hand-off (as
        ``succeed`` before the hand-off always did) and the continuation
        runs *after* it: a waiter resumed earlier would find this slot
        still busy and queue where the heap order grants.
        """
        sim = self.sim
        process = charge.process
        then = charge.then
        inline = False
        if process is None:
            charge.process = False  # abandoned: nobody to wake, no second leg
        elif then is None:
            charge.process = False
            inline = sim.take_tail_slot()
            if not inline:
                sim.schedule(0.0, process._resume, None, None)
        else:
            charge.then = None
            inline = sim.take_tail_slot()
            if not inline:
                sim.schedule(0.0, self._start, then, charge)
        self._free += 1
        if self._queue:  # the oldest queued charge takes the slot at once
            self._start(*self._queue.popleft())
        if inline:
            if then is None:
                process._resume(None, None)
            else:
                self._start(then, charge)

    def _account(self, start, duration):
        """Spread ``duration`` of one slot's busy time across time bins."""
        self.total_busy_time += duration
        if duration <= 1e-12:
            return
        bins = self._busy_bins
        width = self.bin_width
        bin_index = int(start / width)
        if duration <= (bin_index + 1) * width - start:
            # The whole charge ends inside the bin it starts in: exactly
            # the one iteration the loop below would make.
            bins[bin_index] = bins.get(bin_index, 0.0) + duration
            return
        remaining = duration
        cursor = start
        while remaining > 1e-12:
            bin_index = int(cursor / width)
            bin_end = (bin_index + 1) * width
            chunk = min(remaining, bin_end - cursor)
            bins[bin_index] = bins.get(bin_index, 0.0) + chunk
            cursor += chunk
            remaining -= chunk

    def usage_series(self, start=0.0, end=None):
        """Utilisation fraction per bin over [start, end) as (time, frac)."""
        if end is None:
            end = self.sim.now
        points = []
        index = int(start / self.bin_width)
        last = int(end / self.bin_width)
        slot_seconds = self.capacity * self.bin_width
        while index < last:
            busy = self._busy_bins.get(index, 0.0)
            points.append((index * self.bin_width, busy / slot_seconds))
            index += 1
        return points

    def usage_between(self, start, end):
        """Average utilisation fraction over the window [start, end)."""
        if end <= start:
            return 0.0
        total = 0.0
        for time, frac in self.usage_series(start, end):
            del time
            total += frac
        bins = max(1, int(end / self.bin_width) - int(start / self.bin_width))
        return total / bins
