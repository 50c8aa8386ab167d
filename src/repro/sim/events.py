"""Waitable primitives: events, timeouts and composite waits."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.sim.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator


class Event:
    """A one-shot waitable that processes can block on.

    An event starts *pending*; it is completed exactly once with either
    :meth:`succeed` (delivering a value to all waiters) or :meth:`fail`
    (throwing an exception into all waiters).
    """

    __slots__ = ("sim", "name", "_callbacks", "_done", "_value", "_exception")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[["Event"], object]] = []
        self._done = False
        self._value: Any = None
        self._exception: BaseException | None = None

    @property
    def triggered(self) -> bool:
        """True once the event has been completed (succeeded or failed)."""
        return self._done

    @property
    def ok(self) -> bool:
        """True if the event completed via :meth:`succeed`."""
        return self._done and self._exception is None

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("event {!r} has not been triggered".format(self.name))
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Complete the event, waking every waiter with ``value``.

        Each waiter gets its own zero-delay ``sim.schedule`` slot, in
        registration order (see DESIGN.md §8, "wakeup path"): the caller
        may have more to do in this dispatch, so nothing runs inline.
        """
        if self._done:
            raise SimulationError("event {!r} triggered twice".format(self.name))
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            schedule = self.sim.schedule
            for callback in callbacks:
                schedule(0.0, callback, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Complete the event, throwing ``exception`` into every waiter."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        # Waiters only look at the event from their own schedule slot, so
        # the exception is in place before any of them runs.
        self.succeed(None)
        self._exception = exception
        return self

    def succeed_tail(self, value: Any = None) -> "Event":
        """:meth:`succeed` for a caller in *tail position* of its dispatch.

        The caller guarantees that nothing runs after this call returns,
        all the way up to the event loop (a heap callback's last statement:
        a message arrival, a finishing process completing its ``done``
        event). With exactly one waiter and nothing else pending at this
        instant, that waiter's slot is provably the next dispatch
        (:meth:`Simulator.take_tail_slot`), so it runs now. Two or more
        waiters always take the heap: the first, run inline, could finish a
        process whose joiner would then run before the second.
        """
        callbacks = self._callbacks
        if len(callbacks) != 1 or self._done or not self.sim.take_tail_slot():
            return self.succeed(value)
        self._done = True
        self._value = value
        self._callbacks = []
        callbacks[0](self)
        return self

    def succeed_inline(self, value: Any = None) -> "Event":
        """Complete the event, running every waiter callback *synchronously*.

        Equivalent to :meth:`succeed` when called from inside a scheduled
        callback at the exact (time, seq) slot where the waiters would have
        resumed anyway: the waiters run now, in registration order, instead
        of through one zero-delay heap entry each. The WAL group-commit
        close timer uses this so a batch of N joiners costs one kernel
        event rather than N. Only the last waiter runs in tail position of
        the dispatch; the others must not claim a tail slot
        (:meth:`Simulator.take_tail_slot`), or their continuations would
        run ahead of the waiters still to be resumed here.
        """
        if self._done:
            raise SimulationError("event {!r} triggered twice".format(self.name))
        self._done = True
        self._value = value
        self._exception = None
        callbacks, self._callbacks = self._callbacks, []
        if not callbacks:
            return self
        sim = self.sim
        sim._tail_held += 1
        try:
            for callback in callbacks[:-1]:
                callback(self)
        finally:
            sim._tail_held -= 1
        callbacks[-1](self)
        return self

    def add_callback(self, callback: Callable[["Event"], object]) -> None:
        """Register ``callback(event)``; fires immediately if already done."""
        if self._done:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], object]) -> None:
        if callback in self._callbacks:
            self._callbacks.remove(callback)

    def __repr__(self) -> str:
        state = "done" if self._done else "pending"
        return "Event({!r}, {})".format(self.name, state)


class Charge:
    """The waitable :meth:`CpuResource.use` returns: one CPU charge (or a
    chain of two), awaited by at most one process.

    ``process`` is ``None`` until a process parks on the charge (and again
    after :meth:`detach`), the parked :class:`Process` while it waits, and
    ``False`` once the charge has ended. ``then`` is the duration of a
    chained second leg still to be served, else ``None``. A charge nobody
    is parked on when it ends is abandoned: it wakes nobody, schedules
    nothing and consumes no sequence number, exactly like an
    :class:`Event` without callbacks.
    """

    __slots__ = ("process", "then")

    def __init__(self, then: "float | None" = None) -> None:
        self.process: Any = None
        self.then = then

    def detach(self) -> None:
        """The parked process was interrupted: the CPU stays occupied for
        the rest of the running leg, but nobody is woken."""
        self.process = None


class Timeout:
    """Sleep for ``delay`` units of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError("negative timeout: {}".format(delay))
        self.delay = delay

    def __repr__(self) -> str:
        return "Timeout({})".format(self.delay)


class At:
    """Sleep until the *absolute* simulated instant ``time``.

    Unlike ``Timeout(t - sim.now)``, the wake-up lands at exactly ``time``
    (via :meth:`Simulator.schedule_at`) with no float round-trip through the
    current clock. The batch workload engine leans on this: per-client and
    batched dispatch compute the same arrival instants from the same RNG
    draws, and ``At`` guarantees both modes wake at bit-identical times even
    though they go to sleep from different ``now`` values.
    """

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time

    def __repr__(self) -> str:
        return "At({})".format(self.time)


class AllOf:
    """Wait for every waitable in ``waitables``; yields the list of values."""

    __slots__ = ("waitables",)

    def __init__(self, waitables: Iterable) -> None:
        self.waitables = list(waitables)


class AnyOf:
    """Wait until any waitable completes; yields ``(index, value)``."""

    __slots__ = ("waitables",)

    def __init__(self, waitables: Iterable) -> None:
        self.waitables = list(waitables)
        if not self.waitables:
            raise SimulationError("AnyOf requires at least one waitable")
