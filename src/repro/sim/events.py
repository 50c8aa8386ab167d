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
        registration order (see DESIGN.md §8, "wakeup path").
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

    def succeed_inline(self, value: Any = None) -> "Event":
        """Complete the event, running every waiter callback *synchronously*.

        Equivalent to :meth:`succeed` when called from inside a scheduled
        callback at the exact (time, seq) slot where the waiters would have
        resumed anyway: the waiters run now, in registration order, instead
        of through one zero-delay heap entry each. The WAL group-commit
        close timer uses this so a batch of N joiners costs one kernel
        event rather than N.
        """
        if self._done:
            raise SimulationError("event {!r} triggered twice".format(self.name))
        self._done = True
        self._value = value
        self._exception = None
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
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
