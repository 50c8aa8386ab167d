"""Generator-based cooperative processes."""

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, At, Charge, Event, Timeout


class _CompositeWait:
    """One process parked on an ``AllOf``/``AnyOf``.

    The member events call :meth:`on_done` (one bound method shared by all
    of them); ``process`` is cleared once the wait is over — satisfied,
    failed or abandoned by an interrupt — so completions that arrive later,
    including ones already queued in the heap, are ignored.
    """

    __slots__ = ("process", "events", "remaining")

    def __init__(self, process, events):
        self.process = process
        self.events = events
        self.remaining = len(events)

    def detach(self):
        """Abandon the wait: no member event may wake the process any more."""
        self.process = None
        callback = self.on_done
        for event in self.events:
            event.remove_callback(callback)


class _AllOfWait(_CompositeWait):
    __slots__ = ()

    def on_done(self, _event):
        process = self.process
        if process is None or process._done_event._done:
            return
        self.remaining -= 1
        # The first failed member in list order wins, even when it is not
        # the one whose completion is being delivered right now.
        for event in self.events:
            failure = event._exception
            if failure is not None:
                self.process = None
                process._resume(None, failure)
                return
        if self.remaining == 0:
            self.process = None
            process._resume([event._value for event in self.events], None)


class _AnyOfWait(_CompositeWait):
    __slots__ = ()

    def on_done(self, event):
        process = self.process
        if process is None or process._done_event._done:
            return
        self.process = None
        if event._exception is not None:
            process._resume(None, event._exception)
        else:
            process._resume((self.events.index(event), event._value), None)


class Process:
    """A running simulated activity, driven by a Python generator.

    The generator yields waitables (see :mod:`repro.sim`); when the waitable
    completes, the generator is resumed with the waitable's value. ``return``
    from the generator finishes the process with that value. An uncaught
    exception finishes the process with that exception; joining processes see
    it re-raised.

    Processes may be cancelled asynchronously via :meth:`interrupt`, which
    throws :class:`~repro.sim.errors.Interrupt` into the generator at its
    current yield point.

    Every wakeup — an event completing, a CPU charge ending, a timer
    firing, an interrupt — owns one slot in the kernel's sequence-number
    space. The slot is taken from the heap unless the wakeup is provably
    the very next dispatch (:meth:`Simulator.take_tail_slot`), in which case
    it runs as the last act of the current one (DESIGN.md §8, "The ordering
    rule").
    """

    __slots__ = (
        "sim",
        "name",
        "_generator",
        "_done_event",
        "_waiting_on",
        "_pending_timer",
        "_interrupt_pending",
    )

    def __init__(self, sim, generator, name=""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._done_event = Event(sim, "done:" + self.name)
        self._waiting_on = None  # the Event or _CompositeWait parked on
        self._pending_timer = None
        self._interrupt_pending = None
        sim.schedule(0.0, self._resume, None, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self):
        return self._done_event._done

    @property
    def done_event(self):
        """Event triggered when this process completes."""
        return self._done_event

    def result(self):
        """Return value of the finished process, re-raising its exception."""
        if not self.finished:
            raise SimulationError("process {!r} still running".format(self.name))
        if self._done_event.exception is not None:
            raise self._done_event.exception
        return self._done_event.value

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its next resumption.

        Interrupting a finished process is a no-op so that race conditions
        between completion and cancellation are harmless. A wakeup already
        queued in the heap for a single event or timer is delivered first;
        the interrupt then lands at whatever the process yields next.
        """
        if self.finished or self._interrupt_pending is not None:
            return
        self._interrupt_pending = Interrupt(cause)
        self._detach_wait()
        self.sim.schedule(0.0, self._resume_interrupt)

    def _resume_interrupt(self):
        exc, self._interrupt_pending = self._interrupt_pending, None
        if exc is None or self.finished:
            return
        # A wakeup that was already queued may have run since interrupt()
        # and parked the process on something new: abandon that too.
        self._detach_wait()
        self._resume(None, exc)

    def _detach_wait(self):
        """Stop listening to whatever the process is currently waiting on."""
        if self._pending_timer is not None:
            self.sim.cancel(self._pending_timer)
            self._pending_timer = None
        waited = self._waiting_on
        if waited is not None:
            self._waiting_on = None
            if isinstance(waited, Event):
                waited.remove_callback(self._on_event)
            else:
                waited.detach()

    # ------------------------------------------------------------------
    # Generator driving
    # ------------------------------------------------------------------
    def _resume(self, value, exception):
        """Run the generator to its next wait. In tail position of the
        running dispatch: every caller returns straight to the event loop
        afterwards (``Event.succeed_inline``, which does not, holds the tail
        closed), which is what lets a finished process or an
        already-triggered event hand on inline (``take_tail_slot``)."""
        done = self._done_event
        if done._done:
            return
        sim = self.sim
        while True:
            self._pending_timer = None
            self._waiting_on = None
            try:
                if exception is None:
                    target = self._generator.send(value)
                else:
                    target = self._generator.throw(exception)
            except StopIteration as stop:
                done.succeed_tail(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to joiners
                # Record the failure on the simulator so that crashes in
                # detached background processes (nobody joins them) are not
                # silent.
                failures = getattr(sim, "failed_processes", None)
                if failures is not None:
                    failures.append((self, exc))
                done.fail(exc)
                return
            # Park on what the generator yielded, most frequent kinds first.
            kind = type(target)
            if kind is Charge and target.process is None:
                target.process = self
                self._waiting_on = target
            elif kind is Event:
                if not target._done:
                    self._waiting_on = target
                    target._callbacks.append(self._on_event)
                elif sim.take_tail_slot():
                    # The wakeup would be the very next dispatch: deliver
                    # the value now instead of through the heap.
                    exception = target._exception
                    value = None if exception is not None else target._value
                    continue
                else:
                    self._waiting_on = target
                    sim.schedule(0.0, self._on_event, target)
            elif kind is Timeout:
                self._pending_timer = sim.schedule(target.delay, self._resume, None, None)
            else:
                self._wait_on(target)
            return

    def _on_event(self, event):
        """Wakeup callback of a single-event wait (runs in its own slot)."""
        if event._exception is None:
            self._resume(event._value, None)
        else:
            self._resume(None, event._exception)

    def _wait_on(self, target):
        """Park on the less common waitables (and subclasses of any)."""
        if isinstance(target, Process):
            target = target._done_event
        if isinstance(target, AllOf):
            events = [self._as_event(item) for item in target.waitables]
            if events:
                self._wait_on_composite(_AllOfWait(self, events))
            else:
                self._pending_timer = self.sim.schedule(0.0, self._resume, [], None)
        elif isinstance(target, (int, float)):
            self._pending_timer = self.sim.schedule(target, self._resume, None, None)
        elif isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._on_event)
        elif isinstance(target, AnyOf):
            events = [self._as_event(item) for item in target.waitables]
            self._wait_on_composite(_AnyOfWait(self, events))
        elif isinstance(target, At):
            self._pending_timer = self.sim.schedule_at(target.time, self._resume, None, None)
        elif isinstance(target, Timeout):
            self._pending_timer = self.sim.schedule(target.delay, self._resume, None, None)
        elif isinstance(target, Charge) and target.process is False:
            # Yielded after it ended: ready at once, like a triggered event.
            self._pending_timer = self.sim.schedule(0.0, self._resume, None, None)
        else:
            self._resume(
                None,
                SimulationError(
                    "process {!r} yielded non-waitable {!r}".format(self.name, target)
                ),
            )

    def _wait_on_composite(self, waiter):
        self._waiting_on = waiter
        callback = waiter.on_done
        for event in waiter.events:
            event.add_callback(callback)

    def _as_event(self, item):
        if isinstance(item, Process):
            return item.done_event
        if isinstance(item, Event):
            return item
        if isinstance(item, (int, float)):
            item = Timeout(item)
        if isinstance(item, Timeout):
            event = Event(self.sim, name="timeout")
            self.sim.schedule(item.delay, event.succeed, None)
            return event
        if isinstance(item, At):
            event = Event(self.sim, name="at")
            self.sim.schedule_at(item.time, event.succeed, None)
            return event
        raise SimulationError("cannot wait on {!r}".format(item))

    def __repr__(self):
        state = "finished" if self.finished else "running"
        return "Process({!r}, {})".format(self.name, state)
