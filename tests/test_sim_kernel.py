"""Unit tests for the DES kernel: scheduling, processes, events."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, SimulationError, Simulator, Timeout


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_fifo():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_cancelled_entry_is_skipped():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    sim.cancel(handle)
    sim.run()
    assert seen == []


def test_cancel_is_idempotent_and_pending_count_is_live():
    sim = Simulator()
    handles = [sim.schedule(1.0, lambda: None) for _ in range(5)]
    assert sim.pending_events == 5
    sim.cancel(handles[0])
    sim.cancel(handles[0])  # double-cancel must not double-count
    sim.cancel(handles[3])
    assert sim.pending_events == 3
    sim.run()
    assert sim.pending_events == 0


def test_run_until_executes_boundary_events_before_advancing():
    """Events at exactly t == until run — including cascades scheduled *at*
    the boundary by callbacks already running at t == until — in FIFO
    order, before run() returns with now == until."""
    sim = Simulator()
    seen = []

    def at_boundary(tag):
        seen.append(tag)
        if tag == "first":
            # Scheduled during the last step, landing exactly on `until`.
            sim.schedule(0.0, at_boundary, "cascade")

    sim.schedule(1.0, at_boundary, "early")
    sim.schedule(2.0, at_boundary, "first")
    sim.schedule(2.0, at_boundary, "second")
    sim.schedule(2.0 + 1e-9, seen.append, "late")
    sim.run(until=2.0)
    assert seen == ["early", "first", "second", "cascade"]
    assert sim.now == 2.0
    assert sim.pending_events == 1  # "late" still pending
    sim.run()
    assert seen[-1] == "late"


def test_run_until_stops_at_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "b")
    sim.run(until=2.0)
    assert seen == ["a"]
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_process_timeout_and_return_value():
    sim = Simulator()

    def worker():
        yield 1.5
        yield Timeout(0.5)
        return 42

    proc = sim.spawn(worker())
    value = sim.run_until_complete(proc)
    assert value == 42
    assert sim.now == 2.0


def test_process_join_propagates_value():
    sim = Simulator()

    def child():
        yield 1.0
        return "done"

    def parent():
        value = yield sim.spawn(child())
        return value + "!"

    proc = sim.spawn(parent())
    assert sim.run_until_complete(proc) == "done!"


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield 1.0
        raise ValueError("boom")

    def parent():
        yield sim.spawn(child())

    proc = sim.spawn(parent())
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_complete(proc)


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    ready = sim.event("ready")

    def waiter():
        value = yield ready
        return value

    def trigger():
        yield 3.0
        ready.succeed("payload")

    proc = sim.spawn(waiter())
    sim.spawn(trigger())
    assert sim.run_until_complete(proc) == "payload"
    assert sim.now == 3.0


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ready = sim.event()

    def waiter():
        yield ready

    proc = sim.spawn(waiter())
    sim.schedule(1.0, lambda: ready.fail(RuntimeError("bad")))
    with pytest.raises(RuntimeError, match="bad"):
        sim.run_until_complete(proc)


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_callback_after_trigger_fires():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_allof_waits_for_every_member():
    sim = Simulator()

    def child(delay, value):
        yield delay
        return value

    def parent():
        values = yield AllOf([sim.spawn(child(2.0, "a")), sim.spawn(child(1.0, "b"))])
        return values

    proc = sim.spawn(parent())
    assert sim.run_until_complete(proc) == ["a", "b"]
    assert sim.now == 2.0


def test_allof_empty_completes_immediately():
    sim = Simulator()

    def parent():
        values = yield AllOf([])
        return values

    assert sim.run_until_complete(sim.spawn(parent())) == []


def test_anyof_returns_first_completion():
    sim = Simulator()

    def child(delay, value):
        yield delay
        return value

    def parent():
        index, value = yield AnyOf([sim.spawn(child(5.0, "slow")), sim.spawn(child(1.0, "fast"))])
        return index, value

    proc = sim.spawn(parent())
    assert sim.run_until_complete(proc) == (1, "fast")
    assert sim.now == 1.0


def test_interrupt_raises_inside_process():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield 100.0
        except Interrupt as exc:
            log.append(exc.cause)
            return "interrupted"

    proc = sim.spawn(victim())
    sim.schedule(1.0, proc.interrupt, "migration abort")
    assert sim.run_until_complete(proc) == "interrupted"
    assert log == ["migration abort"]
    assert sim.now == pytest.approx(1.0)


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield 0.1
        return "ok"

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt("late")
    sim.run()
    assert proc.result() == "ok"


def test_interrupt_detaches_from_event():
    sim = Simulator()
    never = sim.event()

    def victim():
        try:
            yield never
        except Interrupt:
            return "freed"

    proc = sim.spawn(victim())
    sim.schedule(1.0, proc.interrupt)
    assert sim.run_until_complete(proc) == "freed"


def test_yielding_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield object()

    proc = sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run_until_complete(proc)


def test_deadlock_detected_by_run_until_complete():
    sim = Simulator()
    never = sim.event()

    def stuck():
        yield never

    proc = sim.spawn(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(proc)


def test_rng_streams_are_independent_and_reproducible():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    assert [sim_a.rng("x").random() for _ in range(3)] == [
        sim_b.rng("x").random() for _ in range(3)
    ]
    assert sim_a.rng("x").random() != sim_a.rng("y").random()


# ----------------------------------------------------------------------
# The wakeup-path ordering contract (DESIGN.md §8): every wakeup takes its
# own schedule slot, and an abandoned wait can never wake the process later.
# ----------------------------------------------------------------------
def test_same_instant_wakeups_run_fifo_after_already_queued_entries():
    sim = Simulator()
    event = sim.event()
    seen = []

    def waiter(tag):
        yield event
        seen.append(tag)

    sim.spawn(waiter("A"))
    sim.spawn(waiter("B"))

    def trigger():
        event.succeed(None)
        sim.schedule(0.0, seen.append, "after-succeed")

    sim.schedule(1.0, trigger)
    sim.schedule(1.0, seen.append, "queued-before")
    sim.run()
    # The waiters wake in registration order, each in a slot of its own:
    # behind what was already queued for t=1, ahead of what trigger()
    # schedules after the succeed.
    assert seen == ["queued-before", "A", "B", "after-succeed"]


def test_interrupt_racing_a_triggered_event_delivers_the_value_first():
    sim = Simulator()
    event = sim.event()
    event.succeed("value")
    log = []

    def victim():
        log.append((yield event))
        try:
            yield Timeout(5.0)
        except Interrupt as exc:
            log.append(("interrupt", exc.cause, sim.now))
        log.append(("slept", (yield Timeout(10.0)), sim.now))

    proc = sim.spawn(victim())
    assert sim.step()  # parks on the triggered event: its wakeup is queued
    proc.interrupt("race")
    sim.run()
    # The queued wakeup wins its slot; the interrupt lands at the next
    # yield, and the 5 s timer abandoned there never fires into the process.
    assert log == ["value", ("interrupt", "race", 0.0), ("slept", None, 10.0)]
    assert proc.finished


@pytest.mark.parametrize(
    "wait_on", [lambda event: event, lambda event: AllOf([event]), lambda event: AnyOf([event])],
    ids=["event", "AllOf", "AnyOf"],
)
def test_interrupt_detaches_from_the_wait(wait_on):
    """Regression: a process interrupted while parked on AllOf/AnyOf used to
    stay registered on the members and was woken with their stale values at
    whatever yield it had reached since. (A single event always detached;
    it now does so by removing the process's bound-method callback.)"""
    sim = Simulator()
    event = sim.event()
    log = []

    def victim():
        try:
            yield wait_on(event)
        except Interrupt:
            log.append(("interrupted", sim.now))
        log.append(("slept", (yield Timeout(10.0)), sim.now))

    proc = sim.spawn(victim())
    sim.schedule(0.5, proc.interrupt)
    sim.schedule(1.0, event.succeed, "late")
    sim.run()
    assert log == [("interrupted", 0.5), ("slept", None, 10.5)]
    assert proc.finished and not sim.failed_processes


@pytest.mark.parametrize("composite", [AllOf, AnyOf])
def test_interrupt_neutralises_a_queued_composite_completion(composite):
    sim = Simulator()
    event = sim.event()
    log = []

    def victim():
        try:
            log.append((yield composite([event, sim.event()])))
        except Interrupt:
            log.append(("interrupted", sim.now))
        log.append(("slept", (yield Timeout(10.0)), sim.now))

    proc = sim.spawn(victim())
    # Same instant, completion first: its callback is already in the heap
    # when the interrupt abandons the wait.
    sim.schedule(0.5, event.succeed, "late")
    sim.schedule(0.5, proc.interrupt)
    sim.run()
    assert log == [("interrupted", 0.5), ("slept", None, 10.5)]
    assert proc.finished and not sim.failed_processes


def test_remove_callback_matches_a_bound_method_by_equality():
    sim = Simulator()
    event = sim.event()
    seen = []

    class Waiter:
        def on_event(self, ev):
            seen.append(ev.value)

    waiter = Waiter()
    event.add_callback(waiter.on_event)
    assert waiter.on_event is not waiter.on_event  # a fresh object per access
    event.remove_callback(waiter.on_event)
    event.succeed("ignored")
    sim.run()
    assert seen == []
