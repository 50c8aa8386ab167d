"""Unit tests for the DES kernel: scheduling, processes, events."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    CpuResource,
    Interrupt,
    LinkProfile,
    Network,
    PartitionedSimulator,
    SimulationError,
    Simulator,
    Timeout,
    Topology,
)
from repro.sim.events import Event


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
# The wakeup-path ordering contract (DESIGN.md §8): every wakeup owns one
# slot in sequence-number space, taken from the heap unless it is provably
# the next dispatch, and an abandoned wait can never wake the process later.
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
    sim.schedule(0.0, log.append, "bystander")  # pending at t=0: no tail slot
    assert sim.step()  # parks on the triggered event: its wakeup is queued
    assert log == [] and sim.pending_events == 2
    proc.interrupt("race")
    sim.run()
    # The queued wakeup wins its slot; the interrupt lands at the next
    # yield, and the 5 s timer abandoned there never fires into the process.
    assert log == ["bystander", "value", ("interrupt", "race", 0.0), ("slept", None, 10.0)]
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


# ----------------------------------------------------------------------
# Tail dispatch (DESIGN.md §8, "The ordering rule"): a zero-delay wakeup
# that is provably the next dispatch runs as the last act of the current
# one. The oracle is the same kernel with the answer forced to "no" — one
# heap dispatch per wakeup, which is what every kernel before it did.
# ----------------------------------------------------------------------
class _CountPushes:
    """Mixin: counts the simulator's heap pushes."""

    pushes = 0

    def schedule(self, delay, callback, *args):
        self.pushes += 1
        return super().schedule(delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        self.pushes += 1
        return super().schedule_at(time, callback, *args)


class Counting(_CountPushes, Simulator):
    """The real kernel."""


class NeverInline(Counting):
    """The reference: no wakeup is ever taken out of the heap."""

    def take_tail_slot(self):
        return False


class CountingPartitioned(_CountPushes, PartitionedSimulator):
    pass


def run_program(sim_cls, program, stops=()):
    """Interpret ``program`` (one op list per top-level process) on a fresh
    ``sim_cls`` and return everything an observer could tell two runs apart
    by — the dispatch trace ``(now, process, value)`` in execution order,
    the final ``_seq`` and clock, the CPUs' busy bins, slots and queues —
    plus the number of heap pushes."""
    sim = sim_cls()
    cpus = [CpuResource(sim, 1, "c1", bin_width=0.5), CpuResource(sim, 2, "c2", bin_width=0.5)]
    net = Network.from_topology(sim, Topology.single(LinkProfile(0.25, 4.0)))
    shared = [sim.event("e{}".format(i)) for i in range(3)]
    trace = []
    procs = []

    def spawn(name, ops):
        procs.append(sim.spawn(body(name, ops), name=name))
        return procs[-1]

    def body(name, ops):
        for index, op in enumerate(ops):
            try:
                value = yield from step("{}.{}".format(name, index), op)
            except Interrupt as exc:
                value = ("interrupt", exc.cause)
            trace.append((sim.now, name, value))
        return name

    def callback(name):
        # What a same-instant bystander would see: ties that flip show here.
        trace.append((sim.now, name, "callback", [cpu._free for cpu in cpus]))

    def step(name, op):
        kind = op[0]
        if kind == "sleep":
            return (yield Timeout(op[1]))
        if kind == "cpu":
            return (yield cpus[op[1]].use(op[2]))
        if kind == "chain":
            return (yield cpus[op[1]].use(op[2], then=op[3]))
        if kind == "send":
            return (yield net.send("a", "b", size=op[1]))
        if kind == "ready":
            event = sim.event()
            event.succeed(name)
            return (yield event)
        if kind == "wait":
            return (yield shared[op[1]])
        if kind == "join":
            return (yield procs[op[1] % len(procs)])
        if kind == "fire":
            if not shared[op[1]].triggered:
                shared[op[1]].succeed(name)
        elif kind == "interrupt":
            procs[op[1] % len(procs)].interrupt(name)
        elif kind == "cancelled":
            sim.cancel(sim.schedule(op[1], trace.append, "never"))
        elif kind == "callback":
            sim.schedule(op[1], callback, name)
        else:
            children = [spawn("{}/{}".format(name, i), ops) for i, ops in enumerate(op[1])]
            if kind == "anyof":
                return (yield AnyOf(children))
            return (yield children[0] if len(children) == 1 else AllOf(children))
        return kind

    for index, ops in enumerate(program):
        spawn("p{}".format(index), ops)
    for stop in sorted(stops):
        sim.run(until=stop)
        trace.append(("stop", sim.now))
    sim.run()
    observed = (
        trace,
        sim._seq,
        sim.now,
        [(cpu._busy_bins, cpu.total_busy_time, cpu._free, len(cpu._queue)) for cpu in cpus],
        [(proc.name, proc.finished) for proc in procs],
    )
    return observed, sim.pushes


_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # tie-prone on purpose
_LEAF_OPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("cpu"), st.integers(0, 1), _DELAYS),
    st.tuples(st.just("chain"), st.integers(0, 1), _DELAYS, _DELAYS),
    st.tuples(st.just("send"), st.integers(0, 1)),
    st.tuples(st.just("ready")),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("cancelled"), _DELAYS),
    st.tuples(st.just("callback"), _DELAYS),
)


def _op_lists(depth):
    if depth == 0:
        return st.lists(_LEAF_OPS, max_size=5)
    children = st.lists(_op_lists(depth - 1), min_size=1, max_size=3)
    spawning = st.tuples(st.sampled_from(["allof", "anyof"]), children)
    return st.lists(st.one_of(_LEAF_OPS, _LEAF_OPS, spawning), max_size=6)


@settings(max_examples=400, deadline=None)
@given(st.lists(_op_lists(2), min_size=1, max_size=4), st.lists(_DELAYS, max_size=2))
def test_tail_dispatch_equals_the_never_inline_kernel(program, stops):
    """Random process graphs — timers with tie-prone durations, charges and
    chains on a capacity-1 and a capacity-2 CPU, messages, pre-triggered
    events, joins (one or several joiners, AllOf, AnyOf), interrupts,
    cancelled timers, ``run(until)`` boundaries — give the identical
    dispatch trace, final ``_seq`` and CPU accounting with and without
    tail dispatch."""
    observed, pushes = run_program(Counting, program, stops)
    reference, reference_pushes = run_program(NeverInline, program, stops)
    assert observed == reference
    assert reference_pushes == reference[1]  # the reference pushes every slot
    assert pushes <= reference_pushes


#: Every tail site at least once: charge -> waiter, chain leg 1 -> leg 2,
#: ready event, message arrival, a sole joiner, an AllOf of finishing
#: children — plus ties that must keep the heap (p1 and p2 both join p0).
_ALL_SITES = [
    [("cpu", 0, 1.0), ("callback", 0.5), ("ready",), ("send", 1)],
    [("sleep", 0.1), ("cpu", 0, 0.5), ("chain", 1, 0.25, 0.25), ("join", 0)],
    [("sleep", 0.2), ("allof", [[("cpu", 1, 0.5)], [("sleep", 0.7), ("ready",)]]), ("join", 0)],
    [("join", 1), ("sleep", 0.25)],
]


def test_a_fixed_program_takes_ten_of_thirty_wakeups_out_of_the_heap():
    observed, pushes = run_program(Counting, _ALL_SITES)
    reference, reference_pushes = run_program(NeverInline, _ALL_SITES)
    assert observed == reference
    assert (pushes, reference_pushes, observed[1]) == (20, 30, 30)
    partitioned, partitioned_pushes = run_program(CountingPartitioned, _ALL_SITES)
    # The partitioned loop's subheaps merge by seq: it never takes a tail
    # slot (its inherited ``_heap`` is empty, which must not read as idle).
    assert partitioned_pushes == partitioned[1] == reference_pushes
    assert partitioned[0] == reference[0]


def test_two_joiners_take_the_heap_so_the_first_ones_joiner_runs_last():
    """p1 and p2 both join p0; p1 finishes on waking and is joined by p3.
    Were p1 resumed inline from p0's completion, p3 (its sole joiner) would
    run inline too — ahead of p2."""
    program = [[("sleep", 1.0)], [("join", 0)], [("join", 0), ("ready",)], [("join", 1)]]
    observed, _ = run_program(Counting, program)
    assert observed == run_program(NeverInline, program)[0]
    woken = [name for now, name, *_ in observed[0] if now == 1.0]
    assert woken == ["p0", "p1", "p2", "p3", "p2"]


@pytest.mark.parametrize("cancelled_head", [False, True])
def test_a_cancelled_entry_at_now_keeps_the_wakeup_on_the_heap(cancelled_head):
    """take_tail_slot is conservative: it does not look whether the entry
    heading the heap at ``now`` is live."""
    sim = Counting()
    log = []

    def proc():
        if cancelled_head:
            sim.cancel(sim.schedule(0.0, log.append, "never"))
        ready = sim.event()
        ready.succeed("value")
        before = sim.pushes
        log.append((yield ready))
        log.append(sim.pushes - before)

    sim.spawn(proc())
    sim.run()
    assert log == ["value", 1 if cancelled_head else 0]
    assert sim._seq == (3 if cancelled_head else 2)  # the slot is consumed either way


@pytest.mark.parametrize("sim_cls", [Counting, NeverInline])
def test_run_until_executes_a_wakeup_inlined_exactly_at_the_boundary(sim_cls):
    sim = sim_cls()
    cpu = CpuResource(sim, 1)
    log = []

    def work():
        yield cpu.use(1.0)
        log.append(sim.now)
        ready = sim.event()
        ready.succeed(None)
        yield ready
        log.append(("ready", sim.now))
        yield Timeout(0.5)
        log.append(sim.now)

    sim.spawn(work())
    assert sim.run(until=1.0) == 1.0
    assert log == [1.0, ("ready", 1.0)]
    assert sim.pushes == (3 if sim_cls is Counting else 5)
    sim.run()
    assert log[-1] == 1.5 and sim._seq == 5


def test_succeed_inline_resumes_only_its_last_waiter_in_tail_position():
    """The WAL group-commit close timer resumes N joiners in one dispatch:
    a joiner that is not the last must not hand on inline, or its
    continuation would overtake the joiners still to be resumed."""
    for sim_cls in (Counting, NeverInline):
        sim = sim_cls()
        group = sim.event("flush-group")
        order = []

        def joiner(tag):
            yield group
            order.append(tag + "1")
            ready = sim.event()
            ready.succeed(None)
            yield ready
            order.append(tag + "2")

        for tag in "abc":
            sim.spawn(joiner(tag))
        sim.schedule(1.0, group.succeed_inline, None)
        sim.run()
        assert order == ["a1", "b1", "c1", "a2", "b2", "c2"] and sim._seq == 7


# Hand-made mutants of the rule: each must be caught.
def _mutant_no_seq_bump(self):
    heap = self._heap
    return not (heap and heap[0][0] <= self.now)


def _mutant_inline_first_of_many(self, value=None):
    callbacks = self._callbacks
    if not callbacks or self._done or not self.sim.take_tail_slot():
        return self.succeed(value)
    self._done = True
    self._value = value
    self._callbacks = []
    callbacks[0](self)
    for callback in callbacks[1:]:
        self.sim.schedule(0.0, callback, self)
    return self


def _mutant_resume_before_the_hand_off(self, charge):
    sim = self.sim
    process = charge.process
    charge.process = False
    if process is not None:
        if sim.take_tail_slot():
            process._resume(None, None)
        else:
            sim.schedule(0.0, process._resume, None, None)
    if self._queue:
        duration, queued = self._queue.popleft()
        self._account(sim.now, duration)
        sim.schedule(duration, self._complete, queued)
    else:
        self._free += 1


@pytest.mark.parametrize(
    "owner,attribute,mutant,program",
    [
        (Simulator, "take_tail_slot", _mutant_no_seq_bump, [[("ready",)]]),
        (
            Event,
            "succeed_tail",
            _mutant_inline_first_of_many,
            [[("sleep", 1.0)], [("join", 0)], [("join", 0), ("ready",)], [("join", 1)]],
        ),
        (
            CpuResource,
            "_complete",
            _mutant_resume_before_the_hand_off,
            # p1's charge queues behind p0's; p0's callback at t=1.5 must see
            # the slot p1's charge frees at t=1.5 (scheduled first).
            [[("cpu", 0, 1.0), ("callback", 0.5)], [("cpu", 0, 0.5)]],
        ),
    ],
    ids=["no-seq-bump", "inline-with-two-waiters", "inline-before-hand-off"],
)
def test_the_oracle_kills_hand_made_mutants(monkeypatch, owner, attribute, mutant, program):
    reference = run_program(NeverInline, program)[0]
    assert run_program(Counting, program)[0] == reference
    monkeypatch.setattr(owner, attribute, mutant)
    assert run_program(Counting, program)[0] != reference
