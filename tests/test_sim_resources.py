"""Unit tests for CPU and generic resources, and the network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CpuResource,
    Interrupt,
    LinkProfile,
    Network,
    NetworkConfig,
    Resource,
    SimulationError,
    Simulator,
    Timeout,
    Topology,
)
from tests.test_sim_kernel import Counting, NeverInline


def flat_network(sim, config=None):
    """An uncontended single-rack network priced by flat ``config`` numbers."""
    config = config or NetworkConfig()
    topology = Topology.single(LinkProfile(config.base_latency, config.bandwidth))
    return Network.from_topology(sim, topology, config=config)


def test_resource_grants_up_to_capacity_then_queues():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def worker(i):
        yield res.acquire()
        order.append(("start", i, sim.now))
        yield 1.0
        res.release()
        order.append(("end", i, sim.now))

    for i in range(3):
        sim.spawn(worker(i))
    sim.run()
    starts = {i: t for kind, i, t in order if kind == "start"}
    assert starts[0] == 0.0 and starts[1] == 0.0
    assert starts[2] == 1.0


def test_resource_release_without_acquire_errors():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_cancel_acquire_releases_granted_and_withdraws_queued():
    """An abandoned acquire must not leak: a granted request is released,
    a still-queued request is withdrawn (never handed to a dead waiter)."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.acquire()
    assert res.in_use == 1
    queued = res.acquire()
    assert res.queued == 1

    res.cancel_acquire(queued)
    assert res.queued == 0
    res.cancel_acquire(granted)
    assert res.in_use == 0
    res.cancel_acquire(None)  # no-op for a request that never happened

    # The freed unit is immediately grantable again.
    assert res.acquire().triggered
    assert res.in_use == 1


def test_cpu_serializes_beyond_capacity():
    sim = Simulator()
    cpu = CpuResource(sim, capacity=1)
    done_times = []

    def work():
        yield cpu.use(2.0)
        done_times.append(sim.now)

    sim.spawn(work())
    sim.spawn(work())
    sim.run()
    assert done_times == [2.0, 4.0]


def test_cpu_parallel_within_capacity():
    sim = Simulator()
    cpu = CpuResource(sim, capacity=4)
    done_times = []

    def work():
        yield cpu.use(2.0)
        done_times.append(sim.now)

    for _ in range(4):
        sim.spawn(work())
    sim.run()
    assert done_times == [2.0] * 4


def test_cpu_usage_series_accounts_busy_time():
    sim = Simulator()
    cpu = CpuResource(sim, capacity=2, bin_width=1.0)

    def work():
        yield cpu.use(1.5)

    sim.spawn(work())
    sim.run()
    sim.run(until=3.0)
    series = dict(cpu.usage_series(0.0, 3.0))
    # one of two slots busy for the whole first bin, half of the second.
    assert series[0.0] == pytest.approx(0.5)
    assert series[1.0] == pytest.approx(0.25)
    assert series[2.0] == pytest.approx(0.0)
    assert cpu.total_busy_time == pytest.approx(1.5)


def test_cpu_usage_between_average():
    sim = Simulator()
    cpu = CpuResource(sim, capacity=1, bin_width=1.0)
    sim.spawn(iter([cpu.use(1.0)]))

    def work():
        yield cpu.use(1.0)

    sim.spawn(work())
    sim.run()
    sim.run(until=4.0)
    assert cpu.usage_between(0.0, 4.0) == pytest.approx(0.5)


def test_network_local_send_is_free():
    sim = Simulator()
    net = flat_network(sim)
    assert net.delay_for("n1", "n1", size=10**9) == 0.0


def test_network_delay_scales_with_size():
    sim = Simulator()
    net = flat_network(sim, NetworkConfig(base_latency=0.001, bandwidth=1000.0))
    assert net.delay_for("a", "b", size=0) == pytest.approx(0.001)
    assert net.delay_for("a", "b", size=1000) == pytest.approx(1.001)


def test_network_send_delivers_after_delay():
    sim = Simulator()
    net = flat_network(sim, NetworkConfig(base_latency=0.5, bandwidth=1e9))
    arrival = []

    def sender():
        yield net.send("a", "b", size=0)
        arrival.append(sim.now)

    sim.spawn(sender())
    sim.run()
    assert arrival == [pytest.approx(0.5)]


def test_network_roundtrip_is_two_legs():
    sim = Simulator()
    net = flat_network(sim, NetworkConfig(base_latency=0.25, bandwidth=1e9))
    arrival = []

    def caller():
        yield net.roundtrip("a", "b")
        arrival.append(sim.now)

    sim.spawn(caller())
    sim.run()
    assert arrival == [pytest.approx(0.5)]
    assert net.messages_sent == 2


def test_network_broadcast_waits_for_all():
    sim = Simulator()
    net = flat_network(sim, NetworkConfig(base_latency=0.1, bandwidth=1e9))
    arrival = []

    def caller():
        yield net.broadcast("a", ["b", "c", "a"])
        arrival.append(sim.now)

    sim.spawn(caller())
    sim.run()
    assert arrival == [pytest.approx(0.1)]


def _reference_account(bins, start, duration, width):
    """The original per-bin loop of ``CpuResource._account``."""
    remaining = duration
    cursor = start
    while remaining > 1e-12:
        bin_index = int(cursor / width)
        bin_end = (bin_index + 1) * width
        chunk = min(remaining, bin_end - cursor)
        bins[bin_index] = bins.get(bin_index, 0.0) + chunk
        cursor += chunk
        remaining -= chunk


@pytest.mark.parametrize("capacity", [1, 2])
def test_cpu_bins_and_completion_instants_match_the_reference_loop(capacity):
    """Charges inside one bin, ending exactly on a boundary, straddling one
    and several boundaries, and too short to count: busy bins and
    completion instants are bit-identical to the per-bin loop's, whether a
    charge is granted on arrival or handed a slot by a completing one."""
    width = 0.5
    durations = [0.3, 0.3, 0.2, 1.2, 0.1, 1e-13, 0.0, 0.7, 0.25, 0.05]
    sim = Simulator()
    cpu = CpuResource(sim, capacity=capacity, bin_width=width)
    finished = []

    def work(index, duration):
        yield cpu.use(duration)
        finished.append((index, sim.now))

    for index, duration in enumerate(durations):
        sim.spawn(work(index, duration))
    sim.run()

    # Replay the FIFO grant discipline with the reference accounting.
    bins = {}
    expected = []
    free_at = [0.0] * capacity
    for index, duration in enumerate(durations):
        slot = min(range(capacity), key=lambda s: (free_at[s], s))
        start = free_at[slot]
        _reference_account(bins, start, duration, width)
        free_at[slot] = start + duration
        expected.append((index, start + duration))
    assert sorted(finished) == expected  # exact floats, not approx
    assert cpu._busy_bins == bins
    assert cpu.total_busy_time == sum(durations[1:], durations[0])
    assert cpu._free == capacity and not cpu._queue


# ----------------------------------------------------------------------
# Charges and tail dispatch (DESIGN.md §8, "The ordering rule")
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sim_cls", [Counting, NeverInline])
def test_two_completions_at_one_instant_both_free_their_slots_first(sim_cls):
    """DESIGN.md §8's example. X and Y end at the same instant on a 2-slot
    CPU with Z queued: both completions run (Z takes X's slot, Y's is
    freed) before either waiter does, so X's waiter is granted Y's slot on
    the spot. Resumed inside ``_complete(X)`` it would have queued."""
    sim = sim_cls()
    cpu = CpuResource(sim, capacity=2)
    log = []

    def work(tag, first, second):
        yield cpu.use(first)
        log.append((tag, sim.now, cpu._free, len(cpu._queue)))
        yield cpu.use(second)
        log.append((tag, sim.now))

    sim.spawn(work("X", 1.0, 0.5))
    sim.spawn(work("Y", 1.0, 0.5))
    sim.spawn(work("Z", 2.0, 0.0))
    sim.run()
    assert log == [
        ("X", 1.0, 1, 0),  # Y's slot is free, Z already runs in X's
        ("Y", 1.0, 0, 0),  # X's second charge took it
        ("X", 1.5),
        ("Y", 2.0),
        ("Z", 3.0, 2, 0),
        ("Z", 3.0),
    ]
    # Neither completion at t=1 is the last entry of its instant.
    assert sim.pushes == (11 if sim_cls is Counting else 15) and sim._seq == 15


@pytest.mark.parametrize("sim_cls", [Counting, NeverInline])
@pytest.mark.parametrize("at,busy_until", [(0.5, 1.0), (1.5, 2.0)], ids=["leg1", "leg2"])
def test_interrupt_while_parked_on_a_chain_keeps_the_cpu_and_wakes_nobody(
    sim_cls, at, busy_until
):
    """An abandoned charge still occupies its slot to the end of the
    running leg, schedules no wakeup and consumes no sequence number; the
    second leg of a chain abandoned on its first is never served."""
    sim = sim_cls()
    cpu = CpuResource(sim, capacity=1)
    log = []

    def victim():
        try:
            yield cpu.use(1.0, then=1.0)
            log.append(("victim done", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))

    def competitor():
        yield Timeout(at)
        yield cpu.use(0.25)
        log.append(("competitor", sim.now))

    proc = sim.spawn(victim())
    sim.spawn(competitor())
    sim.schedule(at, proc.interrupt)
    before = None

    def mark():
        nonlocal before
        before = sim._seq

    sim.schedule(at + 0.25, mark)  # after the interrupt landed
    sim.run()
    assert log == [("interrupted", at), ("competitor", busy_until + 0.25)]
    assert cpu.total_busy_time == busy_until + 0.25
    assert cpu._free == 1 and not cpu._queue
    # From the mark on: the abandoned leg's completion handing the slot to
    # the competitor (one schedule call), the competitor's wakeup, nothing
    # for the victim.
    assert sim._seq - before == 2


def _run_jobs(sim_cls, capacity, jobs, interrupts, chained):
    sim = sim_cls()
    cpu = CpuResource(sim, capacity=capacity, bin_width=0.5)
    finished = []

    def job(index, delay, first, second):
        yield Timeout(delay)
        if chained and second is not None:
            yield cpu.use(first, then=second)
        else:
            yield cpu.use(first)
            if second is not None:
                yield cpu.use(second)
        finished.append((index, sim.now))

    def interrupter(first_nap, second_nap, index):
        # Two naps: the second timer is numbered mid-run, so the interrupt
        # can land behind a completion of the same instant as well as ahead.
        yield Timeout(first_nap)
        yield Timeout(second_nap)
        procs[index % len(procs)].interrupt()

    procs = [sim.spawn(job(index, *spec), name=str(index)) for index, spec in enumerate(jobs)]
    for spec in interrupts:
        sim.spawn(interrupter(*spec))
    sim.run()
    killed = [proc.name for proc, _exc in sim.failed_processes if proc in procs]
    return finished, killed, cpu._busy_bins, cpu.total_busy_time, sim._seq, sim.now


_TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.lists(st.tuples(_TIMES, _TIMES, st.one_of(st.none(), _TIMES)), min_size=1, max_size=6),
    st.lists(st.tuples(_TIMES, _TIMES, st.integers(0, 5)), max_size=3),
)
def test_a_chain_is_two_sequential_charges(capacity, jobs, interrupts):
    """``use(a, then=b)`` against ``use(a)`` then ``use(b)``, with
    competitors queued between the legs and interrupts landing on, before
    and between completions: same completion instants, killed processes,
    busy bins, sequence numbers — with tail dispatch and without."""
    sequential = _run_jobs(NeverInline, capacity, jobs, interrupts, chained=False)
    assert _run_jobs(NeverInline, capacity, jobs, interrupts, chained=True) == sequential
    assert _run_jobs(Counting, capacity, jobs, interrupts, chained=True) == sequential


def test_a_chain_lets_a_competitor_queued_between_its_legs_run_first():
    """Capacity 1, the competitor arrives during leg 1: it is served between
    the legs (``use_run`` would hold the slot across both)."""
    jobs = [(0.0, 1.0, 1.0), (0.5, 0.25, None)]
    finished, _killed, bins, busy, _seq, _now = _run_jobs(Counting, 1, jobs, [], chained=True)
    assert finished == [(1, 1.25), (0, 2.25)]
    assert busy == 2.25 and bins == {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5, 4: 0.25}
    assert _run_jobs(Counting, 1, jobs, [], chained=False)[:4] == (finished, [], bins, busy)


def test_a_charge_yielded_after_it_ended_is_ready_and_has_one_waiter_only():
    sim = Simulator()
    cpu = CpuResource(sim, capacity=1)
    log = []
    charge = cpu.use(1.0)

    def late():
        yield Timeout(2.0)
        yield charge
        log.append(("late", sim.now))

    def first(shared):
        yield shared
        log.append(("first", sim.now))

    def second(shared):
        yield shared

    sim.spawn(late())
    shared = cpu.use(0.5)
    sim.spawn(first(shared))
    intruder = sim.spawn(second(shared))
    sim.run()
    assert log == [("first", 1.5), ("late", 2.0)]
    with pytest.raises(SimulationError, match="non-waitable"):
        intruder.result()
