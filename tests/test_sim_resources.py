"""Unit tests for CPU and generic resources, and the network model."""

import pytest

from repro.sim import (
    CpuResource,
    LinkProfile,
    Network,
    NetworkConfig,
    Resource,
    SimulationError,
    Simulator,
    Topology,
)


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
