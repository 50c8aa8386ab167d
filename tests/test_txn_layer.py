"""Unit tests for the transaction layer: locks, timestamps, manager pieces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.txn.locks import RowLockTable, SharedExclusiveLockTable
from repro.txn.timestamps import DtsOracle, GtsOracle
from repro.sim.network import Network
from repro.sim.topology import LinkProfile, Topology


def flat_network(sim, latency=0.0002, bandwidth=1.25e9):
    return Network(sim, Topology.single(LinkProfile(latency, bandwidth)))


@pytest.fixture
def sim():
    return Simulator(seed=3)


# ----------------------------------------------------------------------
# Row locks
# ----------------------------------------------------------------------
def test_row_lock_grants_immediately_when_free(sim):
    table = RowLockTable(sim)
    event = table.acquire("k", owner=1)
    assert event.triggered
    assert table.holder("k") == 1


def test_row_lock_is_reentrant(sim):
    table = RowLockTable(sim)
    table.acquire("k", 1)
    assert table.acquire("k", 1).triggered


def test_row_lock_queues_fifo(sim):
    table = RowLockTable(sim)
    table.acquire("k", 1)
    order = []

    def waiter(owner):
        yield table.acquire("k", owner)
        order.append(owner)
        yield 0.1
        table.release("k", owner)

    sim.spawn(waiter(2))
    sim.spawn(waiter(3))
    sim.schedule(0.5, table.release, "k", 1)
    sim.run()
    assert order == [2, 3]


def test_row_lock_cancel_wait_removes_queued_owner(sim):
    table = RowLockTable(sim)
    table.acquire("k", 1)
    table.acquire("k", 2)
    table.cancel_wait("k", 2)
    granted = []

    def waiter():
        yield table.acquire("k", 3)
        granted.append(3)

    sim.spawn(waiter())
    sim.schedule(0.1, table.release, "k", 1)
    sim.run()
    assert granted == [3]
    assert table.holder("k") == 3


def test_row_lock_release_by_non_holder_errors(sim):
    table = RowLockTable(sim)
    table.acquire("k", 1)
    with pytest.raises(Exception):
        table.release("k", 2)


# ----------------------------------------------------------------------
# Shard (shared/exclusive) locks
# ----------------------------------------------------------------------
def test_shard_lock_shared_holders_coexist(sim):
    table = SharedExclusiveLockTable(sim)
    assert table.acquire("s", 1, table.SHARED).triggered
    assert table.acquire("s", 2, table.SHARED).triggered
    exclusive_owner, shared = table.holders("s")
    assert exclusive_owner is None
    assert shared == {1, 2}


def test_shard_lock_exclusive_blocks_shared(sim):
    table = SharedExclusiveLockTable(sim)
    table.acquire("s", 1, table.EXCLUSIVE)
    event = table.acquire("s", 2, table.SHARED)
    assert not event.triggered
    table.release("s", 1)
    sim.run()
    assert event.triggered


def test_shard_lock_queued_exclusive_blocks_new_shared(sim):
    """Fairness: shared requests queue behind a waiting exclusive."""
    table = SharedExclusiveLockTable(sim)
    table.acquire("s", 1, table.SHARED)
    exclusive = table.acquire("s", 2, table.EXCLUSIVE)
    late_shared = table.acquire("s", 3, table.SHARED)
    assert not exclusive.triggered
    assert not late_shared.triggered
    table.release("s", 1)
    sim.run()
    assert exclusive.triggered
    assert not late_shared.triggered
    table.release("s", 2)
    sim.run()
    assert late_shared.triggered


def test_shard_lock_upgrade_sole_shared_holder(sim):
    table = SharedExclusiveLockTable(sim)
    table.acquire("s", 1, table.SHARED)
    upgrade = table.acquire("s", 1, table.EXCLUSIVE)
    assert upgrade.triggered
    assert table.write_holder("s") == 1


def test_shard_lock_upgrade_waits_for_other_shared_holders(sim):
    table = SharedExclusiveLockTable(sim)
    table.acquire("s", 1, table.SHARED)
    table.acquire("s", 2, table.SHARED)
    upgrade = table.acquire("s", 1, table.EXCLUSIVE)
    assert not upgrade.triggered
    table.release("s", 2)
    sim.run()
    assert upgrade.triggered
    assert table.write_holder("s") == 1


def test_shard_lock_cancel_wait(sim):
    table = SharedExclusiveLockTable(sim)
    table.acquire("s", 1, table.EXCLUSIVE)
    table.acquire("s", 2, table.EXCLUSIVE)
    table.cancel_wait("s", 2)
    table.release("s", 1)
    sim.run()
    assert table.write_holder("s") is None


# ----------------------------------------------------------------------
# Timestamp oracles
# ----------------------------------------------------------------------
def run_gen(sim, gen):
    return sim.run_until_complete(sim.spawn(gen))


def test_dts_start_timestamps_increase_per_node(sim):
    oracle = DtsOracle(sim)

    def get():
        ts = yield from oracle.start_timestamp("n1")
        return ts

    first = run_gen(sim, get())
    second = run_gen(sim, get())
    assert second > first


def test_dts_commit_timestamp_respects_floor(sim):
    oracle = DtsOracle(sim)

    def get():
        ts = yield from oracle.commit_timestamp("n1", floor_ts=10**18)
        return ts

    assert run_gen(sim, get()) > 10**18


def test_dts_observe_entangles_clocks(sim):
    oracle = DtsOracle(sim)
    remote_ts = oracle.local_now("n2")
    oracle.observe("n1", remote_ts)

    def get():
        ts = yield from oracle.start_timestamp("n1")
        return ts

    assert run_gen(sim, get()) > remote_ts


def test_dts_skew_shows_in_physical_component(sim):
    oracle = DtsOracle(sim, skew_by_node={"fast": 0.5, "slow": 0.0})
    sim.now = 1.0
    assert oracle.clock("fast").peek() > oracle.clock("slow").peek()


_CLOCK_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["carry", "now", "advance"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.floats(0.0, 0.01),
    ),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(_CLOCK_STEPS)
def test_dts_carry_is_observe_of_the_senders_peek(steps):
    """``carry(src, dst)`` is the inline form of ``observe(dst,
    clock(src).peek())``, the piggyback every hop used to spell out:
    skewed clocks, logical ticks and same-instant hops end in the same
    state either way."""
    skews = {"a": 0.0, "b": 0.003, "c": -0.002}
    ends = []
    for inline in (True, False):
        sim = Simulator()
        oracle = DtsOracle(sim, skew_by_node=skews)
        for kind, src, dst, delta in steps:
            if kind == "advance":
                sim.now += delta
            elif kind == "now":
                oracle.local_now(src)
            elif inline:
                oracle.carry(src, dst)
            else:
                oracle.observe(dst, oracle.clock(src).peek())
        ends.append({node: clock._last for node, clock in oracle._clocks.items()})
    assert ends[0] == ends[1]
    assert list(ends[0]) == list(ends[1])  # clocks created in the same order


def test_gts_is_globally_monotonic_and_costs_roundtrip(sim):
    network = flat_network(sim, latency=0.1, bandwidth=1e9)
    oracle = GtsOracle(sim, network, "cp")
    results = []

    def get(node):
        ts = yield from oracle.start_timestamp(node)
        results.append((sim.now, ts))

    sim.spawn(get("n1"))
    sim.spawn(get("n2"))
    sim.run()
    times = [t for t, _ts in results]
    stamps = [ts for _t, ts in results]
    assert all(t == pytest.approx(0.2) for t in times)  # one round trip
    assert sorted(stamps) == stamps and len(set(stamps)) == 2


def test_gts_commit_timestamp_respects_floor(sim):
    network = flat_network(sim)
    oracle = GtsOracle(sim, network, "cp")

    def get():
        ts = yield from oracle.commit_timestamp("n1", floor_ts=500)
        return ts

    assert run_gen(sim, get()) > 500


def test_oracle_safe_horizon_below_future_starts(sim):
    oracle = DtsOracle(sim)
    oracle.local_now("n1")
    oracle.local_now("n2")
    horizon = oracle.safe_horizon()

    def get(node):
        ts = yield from oracle.start_timestamp(node)
        return ts

    assert run_gen(sim, get("n1")) >= horizon
    assert run_gen(sim, get("n2")) >= horizon
