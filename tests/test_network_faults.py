"""Network fault model and RPC timeout/retry discipline tests."""

import pytest

from repro.config import TierProfiles
from repro.sim import (
    LinkProfile,
    Network,
    RetryPolicy,
    RpcTimeout,
    Simulator,
    Topology,
)
from repro.sim.rpc import PERSISTENT_POLICY, reliable_send

#: The flat network's one profile: every message is priced at it.
FLAT = LinkProfile(0.0002, 1.25e9)


def make_network(seed=0, contended=False):
    """``(sim, network, profile)``; ``profile`` prices an ``n1 -> n2`` message.

    The flat network is one uncontended rack. The contended one puts ``n1``
    and ``n2`` in two AZs, so their messages stream over the inter-AZ trunk
    at the ``region`` profile.
    """
    sim = Simulator(seed=seed)
    if not contended:
        return sim, Network(sim, Topology.single(FLAT)), FLAT
    profiles = TierProfiles().as_profiles()
    topology = Topology.build(
        {"region-1": {"az-1": {"rack-1": ["n1"]}, "az-2": {"rack-1": ["n2"]}}}, profiles
    )
    network = Network(sim, topology)
    assert network.contended
    return sim, network, profiles["region"]


#: Link faults must behave the same under both cost models.
COST_MODELS = (False, True)


def wait_for(sim, event, record, key):
    def waiter():
        yield event
        record[key] = sim.now

    sim.spawn(waiter())


# ----------------------------------------------------------------------
# roundtrip = two composed sends (the accounting regression)
# ----------------------------------------------------------------------
def test_roundtrip_matches_two_sends_accounting():
    sim_a, net_a, _profile = make_network()
    times = {}
    wait_for(sim_a, net_a.roundtrip("n1", "n2", 100, 300), times, "roundtrip")
    sim_a.run()

    sim_b, net_b, _profile = make_network()

    def two_sends():
        yield net_b.send("n1", "n2", 100)
        yield net_b.send("n2", "n1", 300)
        times["two_sends"] = sim_b.now

    sim_b.spawn(two_sends())
    sim_b.run()

    assert net_a.messages_sent == net_b.messages_sent == 2
    assert net_a.bytes_sent == net_b.bytes_sent == 400
    assert times["roundtrip"] == pytest.approx(times["two_sends"])
    assert times["roundtrip"] == pytest.approx(
        FLAT.latency + 100 / FLAT.bandwidth + FLAT.latency + 300 / FLAT.bandwidth
    )


def test_roundtrip_response_leg_sees_directional_faults():
    # A latency spike on the link delays both legs of the round trip.
    for contended in COST_MODELS:
        sim, net, profile = make_network(contended=contended)
        net.set_extra_latency("n1", "n2", 0.01)
        times = {}
        wait_for(sim, net.roundtrip("n1", "n2", 0, 0), times, "rt")
        sim.run()
        assert times["rt"] == pytest.approx(2 * (profile.latency + 0.01)), contended


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
def test_partition_blocks_and_heal_restores():
    for contended in COST_MODELS:
        sim, net, profile = make_network(contended=contended)
        net.partition("n1", "n2")
        times = {}
        wait_for(sim, net.send("n1", "n2", 10), times, "dropped")
        sim.run(until=1.0)
        assert "dropped" not in times
        assert net.messages_dropped == 1

        net.heal_partition("n1", "n2")
        wait_for(sim, net.send("n1", "n2", 10), times, "delivered")
        sim.run(until=2.0)
        expected = 1.0 + profile.latency + 10 / profile.bandwidth
        assert times["delivered"] == pytest.approx(expected), contended


def test_loss_is_deterministic_per_seed():
    def drop_pattern(seed, contended):
        sim, net, _profile = make_network(seed=seed, contended=contended)
        net.set_loss("n1", "n2", 0.5)
        pattern = []
        for _ in range(32):
            before = net.messages_dropped
            net.send("n1", "n2", 1)
            pattern.append(net.messages_dropped > before)
        return pattern

    for contended in COST_MODELS:
        assert drop_pattern(7, contended) == drop_pattern(7, contended)
        assert drop_pattern(7, contended) != drop_pattern(8, contended)
    # One RNG draw per message on a lossy link, whatever the cost model.
    assert drop_pattern(7, False) == drop_pattern(7, True)


def test_self_messages_ignore_link_faults():
    for contended in COST_MODELS:
        sim, net, _profile = make_network(contended=contended)
        net.partition("n1", "n1")
        times = {}
        wait_for(sim, net.send("n1", "n1", 10), times, "self")
        sim.run()
        assert times["self"] == 0.0, contended
        assert net.messages_dropped == 0


# ----------------------------------------------------------------------
# reliable_send
# ----------------------------------------------------------------------
def run_rpc(sim, generator):
    proc = sim.spawn(generator)
    sim.run(until=30.0)
    assert proc.finished
    return proc.result()


def test_reliable_send_single_attempt_when_healthy():
    sim, net, _profile = make_network()
    attempts = run_rpc(sim, reliable_send(net, "n1", "n2", 10))
    assert attempts == 1


def test_reliable_send_retries_through_loss():
    sim, net, _profile = make_network(seed=3)
    net.set_loss("n1", "n2", 1.0)  # drop everything until the link heals

    def healer():
        yield 0.2
        net.set_loss("n1", "n2", 0.0)

    sim.spawn(healer())
    policy = RetryPolicy(timeout=0.01, max_attempts=50)
    attempts = run_rpc(sim, reliable_send(net, "n1", "n2", 10, policy=policy))
    assert attempts > 1
    assert net.messages_sent == attempts
    assert net.messages_dropped == attempts - 1


def test_reliable_send_raises_after_budget_under_partition():
    sim, net, _profile = make_network()
    net.partition("n1", "n2")
    policy = RetryPolicy(timeout=0.01, max_attempts=3)
    proc = sim.spawn(reliable_send(net, "n1", "n2", 10, policy=policy))
    sim.run(until=5.0)
    assert proc.finished
    with pytest.raises(RpcTimeout):
        proc.result()
    assert net.messages_dropped == 3


def test_persistent_send_survives_until_heal():
    sim, net, _profile = make_network()
    net.partition("n1", "n2")

    def healer():
        yield 2.0
        net.heal_partition("n1", "n2")

    sim.spawn(healer())
    attempts = run_rpc(
        sim, reliable_send(net, "n1", "n2", 10, policy=PERSISTENT_POLICY)
    )
    assert attempts > 1
    assert sim.now >= 2.0


# ----------------------------------------------------------------------
# Vacuum-hold idempotency (crash recovery may release a hold twice)
# ----------------------------------------------------------------------
def test_remove_vacuum_hold_is_idempotent():
    from repro.cluster import Cluster
    from repro.config import ClusterConfig

    cluster = Cluster(ClusterConfig(num_nodes=2))
    horizon_free = cluster.vacuum_horizon()
    cluster.add_vacuum_hold(1)
    assert cluster.vacuum_horizon() == 1
    cluster.remove_vacuum_hold(1)
    cluster.remove_vacuum_hold(1)  # duplicate release must be harmless
    assert cluster.vacuum_horizon() == horizon_free
