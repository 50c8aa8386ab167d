"""The topology API and the contended fair-share network.

Covers the redesigned network surface end to end:

- :class:`~repro.sim.topology.Topology` units — placement, governing-tier
  routing, presets, the single-rack degenerate case;
- analytic fairness regressions — equal transfers split the trunk and
  finish simultaneously; a staggered joiner re-divides deterministically;
- the pump-share class cap (an always-on throttle, also when the capped
  class is alone on the trunk);
- a bandwidth-conservation property over :attr:`Network.flow_trace`;
- tier-degrade faults (``degrade:<tier>:<factor>@<at>+<duration>``) parsed
  and injected through the nemesis;
- the seed-pinned single-tier timeline: topology-built flat networks must
  reproduce the pre-topology byte-identical digests.
"""

import hashlib

import pytest

from repro.sim import Simulator
from repro.sim.network import (
    BACKUP_CLASS,
    MIGRATION_CLASS,
    Network,
)
from repro.sim.topology import LinkProfile, PRESETS, Topology, make_topology

#: A two-AZ toy: the inter-AZ trunk is the region tier at 1000 B/s so the
#: fairness arithmetic below is exact in decimal floats.
_PROFILES = {
    "rack": LinkProfile(0.0001, 1.0e9),
    "az": LinkProfile(0.0005, 1.0e6),
    "region": LinkProfile(0.001, 1000.0),
    "geo": LinkProfile(0.01, 500.0),
}


def two_az_network(sim):
    topology = Topology.build(
        {"r1": {"az1": {"rk1": ["a", "b"]}, "az2": {"rk2": ["c", "d"]}}},
        _PROFILES,
    )
    return Network(sim, topology)


def drain(sim):
    sim.run()
    return sim.now


# ----------------------------------------------------------------------
# Topology units
# ----------------------------------------------------------------------
def test_topology_placement_and_governing_tier():
    topology = Topology.build(
        {
            "r1": {"az1": {"rk1": ["a", "b"], "rk2": ["c"]}, "az2": {"rk3": ["d"]}},
            "r2": {"az3": {"rk4": ["e"]}},
        },
        _PROFILES,
    )
    assert topology.placement("a") == ("r1", "r1/az1", "r1/az1/rk1")
    assert topology.tier("a", "b") == "rack"
    assert topology.tier("a", "c") == "az"
    assert topology.tier("a", "d") == "region"
    assert topology.tier("a", "e") == "geo"
    # Unplaced nodes land in the first declared rack, deterministically.
    assert topology.placement("ghost") == topology.placement("a")
    assert not topology.is_single_rack
    assert topology.contended  # multi-rack defaults to contended


def test_topology_route_is_directed():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    tier_ab, key_ab = network.topology.route("a", "c")
    tier_ba, key_ba = network.topology.route("c", "a")
    assert tier_ab == tier_ba == "region"
    assert key_ab != key_ba  # full duplex: each direction its own trunk


def test_topology_single_is_uncontended_flat():
    topology = Topology.single(LinkProfile(0.0002, 1.25e9))
    assert topology.is_single_rack
    assert not topology.contended
    assert topology.tier("x", "y") == "rack"


def test_make_topology_presets():
    nodes = ["node-{}".format(i + 1) for i in range(6)]
    profiles = _PROFILES
    single = make_topology("single", nodes, profiles)
    assert not single.contended
    multi = make_topology("multi_az", nodes, profiles)
    # Contiguous halves: node-1..3 in AZ 1, node-4..6 in AZ 2.
    assert multi.tier("node-1", "node-3") == "rack"
    assert multi.tier("node-1", "node-4") != "rack"
    geo = make_topology("geo", nodes, profiles)
    assert geo.tier("node-1", "node-6") == "geo"
    assert set(PRESETS) == {"single", "multi_az", "geo"}
    with pytest.raises(ValueError):
        make_topology("ring", nodes, profiles)


def test_topology_to_dict_is_json_shaped():
    topology = make_topology("multi_az", ["n1", "n2"], _PROFILES)
    payload = topology.to_dict()
    assert payload["name"] == "multi_az"
    assert payload["contended"] is True
    assert payload["profiles"]["region"]["bandwidth"] == 1000.0


# ----------------------------------------------------------------------
# Fairness regressions (analytic timelines on the 1000 B/s trunk)
# ----------------------------------------------------------------------
def test_equal_transfers_share_the_trunk_and_finish_together():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    finished = {}
    for name in ("x", "y"):
        event = network.send("a", "c", 1000)
        event.add_callback(
            lambda _v, name=name: finished.__setitem__(name, sim.now)
        )
    drain(sim)
    # Each flow gets 500 B/s: 2.0 s of transfer + 1 ms trunk latency.
    assert finished == {"x": 2.001, "y": 2.001}


def test_staggered_joiner_reshares_deterministically():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    finished = {}

    def note(name):
        return lambda _v: finished.__setitem__(name, sim.now)

    network.send("a", "c", 1000).add_callback(note("first"))
    sim.schedule(0.5, lambda: network.send("a", "c", 1000).add_callback(note("second")))
    drain(sim)
    # First runs alone for 0.5 s (500 B done), shares for 1.0 s (500 B);
    # the second then finishes its remaining 500 B at full rate.
    assert finished["first"] == pytest.approx(1.501, abs=1e-9)
    assert finished["second"] == pytest.approx(2.001, abs=1e-9)


def test_reverse_direction_is_independent():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    finished = {}

    def note(name):
        return lambda _v: finished.__setitem__(name, sim.now)

    network.send("a", "c", 1000).add_callback(note("fwd"))
    network.send("c", "a", 1000).add_callback(note("rev"))
    drain(sim)
    # Full duplex: each direction has its own 1000 B/s, no sharing.
    assert finished["fwd"] == pytest.approx(1.001, abs=1e-9)
    assert finished["rev"] == pytest.approx(1.001, abs=1e-9)


def test_pump_share_caps_migration_class():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    network.set_class_cap(MIGRATION_CLASS, 0.25)
    finished = {}

    def note(name):
        return lambda _v: finished.__setitem__(name, sim.now)

    network.send("a", "c", 1000, MIGRATION_CLASS).add_callback(note("mig"))
    network.send("a", "c", 1500).add_callback(note("fg"))
    drain(sim)
    # Migration is pinned at 250 B/s; the foreground takes the remaining
    # 750 B/s and finishes first; the cap still binds once it is alone.
    assert finished["fg"] == pytest.approx(2.001, abs=1e-9)
    assert finished["mig"] == pytest.approx(4.001, abs=1e-9)


def test_class_cap_binds_even_without_contention():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    network.set_class_cap(BACKUP_CLASS, 0.5)
    finished = {}
    network.send("a", "c", 1000, BACKUP_CLASS).add_callback(
        lambda _v: finished.setdefault("backup", sim.now)
    )
    drain(sim)
    # Alone on the trunk but still throttled to 500 B/s.
    assert finished["backup"] == pytest.approx(2.001, abs=1e-9)


def test_set_class_cap_validates():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    with pytest.raises(ValueError):
        network.set_class_cap(MIGRATION_CLASS, 0.0)
    network.set_class_cap(MIGRATION_CLASS, 0.3)
    assert network.class_cap(MIGRATION_CLASS) == 0.3
    network.set_class_cap(MIGRATION_CLASS, 1.0)  # >= 1 removes the cap
    assert network.class_cap(MIGRATION_CLASS) == 1.0


def test_zero_byte_messages_bypass_the_trunk():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    network.send("a", "c", 500_000, MIGRATION_CLASS)  # a long bulk flow
    finished = {}
    network.send("a", "c", 0).add_callback(
        lambda _v: finished.setdefault("ping", sim.now)
    )
    sim.run(until=1.0)
    # Control-plane pings pay pure latency, never a bandwidth share.
    assert finished["ping"] == pytest.approx(0.001, abs=1e-9)


# ----------------------------------------------------------------------
# Bandwidth conservation (property over the flow trace)
# ----------------------------------------------------------------------
def test_flow_trace_conserves_trunk_bandwidth():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    network.flow_trace = []
    network.set_class_cap(MIGRATION_CLASS, 0.4)
    rng = sim.rng("conservation")
    for index in range(40):
        src, dst = ("a", "c") if index % 2 == 0 else ("d", "b")
        cls = (None, MIGRATION_CLASS, BACKUP_CLASS)[index % 3]
        size = rng.randint(100, 5000)
        sim.schedule(rng.uniform(0.0, 3.0), network.send, src, dst, size, cls)
    drain(sim)
    assert network.flow_trace  # the storm actually exercised the trunks
    for _now, key, rates in network.flow_trace:
        tier = key[0]
        bandwidth = network.topology.profiles[tier].bandwidth
        assert sum(rates) <= bandwidth * (1.0 + 1e-9)
        assert all(rate > 0.0 for rate in rates)
        # Equal shares within a trunk, up to the class-cap waterfill: no
        # flow may exceed the equal share of the uncapped pool.
        assert max(rates) <= bandwidth / 1.0 + 1e-9


def test_flows_are_settled_exactly_once():
    """Every byte sent over contended trunks is delivered, none duplicated:
    total transfer time equals bytes/rate integrated over the re-shares."""
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    sizes = [1000, 1500, 700, 300]
    finished = []
    for offset, size in enumerate(sizes):
        sim.schedule(
            0.25 * offset,
            lambda size=size: network.send("a", "c", size).add_callback(
                lambda _v: finished.append(sim.now)
            ),
        )
    drain(sim)
    assert len(finished) == len(sizes)
    # Work conservation: the trunk runs at full rate until the last byte;
    # the final finisher leaves at total_bytes / bandwidth (+latency).
    assert max(finished) == pytest.approx(sum(sizes) / 1000.0 + 0.001, abs=1e-9)


# ----------------------------------------------------------------------
# Tier-degrade faults
# ----------------------------------------------------------------------
def test_fault_plan_parses_degrade():
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.parse("degrade:region:0.1@0.5+1.0")
    fault = plan.faults[0]
    assert fault.kind == "degrade"
    assert fault.node == "region"
    assert fault.value == pytest.approx(0.1)
    assert fault.at == pytest.approx(0.5)
    assert fault.duration == pytest.approx(1.0)
    with pytest.raises(ValueError):
        FaultPlan.parse("degrade:ring:0.1@0.5+1.0")  # unknown tier
    with pytest.raises(ValueError):
        FaultPlan.parse("degrade:region:0@0.5+1.0")  # factor must be > 0


def test_set_tier_degrade_scales_and_heals():
    sim = Simulator(seed=0)
    network = two_az_network(sim)
    finished = {}

    def send(name):
        network.send("a", "c", 1000).add_callback(
            lambda _v: finished.__setitem__(name, sim.now)
        )

    network.set_tier_degrade("region", bandwidth_factor=0.5)
    send("degraded")
    drain(sim)
    assert finished["degraded"] == pytest.approx(2.001, abs=1e-9)
    network.set_tier_degrade("region")  # heal
    send("healed")
    drain(sim)
    assert finished["healed"] - finished["degraded"] == pytest.approx(
        1.001, abs=1e-9
    )


def test_nemesis_injects_degrade_and_heals():
    from repro.cluster import Cluster
    from repro.config import ClusterConfig, TierProfiles
    from repro.faults import Nemesis
    from repro.faults.plan import FaultPlan

    topology = make_topology(
        "multi_az",
        ["node-{}".format(i + 1) for i in range(4)],
        TierProfiles().as_profiles(),
    )
    cluster = Cluster(ClusterConfig(num_nodes=4, seed=0, topology=topology))
    plan = FaultPlan.parse("degrade:region:0.25@0.2+0.5")
    nemesis = Nemesis(cluster, plan)
    cluster.spawn(nemesis.run(), name="nemesis")
    cluster.run(until=1.5)
    notes = [d for _t, d in nemesis.timeline]
    assert "fault:degrade:region:0.25" in notes
    assert "heal:degrade:region" in notes


# ----------------------------------------------------------------------
# Single-tier byte-identity (seed-pinned digests)
# ----------------------------------------------------------------------
#: Digests of the full commit/tuple/network timeline recorded on the flat
#: pre-topology network. Topology-built single-rack networks must keep
#: reproducing these bytes exactly: the constant-delay fast path is a
#: compatibility contract, not an approximation.
_PINNED = {
    7: "bce08f4267c561d9f7ce5f4c9ad350123cdcfdb022476ad3ad03ae6c305d485b",
    11: "d149c180ea7e2e7939b8fe6f19ee902609faf4d718cd7ced559c55bde6ff353e",
}


def _timeline_digest(seed):
    from repro.cluster import Cluster
    from repro.config import ClusterConfig
    from repro.migration import MigrationPlan, RemusMigration, run_plan
    from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

    cluster = Cluster(ClusterConfig(num_nodes=3, seed=seed))
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(
            num_tuples=300,
            num_shards=6,
            num_clients=4,
            tuple_size=256,
            think_time=0.002,
        ),
    )
    workload.create()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.4)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = MigrationPlan(RemusMigration, [([shard], "node-1", "node-2")])
    proc = cluster.spawn(run_plan(cluster, plan))
    cluster.run(until=4.0)
    assert proc.finished
    pool.stop()
    cluster.run(until=4.5)
    commits = [(r.time, r.label, r.latency) for r in cluster.metrics.commits]
    return hashlib.sha256(
        repr(
            (
                commits,
                sorted(cluster.dump_table("ycsb").items()),
                plan.stats.tuples_copied,
                cluster.network.messages_sent,
                cluster.network.bytes_sent,
            )
        ).encode()
    ).hexdigest()


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_single_tier_timeline_is_byte_identical(seed):
    assert _timeline_digest(seed) == _PINNED[seed]
