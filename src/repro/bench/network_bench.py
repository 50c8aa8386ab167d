"""Contended-network microbenchmarks and the pump-share demonstration.

Two wall-clock storms exercise the fair-share transfer machinery that the
clean-link RPC fast path bypasses:

- ``contended_trunk_storm`` — sender processes on both sides of a
  ``multi_az`` topology push mixed-size, mixed-class messages across the
  inter-AZ trunks, so nearly every send joins or leaves a shared link and
  pays a settle + re-share pass over the in-flight set.
- ``reshare_churn_storm`` — short staggered transfers on a single trunk
  with a capped ``MIGRATION_CLASS`` flow always in flight: the worst case
  for the waterfill re-division, every arrival and departure re-prices the
  whole link.

``run_pump_share_sweep`` is not a timing benchmark: it reruns the
``cross_az`` experiment across descending ``pump_share`` values and
records the foreground dip during the snapshot-copy phase. The committed
``BENCH_network.json`` carries the sweep as the repository's standing
demonstration that the dip shrinks monotonically as the migration class is
throttled (the paper's copy-speed/interference trade-off), and the CI
smoke job fails if a change breaks that monotonicity.
"""

from __future__ import annotations

import sys
import time

from repro.bench.stats import wall_stats
from repro.config import TierProfiles
from repro.experiments import registry
from repro.sim.kernel import Simulator
from repro.sim.network import MIGRATION_CLASS, Network
from repro.sim.rpc import reliable_roundtrip, reliable_send
from repro.sim.topology import make_topology

#: (senders, messages) per mode for the trunk storm.
_TRUNK_SCALE = {"smoke": (24, 40), "full": (64, 120)}
#: (flows, rounds) per mode for the churn storm.
_CHURN_SCALE = {"smoke": (16, 50), "full": (32, 200)}

#: Descending migration-class caps swept by the demonstration.
PUMP_SHARES = (1.0, 0.5, 0.25)

def _measure(storm, a: int, b: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall-clock measurement of one storm.

    The headline events/sec uses the best repeat (least scheduler noise);
    the full repeat distribution rides along under ``"wall"`` as
    p50/p95/p99 seconds.
    """
    samples = []
    events = 0
    for _ in range(repeats):
        sim = Simulator()
        started = time.perf_counter()
        events = storm(sim, a, b)
        samples.append(time.perf_counter() - started)
    best = min(samples)
    return {
        "events": events,
        "seconds": round(best, 6),
        "events_per_sec": round(events / best, 1),
        "wall": wall_stats(samples),
    }


def _contended_network(sim: Simulator, num_nodes: int) -> Network:
    nodes = ["node-{}".format(i + 1) for i in range(num_nodes)]
    topology = make_topology("multi_az", nodes, TierProfiles().as_profiles())
    return Network.from_topology(sim, topology)


def _contended_trunk_storm(sim: Simulator, senders: int, messages: int) -> int:
    """Mixed-class cross-AZ RPC traffic; returns completed sends."""
    network = _contended_network(sim, num_nodes=8)
    network.set_class_cap(MIGRATION_CLASS, 0.5)
    executed = [0]

    def sender(index: int):
        # Odd senders push AZ 2 -> AZ 1, so both trunk directions carry
        # overlapping flows and every completion re-shares a busy link.
        src = "node-{}".format(index % 4 + 1 if index % 2 == 0 else index % 4 + 5)
        dst = "node-{}".format(index % 4 + 5 if index % 2 == 0 else index % 4 + 1)
        cls = MIGRATION_CLASS if index % 3 == 0 else None
        for hop in range(messages):
            executed[0] += 1
            size = 256 + (index * 37 + hop * 101) % 4096
            if hop % 4 == 0:
                yield from reliable_roundtrip(
                    network, src, dst, size, 64, traffic_class=cls
                )
            else:
                yield from reliable_send(network, src, dst, size, traffic_class=cls)

    for index in range(senders):
        sim.spawn(sender(index), name="trunk-sender")
    sim.run()
    return executed[0]


def _reshare_churn_storm(sim: Simulator, flows: int, rounds: int) -> int:
    """Staggered joins/leaves against a capped bulk flow; returns arrivals."""
    network = _contended_network(sim, num_nodes=4)
    network.set_class_cap(MIGRATION_CLASS, 0.25)
    executed = [0]

    def bulk():
        # A long capped transfer that is always in flight: every foreground
        # arrival and departure below re-divides the trunk around it.
        for _ in range(rounds // 10 + 1):
            yield network.send("node-1", "node-3", 512 * 1024, MIGRATION_CLASS)
            executed[0] += 1

    def churn(index: int):
        yield 0.0001 * index  # staggered joins
        for round_no in range(rounds):
            size = 128 + (index * 53 + round_no * 29) % 1024
            yield network.send("node-2", "node-4", size)
            executed[0] += 1

    sim.spawn(bulk(), name="bulk-flow")
    for index in range(flows):
        sim.spawn(churn(index), name="churn-flow")
    sim.run()
    return executed[0]


def run_network_bench(smoke: bool = False, repeats: int = 3) -> dict:
    """Run the contended storms; returns the ``BENCH_network.json`` payload
    (without the pump-share sweep — ``run_pump_share_sweep`` adds it)."""
    mode = "smoke" if smoke else "full"
    storms = {
        "contended_trunk_storm": _measure(
            _contended_trunk_storm, *_TRUNK_SCALE[mode], repeats=repeats
        ),
        "reshare_churn_storm": _measure(
            _reshare_churn_storm, *_CHURN_SCALE[mode], repeats=repeats
        ),
    }
    return {
        "bench": "network",
        "mode": mode,
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "storms": storms,
    }


def run_pump_share_sweep(smoke: bool = False, seed: int = 0) -> dict:
    """Sweep ``cross_az`` over descending pump shares (see module docstring).

    Returns ``{"shares": [...], "monotonic": bool}`` where each share row
    carries the copy-phase foreground dip and the copy duration. The dip
    must shrink (and the copy stretch) as the share drops; ``monotonic``
    asserts the dip half of that trade-off.
    """
    overrides = dict(registry.get("cross_az").smoke) if smoke else {}
    rows = []
    for share in PUMP_SHARES:
        result = registry.run(
            "cross_az", approach="remus", seed=seed, pump_share=share, **overrides
        )
        rows.append(
            {
                "pump_share": share,
                "fg_before": round(result.avg_throughput_before, 2),
                "fg_during_copy": round(result.extra["fg_during_copy"], 2),
                "fg_dip": round(result.extra["fg_dip"], 2),
                "copy_duration": round(result.extra["copy_duration"], 4),
                "migration_duration": round(result.extra["migration_duration"], 4),
            }
        )
    dips = [row["fg_dip"] for row in rows]
    return {
        "scenario": "cross_az",
        "approach": "remus",
        "seed": seed,
        "smoke": smoke,
        "shares": rows,
        "monotonic": all(a > b for a, b in zip(dips, dips[1:])),
    }
