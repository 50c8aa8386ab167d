"""Storm-scale cluster benchmark: ``repro bench``.

The ROADMAP's storm target — 100+ nodes, 1M+ simulated clients, a live
migration in flight — is unreachable with one generator process per client:
the per-client driver pays O(population) processes for O(arrivals) work.
This bench measures the batch arrival engine that closes the gap against
that legacy shape, end to end on a real cluster (sessions, MVCC, 2PC, the
Remus migration — nothing mocked):

- ``per_client_storm`` — the legacy driving shape
  (:class:`~repro.workloads.batch.PopulationWorkload` with
  ``fastpath.batch_workload`` off), run at a **reference population**
  (``population / PER_CLIENT_DIVISOR``) because materializing a million
  pacer processes is exactly the cost being removed; the ratio of clients
  to transactions matches the full storm, so per-transaction overhead —
  and therefore events/sec — is comparable across the scales.
- ``batch_storm`` — the vectorized arrival engine (``batch_workload`` on)
  at the **full** population. The acceptance floor
  (:data:`MIN_BATCH_SPEEDUP`) pins batch events/sec at >= 5x the
  per-client reference.

Both storms run on the one :class:`~repro.sim.kernel.Simulator` event loop.
"Events" here are **completed transactions** (committed + aborted), the
storm's unit of useful work; raw kernel event counts ride along as
``kernel_events``. Simulated commit-latency percentiles (p50/p95/p99) come
from the cluster metrics, and wall-clock repeat percentiles from
:func:`repro.bench.stats.wall_stats` — both storm-scale trend lines
``BENCH_cluster.json`` carries.

The storm includes a flash-crowd ramp, hot-key drift, and a Remus
migration of ``migrate_shards`` shards off ``node-1`` while arrivals are
in flight. Arrivals capped by ``storm_batch_cap`` are counted
(``capped_arrivals``), never silently dropped.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, replace

from repro import fastpath
from repro.bench.stats import distribution, wall_stats
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, TierProfiles
from repro.migration import MigrationPlan, RemusMigration, run_plan
from repro.sim.topology import Topology
from repro.workloads.batch import TABLE, PopulationConfig, PopulationWorkload

#: Full-storm population over the per-client reference population. The
#: clients-per-transaction ratio is what this preserves: both storms spawn
#: the same driver overhead per unit of work, so events/sec compares fairly.
PER_CLIENT_DIVISOR = 20

#: Acceptance floor: batch events/sec over the per-client reference.
MIN_BATCH_SPEEDUP = 5.0


@dataclass(frozen=True)
class StormSpec:
    """One storm's scale knobs (committed into ``BENCH_cluster.json``)."""

    name: str
    num_nodes: int
    num_groups: int  # AZs, one rack each
    population: int
    rate_per_client: float  # txns per second per client
    duration: float  # virtual seconds of arrivals
    tick: float  # arrival-draw tick (ClusterConfig.storm_arrival_tick)
    batch_cap: int  # arrivals admitted per tick (storm_batch_cap)
    num_tuples: int
    num_shards: int
    read_ratio: float
    zipf_theta: float
    drift_keys_per_sec: float
    ramps: tuple  # flash-crowd (time, multiplier) breakpoints
    migrate_shards: int  # shards moved off node-1 mid-storm (0 = none)
    migrate_at: float
    seed: int = 0


#: The committed storm: 100 nodes in 10 AZs, 1M clients, migration at t=2.
FULL_SPEC = StormSpec(
    name="storm_full",
    num_nodes=100,
    num_groups=10,
    population=1_000_000,
    rate_per_client=0.0002,
    duration=10.0,
    tick=0.05,
    batch_cap=8192,
    num_tuples=20_000,
    num_shards=200,
    read_ratio=0.8,
    zipf_theta=0.99,
    drift_keys_per_sec=50.0,
    ramps=((0.0, 1.0), (5.0, 1.0), (6.0, 4.0), (8.0, 4.0), (9.0, 1.0)),
    migrate_shards=2,
    migrate_at=2.0,
)

#: CI scale: same clients-per-transaction ratio (rate x duration matches
#: the full spec), ~1/4 the node count, 1/4 the population.
SMOKE_SPEC = StormSpec(
    name="storm_smoke",
    num_nodes=20,
    num_groups=4,
    population=250_000,
    rate_per_client=0.0005,
    duration=4.0,
    tick=0.05,
    batch_cap=8192,
    num_tuples=5_000,
    num_shards=40,
    read_ratio=0.8,
    zipf_theta=0.99,
    drift_keys_per_sec=50.0,
    ramps=((0.0, 1.0), (2.0, 1.0), (2.5, 4.0), (3.2, 4.0), (3.6, 1.0)),
    migrate_shards=2,
    migrate_at=1.0,
)


def storm_topology(spec: StormSpec) -> Topology:
    """One region, ``num_groups`` AZs of one rack each, nodes dealt
    contiguously, uncontended."""
    node_ids = ["node-{}".format(i + 1) for i in range(spec.num_nodes)]
    base, extra = divmod(len(node_ids), spec.num_groups)
    azs = {}
    cursor = 0
    for index in range(spec.num_groups):
        count = base + (1 if index < extra else 0)
        azs["az-{}".format(index + 1)] = {"rack-1": node_ids[cursor : cursor + count]}
        cursor += count
    return Topology.build(
        {"region-1": azs},
        TierProfiles().as_profiles(),
        contended=False,
        name="storm",
    )


def _build_cluster(spec: StormSpec) -> Cluster:
    return Cluster(
        ClusterConfig(
            num_nodes=spec.num_nodes,
            topology=storm_topology(spec),
            storm_population=spec.population,
            storm_arrival_tick=spec.tick,
            storm_batch_cap=spec.batch_cap,
            seed=spec.seed,
        )
    )


def _population_config(spec: StormSpec) -> PopulationConfig:
    return PopulationConfig(
        rate_per_client=spec.rate_per_client,
        num_tuples=spec.num_tuples,
        num_shards=spec.num_shards,
        read_ratio=spec.read_ratio,
        zipf_theta=spec.zipf_theta,
        drift_keys_per_sec=spec.drift_keys_per_sec,
        ramps=spec.ramps,
    )


def _migration_driver(cluster, spec, finished):
    yield spec.migrate_at
    shards = cluster.shards_on_node("node-1", table=TABLE)[: spec.migrate_shards]
    plan = MigrationPlan(RemusMigration, [(shards, "node-1", "node-2")])
    yield from run_plan(cluster, plan)
    finished.append(cluster.sim.now)


def run_storm(spec: StormSpec, mode: str) -> dict:
    """Run one storm; returns its raw measurement (single repeat).

    ``mode``: ``per_client`` (batch_workload off) or ``batch`` (on).
    """
    if mode not in ("per_client", "batch"):
        raise ValueError("unknown storm mode {!r}".format(mode))
    with fastpath.overridden(batch_workload=mode == "batch"):
        cluster = _build_cluster(spec)
        workload = PopulationWorkload(cluster, _population_config(spec))
        workload.create()
        migration_done = []
        if spec.migrate_shards:
            cluster.spawn(
                _migration_driver(cluster, spec, migration_done),
                name="storm-migration",
            )
        started = time.perf_counter()
        workload.start(until=spec.duration)
        cluster.run(until=spec.duration)
        seconds = time.perf_counter() - started
        workload.stop()
        latencies = [record.latency for record in cluster.metrics.commits]
        events = workload.committed + workload.aborted
        return {
            "events": events,
            "seconds": round(seconds, 6),
            "committed": workload.committed,
            "aborted": workload.aborted,
            "dispatched": workload.dispatched,
            "capped_arrivals": workload.capped_arrivals,
            "kernel_events": cluster.sim._seq,
            "population": workload.population,
            "latency": distribution(latencies) if latencies else None,
            "migration_finished_at": (
                round(migration_done[0], 6) if migration_done else None
            ),
        }


def _measure_storm(spec: StormSpec, mode: str, repeats: int) -> dict:
    """Best-of-``repeats`` with the p50/p95/p99 wall distribution."""
    samples = []
    best = None
    for _ in range(repeats):
        result = run_storm(spec, mode)
        samples.append(result["seconds"])
        if best is None or result["seconds"] < best["seconds"]:
            best = result
    best = dict(best)
    best["events_per_sec"] = round(best["events"] / best["seconds"], 1)
    best["wall"] = wall_stats(samples)
    return best


def run_cluster_bench(smoke: bool = False, repeats: int = 3) -> dict:
    """Run both storm modes; returns the ``BENCH_cluster.json`` payload."""
    spec = SMOKE_SPEC if smoke else FULL_SPEC
    reference = replace(
        spec,
        name=spec.name + "_reference",
        population=spec.population // PER_CLIENT_DIVISOR,
    )
    storms = {
        "per_client_storm": _measure_storm(reference, "per_client", repeats),
        "batch_storm": _measure_storm(spec, "batch", repeats),
    }
    per_client = storms["per_client_storm"]["events_per_sec"]
    batch = storms["batch_storm"]["events_per_sec"]
    return {
        "bench": "cluster",
        "mode": "smoke" if smoke else "full",
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "spec": asdict(spec),
        "reference_population": reference.population,
        "min_batch_speedup": MIN_BATCH_SPEEDUP,
        "storms": storms,
        "speedup_batch_vs_per_client": round(batch / per_client, 3),
    }
