"""The fast paths must be invisible in simulated time.

Every optimization behind ``repro.fastpath`` — hint bits, snapshot caching,
group-commit WAL batching, the uncontended-lock fast path — claims to be
*semantics-preserving*: it may change how much wall-clock the host burns,
never what happens in the simulation. These tests hold it to that claim at
two levels:

- whole experiments: each (scenario, approach, seed) cell is run with the
  fast paths on and with every flag off, and the canonical-JSON result
  payloads must be byte-identical;
- a raw cluster run: the per-commit (time, label, latency) timeline and the
  final table dump must match tuple-for-tuple.

The profiler makes the same promise (it observes dispatches, it never
schedules), so it gets the same treatment.
"""

import pytest

from repro import fastpath
from repro.bench.sweep import SMOKE_OVERRIDES, canonical_json
from repro.experiments import ExperimentResult, registry
from repro.profiling import Profiler

#: One cell per migration approach, crossing scenario boundaries.
_CELLS = [
    ("load_balancing", "squall"),
    ("high_contention", "lock_and_abort"),
    ("scale_out", "wait_and_remaster"),
    ("hybrid_a", "remus"),
]
_SEEDS = [0, 1, 2]


def _run_cell(scenario, approach, seed):
    overrides = SMOKE_OVERRIDES.get(scenario, {})
    return registry.run(
        registry.get(scenario), approach=approach, seed=seed, **overrides
    )


@pytest.mark.parametrize("scenario,approach", _CELLS)
def test_experiment_timeline_identical_with_fastpath_off(scenario, approach):
    for seed in _SEEDS:
        fast = _run_cell(scenario, approach, seed)
        with fastpath.all_disabled():
            slow = _run_cell(scenario, approach, seed)
        assert canonical_json(fast.to_dict()) == canonical_json(slow.to_dict()), (
            "fast path changed the {}/{} timeline at seed {}".format(
                scenario, approach, seed
            )
        )
        # The payload must survive serialization exactly (sweep workers and
        # BENCH_experiments.json depend on this round-trip).
        restored = ExperimentResult.from_dict(fast.to_dict())
        assert restored.to_dict() == fast.to_dict()


#: Only the migration data-path flags on — attributes any divergence to the
#: indexed scan / routed pump / batched replay specifically, with the txn
#: fast paths held at their legacy behavior.
_MIGRATION_ONLY = {
    "clog_hints": False,
    "snapshot_cache": False,
    "group_commit": False,
    "lock_fastpath": False,
    "migration_scan": True,
    "migration_pump": True,
    "migration_replay": True,
}


@pytest.mark.parametrize("scenario,approach", _CELLS)
def test_migration_fastpath_alone_is_invisible(scenario, approach):
    for seed in _SEEDS:
        with fastpath.overridden(**_MIGRATION_ONLY):
            fast = _run_cell(scenario, approach, seed)
        with fastpath.all_disabled():
            slow = _run_cell(scenario, approach, seed)
        assert canonical_json(fast.to_dict()) == canonical_json(slow.to_dict()), (
            "migration fast path changed the {}/{} timeline at seed {}".format(
                scenario, approach, seed
            )
        )


def test_commit_timeline_identical_with_migration_fastpath_only():
    from tests.test_determinism import run_once

    with fastpath.overridden(**_MIGRATION_ONLY):
        fast_commits, fast_dump, fast_copied = run_once(seed=11)
    with fastpath.all_disabled():
        slow_commits, slow_dump, slow_copied = run_once(seed=11)
    assert fast_commits == slow_commits
    assert fast_dump == slow_dump
    assert fast_copied == slow_copied


def test_commit_timeline_identical_with_fastpath_off():
    """Tuple-level check: every commit time/latency and the final table."""
    from tests.test_determinism import run_once

    fast_commits, fast_dump, fast_copied = run_once(seed=11)
    with fastpath.all_disabled():
        slow_commits, slow_dump, slow_copied = run_once(seed=11)
    assert fast_commits == slow_commits
    assert fast_dump == slow_dump
    assert fast_copied == slow_copied


def test_flags_restored_after_override():
    before = fastpath.flags()
    with fastpath.all_disabled():
        assert not any(fastpath.flags().values())
    assert fastpath.flags() == before
    with pytest.raises(ValueError):
        fastpath.configure(warp_drive=True)


def test_profiler_does_not_perturb_the_timeline():
    baseline = _run_cell("load_balancing", "remus", 3)
    with Profiler() as profiler:
        profiled = _run_cell("load_balancing", "remus", 3)
    assert canonical_json(profiled.to_dict()) == canonical_json(baseline.to_dict())
    report = profiler.report()
    assert report["dispatches"] > 0
    assert report["subsystems"], "expected per-subsystem wall-clock attribution"


def test_profiler_rejects_nesting():
    from repro.sim.errors import SimulationError

    with Profiler():
        with pytest.raises(SimulationError):
            Profiler().__enter__()


# ----------------------------------------------------------------------
# Golden commit timelines: the oracle for rewrites of the hot path
# ----------------------------------------------------------------------
#: (scenario, approach) -> (sha256[:16] of the commit timeline + final table,
#: committed txns, kernel events scheduled) for the smoke-sized scenario at
#: seed 0, each recorded on the commit *before* the rewrite it guards:
#: ``load_balancing`` before the wakeup-path rewrite (PR 13),
#: ``high_contention`` — the scenario where vacuum runs under a migration's
#: horizon hold — before vacuum went from a whole-heap sweep to the
#: candidate set (PR 15). A change that only makes the host's work cheaper
#: keeps all three; one that removes, adds or reorders a single wakeup, or
#: reclaims a version a pass earlier or later than a reader walks its
#: chain, moves the event count or the digest. Re-pin only for a change
#: that means to alter the simulated timeline.
_GOLDEN = {
    ("load_balancing", "remus"): ("dc93f8b578d77e1b", 9712, 158146),
    ("load_balancing", "lock_and_abort"): ("7b815a8e04042496", 9688, 157535),
    ("load_balancing", "wait_and_remaster"): ("75e8812e029332dc", 9675, 157301),
    ("load_balancing", "squall"): ("b4c4bc97653183fe", 5284, 92183),
    ("high_contention", "remus"): ("1bc13de7aaf1445c", 10781, 210707),
    ("high_contention", "lock_and_abort"): ("7f1b56ed5c90ac0c", 10780, 210608),
    ("high_contention", "wait_and_remaster"): ("c7bfc96076bfb9e8", 10783, 210664),
    ("high_contention", "stop_and_copy"): ("842e09913c9605c3", 6962, 116295),
}
_GOLDEN_TABLE = {"load_balancing": "ycsb", "high_contention": "hot"}


def _run_cell_capturing_cluster(scenario, approach, monkeypatch):
    """Run the smoke cell at seed 0 and hand back the cluster it built."""
    import importlib

    module = importlib.import_module("repro.experiments." + scenario)
    clusters = []
    build_cluster = module.build_cluster

    def capturing_build(*args, **kwargs):
        clusters.append(build_cluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(module, "build_cluster", capturing_build)
    _run_cell(scenario, approach, 0)
    (cluster,) = clusters
    return cluster


@pytest.mark.parametrize("scenario,approach", sorted(_GOLDEN))
def test_golden_commit_timeline_and_event_count(scenario, approach, monkeypatch):
    import hashlib

    cluster = _run_cell_capturing_cluster(scenario, approach, monkeypatch)
    commits = [(r.time, r.label, r.latency) for r in cluster.metrics.commits]
    dump = sorted(cluster.dump_table(_GOLDEN_TABLE[scenario]).items())
    digest = hashlib.sha256(repr((commits, dump)).encode()).hexdigest()[:16]
    # ``_seq`` numbers every wakeup slot of the run — a schedule()/
    # schedule_at() call or a tail dispatch — so slots per committed txn
    # (16.28 for load_balancing/remus) is pinned seed-exactly.
    assert (digest, len(commits), cluster.sim._seq) == _GOLDEN[(scenario, approach)]


def test_vacuum_visits_candidates_not_the_heap(monkeypatch):
    """Seed-exact, noise-free gate on how vacuum finds its garbage.

    Smoke ``high_contention``/remus at seed 0: the versions reclaimed are
    the whole-heap sweep's total (5422, summed from ``vacuum``'s return
    values on the commit before the candidate set), while the chains looked
    at stay under 5 % of what a sweep walks (passes x keys in the heap at
    each pass) — the garbage lives on 40 hot keys of 800. Reintroducing a
    full sweep fails the second assert; reclaiming a version too many, too
    few or on a different pass fails the first or the golden digests above.
    """
    from repro.profiling.counters import COUNTERS
    from repro.storage.heap import HeapTable

    swept = []
    vacuum = HeapTable.vacuum

    def counting_vacuum(heap, horizon_ts):
        swept.append(heap.key_count)
        return vacuum(heap, horizon_ts)

    monkeypatch.setattr(HeapTable, "vacuum", counting_vacuum)
    visited = COUNTERS.vacuum_chains_visited
    reclaimed = COUNTERS.vacuum_versions_reclaimed
    _run_cell("high_contention", "remus", 0)
    assert len(swept) == 68 and sum(swept) == 14640  # the sweep's workload
    assert COUNTERS.vacuum_versions_reclaimed - reclaimed == 5422
    assert COUNTERS.vacuum_chains_visited - visited < 0.05 * sum(swept)


# ----------------------------------------------------------------------
# Storm engine equivalence: batch workload + partitioned event loop
# ----------------------------------------------------------------------
def _storm_payload(mode, seed):
    """One small population storm on a 6-node multi-AZ cluster.

    ``mode``: ``per_client`` / ``batch`` / ``partitioned`` — the same three
    driving shapes ``repro bench --cluster`` measures, at equivalence scale.
    """
    from repro.cluster.cluster import Cluster
    from repro.config import ClusterConfig, TierProfiles
    from repro.sim.partition import PartitionedSimulator
    from repro.sim.topology import make_topology
    from repro.workloads.batch import TABLE, PopulationConfig, PopulationWorkload

    partitioned = mode == "partitioned"
    with fastpath.overridden(
        batch_workload=mode != "per_client", partitioned_loop=partitioned
    ):
        node_ids = ["node-{}".format(i + 1) for i in range(6)]
        topology = make_topology(
            "multi_az", node_ids, TierProfiles().as_profiles(), contended=False
        )
        config = ClusterConfig(
            num_nodes=6,
            topology=topology,
            storm_population=240,
            storm_arrival_tick=0.05,
            storm_batch_cap=64,
            seed=seed,
        )
        sim = None
        if partitioned:
            sim = PartitionedSimulator.for_topology(topology, seed=seed)
        cluster = Cluster(config, sim=sim)
        workload = PopulationWorkload(
            cluster,
            PopulationConfig(
                rate_per_client=0.1,
                num_tuples=240,
                num_shards=12,
                read_ratio=0.5,
                ramps=((0.0, 1.0), (3.0, 1.0), (4.0, 2.5)),
                drift_keys_per_sec=10.0,
            ),
        )
        workload.create()
        cluster.start_vacuum_daemons()
        workload.start(until=5.0)
        cluster.run(until=5.0)
        workload.stop()
        payload = {
            "commits": [
                (r.time, r.label, r.latency, r.weight)
                for r in cluster.metrics.commits
            ],
            "aborts": [
                (r.time, r.label, r.kind) for r in cluster.metrics.aborts
            ],
            "committed": workload.committed,
            "aborted": workload.aborted,
            "dispatched": workload.dispatched,
            "dump": sorted(cluster.dump_table(TABLE).items()),
        }
        assert workload.dispatched > 50, "equivalence storm too quiet to mean much"
        return payload


def _sorted_timeline(payload):
    """Time-sorted record form: the partitioned loop's identity guarantee.

    Within a lookahead window, partitions append metrics in drain order,
    not global time order — the record *sets* (and every derived metric)
    are identical, so identity is pinned over the time-sorted timeline.
    """
    return dict(
        payload,
        commits=sorted(payload["commits"]),
        aborts=sorted(payload["aborts"]),
    )


def _timeline_digest(payload):
    import hashlib

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_workload_timeline_identical_to_per_client(seed):
    """The vectorized arrival engine is invisible: raw byte-for-byte."""
    batch = _storm_payload("batch", seed)
    per_client = _storm_payload("per_client", seed)
    assert canonical_json(batch) == canonical_json(per_client), (
        "batch workload changed the commit timeline at seed {}".format(seed)
    )


#: Pinned sorted-timeline digests of the partitioned run (== the single-loop
#: run's, asserted below). If a PR changes these *intentionally* (e.g. a cost
#: model change shifts every commit time), re-pin after verifying the
#: partitioned and single-loop digests still match each other.
_PARTITIONED_DIGESTS = {
    0: "266b766d64029906",
    1: "14f3531e278a8a11",
    2: "2656c8de5d6578b6",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partitioned_loop_timeline_identical_sorted(seed):
    single = _sorted_timeline(_storm_payload("batch", seed))
    windowed = _sorted_timeline(_storm_payload("partitioned", seed))
    assert canonical_json(single) == canonical_json(windowed), (
        "partitioned loop changed the sorted commit timeline at seed {}".format(seed)
    )
    digest = _timeline_digest(windowed)
    assert digest == _PARTITIONED_DIGESTS[seed], (
        "pinned storm digest drifted at seed {}: {} (re-pin only after "
        "verifying partitioned == single-loop)".format(seed, digest)
    )


# ----------------------------------------------------------------------
# Parallel window drain (fastpath.parallel_drain / repro.sim.parallel)
# ----------------------------------------------------------------------
from dataclasses import replace  # noqa: E402

from repro.bench.cluster_bench import (  # noqa: E402
    StormSpec,
    run_parallel_storm,
    run_storm,
    timeline_digest,
)

#: The partition-closed storm the parallel drain must replay byte-for-byte:
#: key-routed coordinators (single-node transactions), no migration, three
#: AZ partitions so a two-worker fan-out gives one worker a multi-partition
#: ownership set ({1, 3} vs {2}).
_PARALLEL_SPEC = StormSpec(
    name="storm_equiv_parallel",
    num_nodes=6,
    num_groups=3,
    population=240,
    rate_per_client=0.1,
    duration=5.0,
    tick=0.05,
    batch_cap=64,
    num_tuples=240,
    num_shards=12,
    read_ratio=0.5,
    zipf_theta=0.99,
    drift_keys_per_sec=10.0,
    ramps=((0.0, 1.0), (3.0, 1.0), (4.0, 2.5)),
    migrate_shards=0,
    migrate_at=0.0,
    seed=0,
    route_by_key=True,
)

#: Pinned digests of the merged parallel identity payload (== the
#: single-loop batch run's, asserted below). Re-pin only after verifying
#: the parallel and single-loop payloads still match each other.
_PARALLEL_DIGESTS = {
    0: "8ac5df2b81279b7d",
    1: "c524bb4fcbf52406",
    2: "f3f599ee084bbb6c",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parallel_drain_timeline_identical_to_single_loop(seed):
    """Multi-worker window drain == single loop, payload- and digest-wise."""
    spec = replace(_PARALLEL_SPEC, seed=seed)
    reference = run_storm(spec, "batch", collect_identity=True)["identity"]
    assert reference["dispatched"] > 50  # the storm actually stormed
    with fastpath.overridden(parallel_drain=True):
        merged = run_parallel_storm(spec, workers=2)
    identity = merged["identity"]
    assert canonical_json(identity) == canonical_json(reference), (
        "parallel drain changed the merged timeline at seed {}".format(seed)
    )
    # The envelope held: no worker sent into a partition owned elsewhere.
    assert merged["reflected_msgs"] == 0
    digest = timeline_digest(identity)
    assert digest == _PARALLEL_DIGESTS[seed], (
        "pinned parallel storm digest drifted at seed {}: {} (re-pin only "
        "after verifying parallel == single-loop)".format(seed, digest)
    )


def test_parallel_drain_defaults_off():
    """With the flag at its default, no pool is used — the storm runs as
    one in-process job owning every partition (the serial windowed drain)
    and still reproduces the pinned timeline."""
    assert fastpath.parallel_drain is False
    merged = run_parallel_storm(_PARALLEL_SPEC, workers=4)
    assert merged["pool_used"] is False
    assert merged["workers"] == 1
    assert timeline_digest(merged["identity"]) == _PARALLEL_DIGESTS[0]


def test_parallel_drain_serial_fallback_when_pool_unavailable(monkeypatch):
    """When the pool cannot start (sandboxed runners), the shuttle degrades
    to the serial windowed drain with byte-identical output — the same
    contract as the seed-sweep fallback."""
    import repro.sim.parallel as parallel_mod

    class _NoPool:
        @staticmethod
        def Pool(*args, **kwargs):
            raise OSError("semaphores unavailable")

    monkeypatch.setattr(parallel_mod, "multiprocessing", _NoPool)
    with fastpath.overridden(parallel_drain=True):
        merged = run_parallel_storm(_PARALLEL_SPEC, workers=2)
    assert merged["pool_used"] is False
    assert timeline_digest(merged["identity"]) == _PARALLEL_DIGESTS[0]


def test_tail_dispatch_keeps_nearly_half_the_wakeups_off_the_heap(monkeypatch):
    """Seed-exact, noise-free gate on heap traffic (DESIGN.md §8, "The
    ordering rule"). Smoke ``load_balancing``/remus at seed 0 numbers 158 146
    slots (``sim._seq``, pinned in ``_GOLDEN``); on the commit before tail
    dispatch every one of them was a ``schedule``/``schedule_at`` call (this
    wrapper counted 158 146 there). A wakeup that is provably the next
    dispatch now consumes its number without touching the heap. Losing a
    tail site moves the count up; inlining where the rule forbids it moves
    the digests in ``_GOLDEN``."""
    from repro.sim.kernel import Simulator

    calls = []
    for name in ("schedule", "schedule_at"):

        def counting(sim, *args, _original=getattr(Simulator, name)):
            calls.append(1)
            return _original(sim, *args)

        monkeypatch.setattr(Simulator, name, counting)
    cluster = _run_cell_capturing_cluster("load_balancing", "remus", monkeypatch)
    assert cluster.sim._seq == _GOLDEN[("load_balancing", "remus")][2]
    assert len(calls) == 82480
    assert len(calls) / cluster.sim._seq <= 0.6
