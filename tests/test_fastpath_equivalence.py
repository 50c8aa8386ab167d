"""The fast paths must be invisible in simulated time.

Hint bits, shared snapshots, group-commit WAL batching, the uncontended-lock
fast path and the migration scan/pump/replay batching used to sit behind
``repro.fastpath`` flags, each with a slow twin. They are now the only path;
what they must preserve is pinned here as digests recorded on the commit
before the twins were deleted, where the fast and the all-flags-off runs
were checked to agree:

- whole experiments: each (scenario, approach, seed) cell's canonical-JSON
  result payload;
- a raw cluster run: the per-commit (time, label, latency) timeline, the
  final table dump and the tuples copied;
- golden commit timelines with the kernel's slot count (``sim._seq``) for
  every registry cell plus the failover and chaos soaks.

The profiler makes the same promise (it observes dispatches, it never
schedules), so it gets the same treatment.
"""

import hashlib
import importlib

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

#: sha256[:16] of ``canonical_json(result.to_dict())`` per cell and seed,
#: recorded with the fast paths on and with every flag off (identical).
_CELL_DIGESTS = {
    ("load_balancing", "squall"): (
        "9094a2f637bdb445", "58ab2e42ca0a0d80", "085e4f5ff5dd65cf",
    ),
    ("high_contention", "lock_and_abort"): (
        "0ec93a49f1a42b19", "84496618da192c4c", "f1ee7e8036ab43c2",
    ),
    ("scale_out", "wait_and_remaster"): (
        "c8336661f48ae937", "ff23201acfb9e8a0", "82ea1dc93a217ed9",
    ),
    ("hybrid_a", "remus"): (
        "d4f8fe2841877dbb", "62220faa206cb136", "b7db4419e2eb7f6a",
    ),
}


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cell(scenario, approach, seed):
    overrides = SMOKE_OVERRIDES.get(scenario, {})
    return registry.run(
        registry.get(scenario), approach=approach, seed=seed, **overrides
    )


@pytest.mark.parametrize("scenario,approach", _CELLS)
def test_experiment_timeline_identical_with_fastpath_off(scenario, approach):
    for seed in _SEEDS:
        result = _run_cell(scenario, approach, seed)
        digest = _sha16(canonical_json(result.to_dict()))
        assert digest == _CELL_DIGESTS[(scenario, approach)][seed], (
            "the {}/{} timeline drifted at seed {}: {}".format(
                scenario, approach, seed, digest
            )
        )
        # The payload must survive serialization exactly (sweep workers and
        # BENCH_experiments.json depend on this round-trip).
        restored = ExperimentResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()


def test_commit_timeline_identical_with_fastpath_off():
    """Tuple-level check: every commit time/latency, the final table and
    the tuples copied, against the digest the flag-off run produced."""
    from tests.test_determinism import run_once

    commits, dump, copied = run_once(seed=11)
    digest = _sha16(repr((commits, sorted(dump.items()), copied)))
    assert digest == "15bb1ce6f928fb36"


def test_commit_timeline_identical_with_migration_fastpath_only():
    """The same run, split so a drift is attributed: the migration data
    path (indexed scan, routed pump, batched replay) owns the tuples copied
    and the migrated shard's final rows; the commit timeline is checked on
    its own. Each value is the one the flag-off run produced."""
    from tests.test_determinism import run_once

    commits, dump, copied = run_once(seed=11)
    assert copied == 79
    assert len(dump) == 400
    assert _sha16(repr(sorted(dump.items()))) == "3bca4804f80b9132"
    assert _sha16(repr(commits)) == "0576e67f62d7d785"


def test_flags_restored_after_override():
    before = fastpath.batch_workload
    with fastpath.overridden(batch_workload=not before):
        assert fastpath.batch_workload is not before
    assert fastpath.batch_workload is before
    with pytest.raises(ValueError), fastpath.overridden(warp_drive=True):
        pass


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
#: candidate set (PR 15), and every approach of ``hybrid_a``, ``hybrid_b``,
#: ``scale_out`` and ``cross_az`` before the partitioned and parallel event
#: loops were deleted, and the ``failover`` and ``chaos`` soaks before the
#: fast-path flags and their slow twins were. A change that only makes the host's work cheaper
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
    ("hybrid_a", "remus"): ("fb548d526947a8a1", 2131, 53934),
    ("hybrid_a", "lock_and_abort"): ("7d4e7f71755da023", 2131, 53901),
    ("hybrid_a", "wait_and_remaster"): ("9ea1455cd1c0bff1", 2130, 53873),
    ("hybrid_a", "squall"): ("9c8458bd42702c32", 1161, 38184),
    ("hybrid_b", "remus"): ("bf9a17aa1eabce30", 2130, 37927),
    ("hybrid_b", "lock_and_abort"): ("bf9a17aa1eabce30", 2130, 37928),
    ("hybrid_b", "wait_and_remaster"): ("74621ff93fad76f8", 2129, 37901),
    ("hybrid_b", "squall"): ("eb53800da8a4fbfa", 1581, 29735),
    ("scale_out", "remus"): ("4834189ecd2145b8", 798, 136040),
    ("scale_out", "lock_and_abort"): ("8350248a863b9eff", 793, 135007),
    ("scale_out", "wait_and_remaster"): ("26db21be65a61248", 778, 131521),
    ("cross_az", "remus"): ("86260267dad51b24", 4671, 73409),
    ("cross_az", "lock_and_abort"): ("f563efe622f20292", 4668, 73298),
    ("cross_az", "wait_and_remaster"): ("ee42dd23350e2da8", 4638, 72144),
    ("cross_az", "squall"): ("33d99ebf4c4ad572", 4119, 63747),
    ("failover", "remus"): ("8423bc6b7350ad16", 2118, 144522),
    ("chaos", "remus"): ("0ba27bab6003d252", 6191, 216813),
}
#: The table whose final contents join each scenario's digest (TPC-C's
#: ``district`` is written by both new-order and payment).
_GOLDEN_TABLE = {
    "load_balancing": "ycsb",
    "high_contention": "hot",
    "hybrid_a": "ycsb",
    "hybrid_b": "ycsb",
    "scale_out": "district",
    "cross_az": "ycsb",
    "failover": "counters",
    "chaos": "counters",
}
#: The two soak harnesses outside the registry, run at their default
#: config and seed 0: scenario -> (runner, config class) in
#: ``repro.experiments.<scenario>``.
_SOAKS = {
    "failover": ("run_failover", "FailoverConfig"),
    "chaos": ("run_chaos", "ChaosConfig"),
}


def _run_cell_capturing_cluster(scenario, approach, monkeypatch):
    """Run the smoke cell (or soak) at seed 0 and hand back its cluster."""
    if scenario in _SOAKS:
        module = importlib.import_module("repro.experiments." + scenario)
        runner, config = (getattr(module, name) for name in _SOAKS[scenario])

        def run():
            runner(config(seed=0))
    else:
        module = importlib.import_module(registry.get(scenario).runner.__module__)

        def run():
            _run_cell(scenario, approach, 0)
    clusters = []
    build_cluster = module.build_cluster

    def capturing_build(*args, **kwargs):
        clusters.append(build_cluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(module, "build_cluster", capturing_build)
    run()
    (cluster,) = clusters
    return cluster


@pytest.mark.parametrize("scenario,approach", sorted(_GOLDEN))
def test_golden_commit_timeline_and_event_count(scenario, approach, monkeypatch):
    cluster = _run_cell_capturing_cluster(scenario, approach, monkeypatch)
    commits = [(r.time, r.label, r.latency) for r in cluster.metrics.commits]
    dump = sorted(cluster.dump_table(_GOLDEN_TABLE[scenario]).items())
    digest = _sha16(repr((commits, dump)))
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
# Storm engine equivalence: batch workload vs per-client pacers
# ----------------------------------------------------------------------
def _storm_payload(mode, seed):
    """One small population storm on a 6-node multi-AZ cluster.

    ``mode``: ``per_client`` / ``batch`` — the two driving shapes
    ``repro bench --cluster`` measures, at equivalence scale.
    """
    from repro.cluster.cluster import Cluster
    from repro.config import ClusterConfig, TierProfiles
    from repro.sim.topology import make_topology
    from repro.workloads.batch import TABLE, PopulationConfig, PopulationWorkload

    with fastpath.overridden(batch_workload=mode == "batch"):
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
        cluster = Cluster(config)
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
    """Time-sorted record form of a storm payload (the pinned unit below)."""
    return dict(
        payload,
        commits=sorted(payload["commits"]),
        aborts=sorted(payload["aborts"]),
    )


def _timeline_digest(payload):
    return _sha16(canonical_json(payload))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_workload_timeline_identical_to_per_client(seed):
    """The vectorized arrival engine is invisible: raw byte-for-byte."""
    batch = _storm_payload("batch", seed)
    per_client = _storm_payload("per_client", seed)
    assert canonical_json(batch) == canonical_json(per_client), (
        "batch workload changed the commit timeline at seed {}".format(seed)
    )


#: Sorted-timeline digests of the batch storm per seed, recorded before the
#: partitioned and parallel event loops were deleted. Re-pin only for a
#: change meant to alter the simulated timeline.
_STORM_DIGESTS = {
    0: "266b766d64029906",
    1: "14f3531e278a8a11",
    2: "2656c8de5d6578b6",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_storm_timeline_digest_pinned(seed):
    digest = _timeline_digest(_sorted_timeline(_storm_payload("batch", seed)))
    assert digest == _STORM_DIGESTS[seed], (
        "pinned storm digest drifted at seed {}: {}".format(seed, digest)
    )


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
