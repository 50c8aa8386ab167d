"""Determinism: identical seeds reproduce identical runs, bit for bit."""

import hashlib
import os
import pathlib
import subprocess
import sys

from repro.experiments.sweep import canonical_json
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.experiments import common, registry
from repro.migration import MigrationPlan, RemusMigration, run_plan
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def run_once(seed):
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=seed))
    workload = YcsbWorkload(
        cluster,
        YcsbConfig(num_tuples=400, num_shards=6, num_clients=4,
                   tuple_size=128, think_time=0.003),
    )
    workload.create()
    pool = workload.make_clients()
    pool.start()
    cluster.run(until=0.5)
    shard = cluster.shards_on_node("node-1", table="ycsb")[0]
    plan = MigrationPlan(RemusMigration, [([shard], "node-1", "node-2")])
    proc = cluster.spawn(run_plan(cluster, plan))
    cluster.run(until=5.0)
    assert proc.finished
    pool.stop()
    cluster.run(until=5.5)
    commits = [(r.time, r.label, r.latency) for r in cluster.metrics.commits]
    dump = cluster.dump_table("ycsb")
    return commits, dump, plan.stats.tuples_copied


def test_same_seed_reproduces_exactly():
    first = run_once(seed=42)
    second = run_once(seed=42)
    assert first[0] == second[0]  # every commit time and latency identical
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_different_seed_differs():
    a = run_once(seed=1)
    b = run_once(seed=2)
    assert a[0] != b[0]


_HASHSEED_SNIPPET = """
import hashlib, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_determinism import run_once

digest = hashlib.sha256(repr(run_once(seed=7)).encode("utf-8")).hexdigest()
print(digest)
"""


def _run_with_hashseed(hashseed):
    root = pathlib.Path(__file__).resolve().parent.parent
    snippet = _HASHSEED_SNIPPET.format(
        src=str(root / "src"), tests=str(root / "tests")
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env.pop("PYTHONPATH", None)
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_timeline_independent_of_hash_seed():
    """The timeline must not depend on PYTHONHASHSEED.

    String hashing is randomized per process, so any iteration over a plain
    ``set``/``dict`` of strings in protocol code would reorder lock releases
    or replay chains between processes. simlint (SIM003) guards the source;
    this test guards the behaviour: two fresh interpreters with different
    hash seeds must produce byte-identical commit timelines and table dumps.
    """
    a = _run_with_hashseed(0)
    b = _run_with_hashseed(12345)
    assert a == b


def _run_cell_recording_tids(scenario, approach, monkeypatch):
    """Run one smoke cell at seed 0; return its canonical payload and the
    tid of every transaction it registered (shadows too), in order."""
    tids = []

    def recording_cluster(*args, **kwargs):
        cluster = Cluster(*args, **kwargs)
        register = cluster.register_txn

        def record(txn):
            tids.append(txn.tid)
            register(txn)

        cluster.register_txn = record
        return cluster

    monkeypatch.setattr(common, "Cluster", recording_cluster)
    spec = registry.get(scenario)
    result = registry.run(spec, approach=approach, seed=0, **dict(spec.smoke))
    return canonical_json(result.to_dict()), tids


def test_two_runs_in_one_process_cannot_see_each_other(monkeypatch):
    """A run owns everything it numbers: running another scenario first in
    the same process changes neither its payload nor its transaction ids."""
    alone_payload, alone_tids = _run_cell_recording_tids("scale_out", "remus", monkeypatch)
    _run_cell_recording_tids("load_balancing", "remus", monkeypatch)
    payload, tids = _run_cell_recording_tids("scale_out", "remus", monkeypatch)
    assert payload == alone_payload
    assert tids == alone_tids
    assert tids[0] == 1
