"""Unit tests for metrics collection/reporting and the shard map cache."""

import pytest

from repro.cluster.shardmap import ShardMapCache
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import render_series, render_table
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def metrics(sim):
    return MetricsCollector(sim)


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------
def test_throughput_series_bins_commits(sim, metrics):
    for t in (0.1, 0.2, 1.5, 2.9):
        sim.now = t
        metrics.record_commit("ycsb", latency=0.001)
    sim.now = 3.0
    series = metrics.throughput_series(label="ycsb", bin_width=1.0, end=3.0)
    assert series == [(0.0, 2.0), (1.0, 1.0), (2.0, 1.0)]


def test_weighted_throughput_counts_tuples(sim, metrics):
    sim.now = 0.5
    metrics.record_commit("batch", latency=1.0, weight=1000)
    series = metrics.throughput_series(label="batch", bin_width=1.0, end=1.0, weighted=True)
    assert series == [(0.0, 1000.0)]


def test_label_filter_uses_prefix(sim, metrics):
    metrics.record_commit("ycsb", 0.1)
    metrics.record_commit("batch", 0.1)
    assert metrics.commit_count(label="ycsb") == 1
    assert metrics.commit_count() == 2


def test_abort_ratio(sim, metrics):
    metrics.record_commit("batch", 0.1)
    metrics.record_abort("batch", "migration")
    metrics.record_abort("batch", "migration")
    metrics.record_abort("batch", "ww_conflict")
    assert metrics.abort_ratio(label="batch") == pytest.approx(0.75)
    assert metrics.abort_ratio(label="batch", kind="migration") == pytest.approx(2 / 3)
    assert metrics.abort_kinds(label="batch") == {"migration": 2, "ww_conflict": 1}


def test_average_latency_windows(sim, metrics):
    sim.now = 1.0
    metrics.record_commit("t", latency=0.010)
    sim.now = 5.0
    metrics.record_commit("t", latency=0.030)
    assert metrics.average_latency(label="t", end=2.0) == pytest.approx(0.010)
    assert metrics.average_latency(label="t", start=2.0) == pytest.approx(0.030)
    assert metrics.average_latency(label="t") == pytest.approx(0.020)


def test_latency_percentile(sim, metrics):
    for latency in (0.001, 0.002, 0.003, 0.004, 0.100):
        metrics.record_commit("t", latency=latency)
    assert metrics.latency_percentile(0.5, label="t") == pytest.approx(0.003)
    assert metrics.latency_percentile(0.99, label="t") == pytest.approx(0.100)


def test_downtime_detects_gap(sim, metrics):
    for t in (0.1, 0.2, 0.3, 4.0, 4.1):
        sim.now = t
        metrics.record_commit("t", 0.001)
    sim.now = 5.0
    longest, total = metrics.downtime(label="t", start=0.0, end=5.0, min_window=0.5)
    assert longest == pytest.approx(3.7)
    assert total == pytest.approx(3.7 + 0.9)  # plus the trailing 4.1->5.0 gap


def test_marks(sim, metrics):
    sim.now = 1.0
    metrics.mark("migration_start")
    sim.now = 2.0
    metrics.mark("migration_end")
    sim.now = 3.0
    metrics.mark("migration_end")
    assert metrics.first_mark("migration_start") == 1.0
    assert metrics.last_mark("migration_end") == 3.0
    assert metrics.first_mark("missing") is None


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
def test_render_table_aligns_columns():
    text = render_table("T", ["a", "long_header"], [[1, 2], ["xx", "yyyy"]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    assert len(lines) == 5


def test_render_series_scales_bars():
    text = render_series("S", [(0.0, 10.0), (1.0, 5.0)], width=10)
    lines = text.splitlines()
    assert lines[1].count("#") == 10
    assert lines[2].count("#") == 5


def test_render_series_empty():
    assert "(empty series)" in render_series("S", [])


# ----------------------------------------------------------------------
# Shard map cache
# ----------------------------------------------------------------------
def test_cache_lookup_and_update():
    cache = ShardMapCache("n1")
    cache.install("s1", "node-1")
    assert cache.lookup("s1") == "node-1"
    assert cache.maybe_update("s1", "node-2", cts=10)
    assert cache.lookup("s1") == "node-2"
    # An older version never overwrites a newer entry.
    assert not cache.maybe_update("s1", "node-9", cts=5)
    assert cache.lookup("s1") == "node-2"


def test_cache_entry_returns_version():
    cache = ShardMapCache("n1")
    cache.install("s1", "node-1", cts=3)
    assert cache.entry("s1") == ("node-1", 3)


def test_cache_read_through_state():
    cache = ShardMapCache("n1")
    cache.install("s1", "node-1")
    assert not cache.is_read_through("s1")
    cache.set_read_through(["s1"])
    assert cache.is_read_through("s1")
    cache.clear_read_through(["s1"])
    assert not cache.is_read_through("s1")


def test_cache_missing_shard_raises():
    cache = ShardMapCache("n1")
    with pytest.raises(KeyError):
        cache.lookup("nope")
