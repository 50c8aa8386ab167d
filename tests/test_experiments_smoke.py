"""Fast smoke tests of every experiment harness at tiny scale.

The benchmark suite runs the calibrated configurations; these tests verify
the harness code paths (setup, marks, summarisation, consistency checks)
with minimal workloads so `pytest tests/` stays quick.
"""

import pytest

from repro.experiments import registry
from repro.experiments.consolidation import ConsolidationConfig
from repro.experiments.high_contention import HighContentionConfig
from repro.experiments.load_balancing import LoadBalancingConfig
from repro.experiments.scale_out import ScaleOutConfig


def tiny_consolidation(**kwargs):
    defaults = dict(
        num_tuples=1200,
        num_shards=12,
        ycsb_clients=4,
        batch_tuples=600,
        num_batches=2,
        batch_rate=2000.0,
        warmup=1.0,
        settle=1.0,
        snapshot_cost=3e-4,
        analytical_row_cost=5e-4,
        max_sim_time=60.0,
    )
    defaults.update(kwargs)
    return ConsolidationConfig(**defaults)


@pytest.mark.parametrize("approach", ["remus", "wait_and_remaster"])
def test_hybrid_a_smoke(approach):
    result = registry.run("hybrid_a", approach=approach, config=tiny_consolidation())
    assert result.extra["data_intact"]
    assert result.migration_window[0] is not None
    assert result.throughput, "throughput series should not be empty"
    if approach == "remus":
        assert result.abort_ratio == 0.0


def test_hybrid_a_squall_smoke():
    result = registry.run("hybrid_a", approach="squall", config=tiny_consolidation())
    assert result.extra["data_intact"]


def test_hybrid_b_smoke():
    result = registry.run("hybrid_b", approach="remus", config=tiny_consolidation(group_size=3))
    assert result.extra["duplicates"] == 0
    assert result.extra["rows_seen"] == 1200
    assert result.extra["data_intact"]


def test_hybrid_b_wait_and_remaster_blocks():
    # Make the analytical query slow enough to span the migrations.
    result = registry.run(
        "hybrid_b",
        approach="wait_and_remaster",
        config=tiny_consolidation(group_size=3, analytical_row_cost=2.5e-3),
    )
    assert result.extra["data_intact"]
    # The analytical txn keeps the gate closed: measurable downtime.
    assert result.downtime_longest > 0.2


def test_load_balancing_smoke():
    config = LoadBalancingConfig(
        num_tuples=1200,
        num_shards=12,
        ycsb_clients=4,
        warmup=1.0,
        settle=1.0,
        max_sim_time=60.0,
    )
    result = registry.run("load_balancing", approach="remus", config=config)
    assert result.extra["data_intact"]
    assert result.extra["migration_aborts"] == 0
    # At smoke scale (4 clients) the hot node is barely saturated, so only
    # sanity-check the level here; the calibrated throughput *gain* is
    # asserted by benchmarks/test_fig8_load_balancing.py.
    assert result.extra["tput_after"] > 0.85 * result.extra["tput_before"]


def test_scale_out_smoke():
    config = ScaleOutConfig(
        num_warehouses=6,
        warehouses_to_move=2,
        warehouses_per_batch=1,
        districts_per_warehouse=2,
        customers_per_district=6,
        items=12,
        warmup=1.0,
        settle=1.0,
        max_sim_time=60.0,
    )
    result = registry.run("scale_out", approach="remus", config=config)
    assert result.extra["migration_aborts"] == 0
    assert result.extra["new_node_shards"] == 16  # 2 warehouses x 8 tables
    assert result.extra["tput_after"] > 0


def test_scale_out_rejects_squall():
    # The registry validates approach support before the runner is entered.
    with pytest.raises(ValueError, match="does not support approach 'squall'"):
        registry.run("scale_out", approach="squall")


@pytest.mark.parametrize(
    "approach", ["remus", "lock_and_abort", "wait_and_remaster", "stop_and_copy"]
)
def test_high_contention_smoke(approach):
    config = HighContentionConfig(
        shard_tuples=800,
        hot_tuples=40,
        num_clients=8,
        warmup=1.0,
        run_after=1.0,
        max_sim_time=30.0,
    )
    result = registry.run("high_contention", approach=approach, config=config)
    assert result.extra["data_intact"]
    assert result.extra["tput_baseline"] > 0
    assert result.extra["cpu_source"], "CPU series should exist"
    # The headline fields are filled, not left at their 0.0 defaults next to
    # a non-zero ``ww_aborts_total``.
    assert result.avg_throughput_before > 0
    assert result.avg_latency_before > 0
    aborts = sum(result.aborts.values())
    assert aborts >= result.extra["ww_aborts_total"] > 0
    commits = sum(rate * 0.5 for _t, rate in result.throughput)  # 0.5 s bins
    assert result.abort_ratio == pytest.approx(aborts / (aborts + commits), rel=0.02)


def test_added_node_gets_shard_map_replica():
    from repro.cluster import Cluster
    from repro.config import ClusterConfig

    cluster = Cluster(ClusterConfig(num_nodes=2))
    cluster.create_table("kv", num_shards=4, tuple_size=64)
    cluster.bulk_load("kv", [(k, k) for k in range(40)])
    node = cluster.add_node("node-3")
    # The new node can route queries immediately.
    session = cluster.session("node-3")

    def body():
        txn = yield from session.begin()
        value = yield from session.read(txn, "kv", 7)
        yield from session.commit(txn)
        return value

    assert cluster.sim.run_until_complete(cluster.spawn(body())) == 7
    assert node.shardmap_heap.key_count == 4


def tiny_cross_az(**kwargs):
    from repro.experiments.geo import CrossAzConfig

    defaults = dict(
        num_tuples=2000,
        num_shards=16,
        ycsb_clients=6,
        warmup=1.5,
        settle=1.0,
    )
    defaults.update(kwargs)
    return CrossAzConfig(**defaults)


def test_cross_az_smoke():
    result = registry.run("cross_az", approach="remus", config=tiny_cross_az())
    assert result.extra["data_intact"]
    assert result.extra["topology"] == "multi_az"
    assert result.extra["topology_contended"] is True
    assert result.extra["pump_share"] == 1.0
    assert result.extra["copy_duration"] > 0
    # The copy competes with cross-AZ foreground traffic: a visible dip.
    assert result.extra["fg_dip"] > 0
    payload = result.to_dict()
    assert payload["extra"]["topology"] == "multi_az"


def test_cross_az_pump_share_trades_dip_for_copy_time():
    full = registry.run("cross_az", approach="remus", config=tiny_cross_az())
    throttled = registry.run(
        "cross_az", approach="remus", config=tiny_cross_az(pump_share=0.25)
    )
    # Throttling the migration class shrinks the foreground dip and
    # stretches the copy (the full sweep is gated in `repro bench`).
    assert throttled.extra["fg_dip"] < full.extra["fg_dip"]
    assert throttled.extra["copy_duration"] > full.extra["copy_duration"]
    assert throttled.extra["data_intact"]


def test_cross_az_backup_traffic_deepens_the_dip():
    plain = registry.run("cross_az", approach="remus", config=tiny_cross_az())
    with_backup = registry.run(
        "cross_az", approach="remus", config=tiny_cross_az(backup=True)
    )
    # Backup bulk traffic shares the same trunk direction as the copy, so
    # the foreground runs slower during the copy (and before it — the
    # stream also depresses the baseline, so compare absolute rates, not
    # the per-run dip) and the copy takes longer.
    assert with_backup.extra["fg_during_copy"] < plain.extra["fg_during_copy"]
    assert with_backup.avg_throughput_before < plain.avg_throughput_before
    assert with_backup.extra["copy_duration"] > plain.extra["copy_duration"]
    assert with_backup.extra["data_intact"]


@pytest.mark.parametrize("scenario,seed", [("load_balancing", 3), ("scale_out", 13)])
def test_remus_finishes_on_the_seeds_the_mocc_wedge_hung(scenario, seed):
    """Default-size cells, the first seed of each scenario that ended with
    "did not finish by t=120.0s" while ``MoccCoordinator`` read the send
    process's cursor instead of its handled LSN (10 of 40 ``load_balancing``
    seeds, 1 of 20 ``scale_out``; the unit regression is in
    ``test_propagation_unit``)."""
    result = registry.run(scenario, approach="remus", seed=seed)
    assert result.migration_window[1] is not None
    assert result.extra["migration_aborts"] == 0
    assert result.extra.get("data_intact", True)  # scale_out does not dump its tables
