"""Fast smoke tests of every experiment harness at tiny scale.

The benchmark suite runs the calibrated configurations; these tests verify
the harness code paths (setup, marks, summarisation, consistency checks)
with minimal workloads so `pytest tests/` stays quick.
"""

import pytest

from repro.experiments import registry


def smoke_config(scenario, **overrides):
    """The scenario's registered smoke-scale config, plus ``overrides``."""
    spec = registry.get(scenario)
    return spec.make_config(**dict(spec.smoke, **overrides))


@pytest.mark.parametrize("approach", ["remus", "wait_and_remaster"])
def test_hybrid_a_smoke(approach):
    result = registry.run("hybrid_a", approach=approach, config=smoke_config("hybrid_a"))
    assert result.extra["data_intact"]
    assert result.migration_window[0] is not None
    assert result.throughput, "throughput series should not be empty"
    if approach == "remus":
        assert result.abort_ratio == 0.0


def test_registry_run_ends_with_an_invariant_sweep(monkeypatch):
    """Every registry run ends with one invariant sweep that raises on a
    violation: here a shard handed to a node that does not exist, planted
    just before the sweep."""
    from repro.faults import InvariantChecker, InvariantViolation

    check_once = InvariantChecker.check_once

    def corrupt_then_check(checker):
        shard_id = sorted(checker.cluster.tables["ycsb"].shard_ids())[0]
        checker.cluster.shard_owners[shard_id] = "node-99"
        check_once(checker)

    monkeypatch.setattr(InvariantChecker, "check_once", corrupt_then_check)
    with pytest.raises(InvariantViolation, match="owned by unknown node 'node-99'"):
        registry.run("hybrid_a", approach="remus", config=smoke_config("hybrid_a"))


def test_a_stall_names_the_crashed_process_behind_it(monkeypatch):
    """A run that stalls at its deadline is checked like the end of a run
    first: a background process that crashed is reported as the cause of
    the stall, by name. Here one is planted next to the vacuum daemons and
    the deadline leaves the migration no time past the warm-up."""
    from repro.cluster import Cluster

    start_vacuum_daemons = Cluster.start_vacuum_daemons

    def start_and_plant(cluster):
        start_vacuum_daemons(cluster)

        def doomed():
            yield 0.25
            raise RuntimeError("planted fault")

        cluster.spawn(doomed(), name="doomed-daemon")

    monkeypatch.setattr(Cluster, "start_vacuum_daemons", start_and_plant)
    config = smoke_config("load_balancing", max_sim_time=1.0)
    assert config.max_sim_time == config.warmup
    with pytest.raises(AssertionError) as stall:
        registry.run("load_balancing", approach="remus", config=config)
    message = str(stall.value)
    assert "did not finish by t=1.0s" in message
    assert "doomed-daemon" in message and "planted fault" in message


def test_hybrid_a_squall_smoke():
    result = registry.run("hybrid_a", approach="squall", config=smoke_config("hybrid_a"))
    assert result.extra["data_intact"]


def test_hybrid_b_smoke():
    config = smoke_config("hybrid_b", group_size=3)
    result = registry.run("hybrid_b", approach="remus", config=config)
    assert result.extra["duplicates"] == 0
    assert result.extra["rows_seen"] == 1200
    assert result.extra["data_intact"]


def test_hybrid_b_wait_and_remaster_blocks():
    # Make the analytical query slow enough to span the migrations.
    result = registry.run(
        "hybrid_b",
        approach="wait_and_remaster",
        config=smoke_config("hybrid_b", group_size=3, analytical_row_cost=2.5e-3),
    )
    assert result.extra["data_intact"]
    # The analytical txn keeps the gate closed: measurable downtime.
    assert result.downtime_longest > 0.2


def test_load_balancing_smoke():
    config = smoke_config("load_balancing")
    result = registry.run("load_balancing", approach="remus", config=config)
    assert result.extra["data_intact"]
    assert result.extra["migration_aborts"] == 0
    # At smoke scale (4 clients) the hot node is barely saturated, so only
    # sanity-check the level here; the calibrated throughput *gain* is
    # asserted by benchmarks/test_fig8_load_balancing.py.
    assert result.extra["tput_after"] > 0.85 * result.extra["tput_before"]


def test_scale_out_smoke():
    config = smoke_config("scale_out")
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
    config = smoke_config("high_contention")
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


def test_cross_az_smoke():
    result = registry.run("cross_az", approach="remus", config=smoke_config("cross_az"))
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
    runs = [
        registry.run(
            "cross_az", approach="remus", config=smoke_config("cross_az", pump_share=share)
        )
        for share in (1.0, 0.5, 0.25)
    ]
    # Each step down in the migration class's share shrinks the foreground
    # dip and stretches the copy (the full-size sweep is pinned in
    # benchmarks/test_cross_az_pump_share.py).
    dips = [run.extra["fg_dip"] for run in runs]
    copies = [run.extra["copy_duration"] for run in runs]
    assert dips[0] > dips[1] > dips[2], dips
    assert copies[0] < copies[1] < copies[2], copies
    assert all(run.extra["data_intact"] for run in runs)


def test_cross_az_backup_traffic_deepens_the_dip():
    plain = registry.run("cross_az", approach="remus", config=smoke_config("cross_az"))
    with_backup = registry.run(
        "cross_az", approach="remus", config=smoke_config("cross_az", backup=True)
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
