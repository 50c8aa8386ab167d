"""The four benchmark workloads: frozen parameters and their drivers.

Every number below is a literal owned by the benchmark. The experiment
configs they were copied from (``LoadBalancingConfig``, ``ScaleOutConfig``,
``HighContentionConfig``, the ``repro bench --cluster`` full spec) may be
rewritten by later changes without moving the benchmark. ``--seed`` is the
simulator seed, unfiltered. The drivers use the
core public API only: ``repro.cluster``, ``repro.config``,
``repro.workloads``, ``repro.migration.Migration``, ``repro.sim.topology``,
``cluster.metrics`` and ``repro.fastpath.overridden``.

A repeat is ``scenario.setup(seed)`` (build the cluster, create and bulk-load
the tables, build the clients: reported as ``setup_s``) followed by
``scenario.drive(run)`` (``pool.start()`` to the last ``cluster.run``: the
timed region).
"""

from repro import fastpath
from repro.cluster import Cluster, ShardId
from repro.config import ClusterConfig, CostModel, TierProfiles
from repro.migration import Migration
from repro.sim.topology import Topology, make_topology
from repro.workloads import (
    ClientPool,
    ClosedLoopClient,
    PopulationConfig,
    PopulationWorkload,
    TpccConfig,
    TpccWorkload,
    YcsbConfig,
    YcsbWorkload,
)
from repro.workloads.tpcc import TABLES as TPCC_TABLES

#: Simulated seconds a migration plan may take before the run is declared hung.
MIGRATION_DEADLINE = 30.0
#: WAL records per CPU charge of the propagation send process: never charged.
#: At the default (64) the send process waits for that charge between moving
#: its cursor past a PREPARE record and handling it. While the charge queues
#: on a busy source, the MOCC hook takes the transaction for one of TS_unsync,
#: its shadow stays PREPARED for ever and the plan wedges (README, "Known
#: defect": about half the seeds of ``ycsb_balance``). Never charging closes
#: that window on every seed, at the price of 1 us of source CPU per WAL
#: record that the model no longer bills.
PUMP_BATCH_RECORDS = 1 << 30


class Run:
    """One repeat's live state, handed from ``setup`` to ``drive`` to the
    metric readers."""

    def __init__(self, cluster, label, tables, source, dest):
        self.cluster = cluster
        self.label = label  # metrics label of the foreground transactions
        self.tables = tables  # table name -> rows expected after the run
        self.source = source  # node the migration drains (CPU busy fraction)
        self.dest = dest
        self.plan = None
        self.capped_arrivals = 0  # open-loop arrivals refused by the batch cap
        self.abandoned = 0  # open-loop transactions given up after their retries
        self.peak_window = None  # (start, end) of the storm's 4x plateau


def _run_plan(run, batches, name):
    """Launch a Remus plan and advance the simulation until it has finished."""
    cluster = run.cluster
    run.plan = Migration.plan("remus", batches)
    proc = cluster.spawn(Migration.launch(cluster, run.plan), name=name)
    while not proc.finished and cluster.sim.now < MIGRATION_DEADLINE:
        cluster.run(until=min(MIGRATION_DEADLINE, cluster.sim.now + 0.5))
    if not proc.finished:
        raise AssertionError("{} did not finish by t={}s".format(name, MIGRATION_DEADLINE))
    proc.result()


def _finish(run, pool, settle):
    cluster = run.cluster
    end = cluster.sim.now + settle
    cluster.run(until=end)
    pool.stop()
    cluster.run(until=end + 0.5)


class YcsbBalance:
    """Fig. 8: skewed YCSB saturates node-1; Remus spreads its hot shards."""

    name = "ycsb_balance"
    why = (
        "short single-statement distributed txns, closed loop: the coordinator, 2PC, "
        "rpc and process-resume path does nearly all the work"
    )
    sizes = {
        "full": dict(
            num_nodes=6, cpu_per_node=2, num_tuples=12_000, num_shards=60,
            tuple_size=1024, clients=10, think=0.0, read_ratio=0.5,
            hotspot_fraction=0.9, migrate_fraction=0.8, group_size=1,
            cpu_read=2e-4, cpu_write=3e-4, scan=4e-4, warmup=2.0, settle=1.0,
        ),
        "quick": dict(
            num_nodes=6, cpu_per_node=2, num_tuples=1_200, num_shards=30,
            tuple_size=1024, clients=10, think=0.0, read_ratio=0.5,
            hotspot_fraction=0.9, migrate_fraction=0.8, group_size=1,
            cpu_read=2e-4, cpu_write=3e-4, scan=4e-4, warmup=0.8, settle=0.3,
        ),
    }

    def __init__(self, size="full"):
        self.p = self.sizes[size]

    def setup(self, seed):
        p = self.p
        costs = CostModel(
            snapshot_scan_per_tuple=p["scan"], cpu_read=p["cpu_read"], cpu_write=p["cpu_write"]
        )
        cluster = Cluster(
            ClusterConfig(
                pump_batch_records=PUMP_BATCH_RECORDS,
                num_nodes=p["num_nodes"], cpu_per_node=p["cpu_per_node"], costs=costs, seed=seed
            )
        )
        cluster.start_vacuum_daemons()
        workload = YcsbWorkload(
            cluster,
            YcsbConfig(
                num_tuples=p["num_tuples"], tuple_size=p["tuple_size"],
                num_shards=p["num_shards"], read_ratio=p["read_ratio"],
                distribution="hotspot", hotspot_fraction=p["hotspot_fraction"],
                num_clients=p["clients"], think_time=p["think"],
            ),
        )
        workload.create()
        workload.set_hot_node("node-1")
        run = Run(cluster, "ycsb", {"ycsb": p["num_tuples"]}, "node-1", "node-2")
        run.workload = workload
        run.pool = workload.make_clients()
        return run

    def drive(self, run):
        p = self.p
        cluster = run.cluster
        run.pool.start()
        cluster.run(until=p["warmup"])
        hot = run.workload.hot_shards
        to_move = hot[: int(len(hot) * p["migrate_fraction"])]
        targets = [n for n in cluster.node_ids() if n != run.source]
        batches = []
        for i in range(0, len(to_move), p["group_size"]):
            dest = targets[(i // p["group_size"]) % len(targets)]
            batches.append((to_move[i : i + p["group_size"]], run.source, dest))
        _run_plan(run, batches, "balancing")
        _finish(run, run.pool, p["settle"])


class TpccScaleOut:
    """Fig. 9: a sixth node joins and takes half of node-1's warehouses."""

    name = "tpcc_scaleout"
    why = (
        "long multi-statement read-write txns with think time: per-statement CPU grants "
        "and the snapshot cache matter, the network barely does"
    )
    sizes = {
        "full": dict(
            initial_nodes=5, cpu_per_node=1, warehouses=30, move=5, per_batch=1,
            districts=2, customers=12, items=30, clients_per_warehouse=1, think=0.016,
            op_cost=2.5e-4, scan=1e-3, warmup=1.5, settle=0.5,
        ),
        "quick": dict(
            initial_nodes=5, cpu_per_node=1, warehouses=12, move=2, per_batch=1,
            districts=2, customers=6, items=10, clients_per_warehouse=1, think=0.016,
            op_cost=2.5e-4, scan=1e-3, warmup=2.5, settle=0.3,
        ),
    }

    def __init__(self, size="full"):
        self.p = self.sizes[size]

    def setup(self, seed):
        p = self.p
        costs = CostModel(
            snapshot_scan_per_tuple=p["scan"], cpu_read=p["op_cost"], cpu_write=p["op_cost"]
        )
        cluster = Cluster(
            ClusterConfig(
                pump_batch_records=PUMP_BATCH_RECORDS,
                num_nodes=p["initial_nodes"], cpu_per_node=p["cpu_per_node"],
                costs=costs, seed=seed,
            )
        )
        cluster.start_vacuum_daemons()
        workload = TpccWorkload(
            cluster,
            TpccConfig(
                num_warehouses=p["warehouses"], districts_per_warehouse=p["districts"],
                customers_per_district=p["customers"], items=p["items"],
                client_think=p["think"],
            ),
        )
        # node-1 holds a double share of the warehouses (the paper's 160 vs 80).
        source = "node-1"
        others = [n for n in cluster.node_ids() if n != source]
        share = p["warehouses"] // (p["initial_nodes"] + 1)
        placement = {}
        for w in range(p["warehouses"]):
            placement[w] = source if w < 2 * share else others[(w - 2 * share) % len(others)]
        workload.create(placement_by_warehouse=placement)
        dest = "node-{}".format(p["initial_nodes"] + 1)
        # The insert-only tables grow with the run; the fixed ones must keep
        # exactly their loaded rows.
        tables = {
            "warehouse": p["warehouses"],
            "district": p["warehouses"] * p["districts"],
            "customer": p["warehouses"] * p["districts"] * p["customers"],
            "stock": p["warehouses"] * p["items"],
        }
        run = Run(cluster, "tpcc", tables, source, dest)
        run.pool = workload.make_clients(clients_per_warehouse=p["clients_per_warehouse"])
        return run

    def drive(self, run):
        p = self.p
        cluster = run.cluster
        run.pool.start()
        cluster.run(until=p["warmup"])
        cluster.add_node(run.dest)
        moving = [
            w
            for w in range(p["warehouses"])
            if cluster.shard_owner(ShardId("warehouse", w)) == run.source
        ][: p["move"]]
        batches = []
        for i in range(0, len(moving), p["per_batch"]):
            group = [
                ShardId(table, w)
                for w in moving[i : i + p["per_batch"]]
                for table in TPCC_TABLES
            ]
            batches.append((group, run.source, run.dest))
        _run_plan(run, batches, "scale-out")
        _finish(run, run.pool, p["settle"])


class HotMigration:
    """Fig. 10 shape, resized so that the data path dominates: one large
    shard with a small hot set moves across the contended inter-AZ trunk."""

    name = "hot_migration"
    why = (
        "one 100k-tuple shard moves under updates to 100 hot keys: heap scan, vacuum, "
        "long version chains, the pump, replay and the fair-share trunk do most of the work"
    )
    sizes = {
        "full": dict(
            num_nodes=3, pump_share=0.5, shard_tuples=100_000, tuple_size=1024,
            hot_tuples=100, clients=6, think=0.002, read_ratio=0.5,
            vacuum_interval=0.25, scan=2e-5, version_cost=1e-5, warmup=1.0, run_after=1.0,
        ),
        "quick": dict(
            num_nodes=3, pump_share=0.5, shard_tuples=10_000, tuple_size=1024,
            hot_tuples=100, clients=6, think=0.002, read_ratio=0.5,
            vacuum_interval=0.25, scan=2e-5, version_cost=1e-5, warmup=0.8, run_after=0.3,
        ),
    }

    def __init__(self, size="full"):
        self.p = self.sizes[size]

    def setup(self, seed):
        p = self.p
        node_ids = ["node-{}".format(i + 1) for i in range(p["num_nodes"])]
        topology = make_topology("multi_az", node_ids, TierProfiles().as_profiles())
        costs = CostModel(snapshot_scan_per_tuple=p["scan"], cpu_per_version=p["version_cost"])
        cluster = Cluster(
            ClusterConfig(
                pump_batch_records=PUMP_BATCH_RECORDS,
                num_nodes=p["num_nodes"], costs=costs, topology=topology,
                pump_share=p["pump_share"], vacuum_interval=p["vacuum_interval"],
                cpu_bin_width=0.5, seed=seed,
            )
        )
        cluster.create_table("hot", num_shards=1, tuple_size=p["tuple_size"])
        cluster.bulk_load("hot", [(k, {"f0": k}) for k in range(p["shard_tuples"])])
        cluster.start_vacuum_daemons()
        shard = cluster.tables["hot"].shard_ids()[0]
        source = cluster.shard_owner(shard)
        dest = node_ids[-1]  # the other AZ: the copy crosses the contended trunk
        run = Run(cluster, "hot", {"hot": p["shard_tuples"]}, source, dest)
        run.shard = shard

        def body_factory(rng):
            def factory():
                def body(session, txn):
                    key = rng.randint(0, p["hot_tuples"] - 1)
                    if rng.random() < p["read_ratio"]:
                        yield from session.read(txn, "hot", key)
                    else:
                        value = {"f0": rng.randint(0, 1 << 30)}
                        yield from session.update(txn, "hot", key, value)

                return body

            return factory

        run.pool = ClientPool(
            [
                ClosedLoopClient(
                    cluster,
                    node_ids[i % len(node_ids)],
                    body_factory(cluster.sim.rng("hot-client-{}".format(i))),
                    "hot",
                    think_time=p["think"],
                )
                for i in range(p["clients"])
            ]
        )
        return run

    def drive(self, run):
        p = self.p
        run.pool.start()
        run.cluster.run(until=p["warmup"])
        _run_plan(run, [([run.shard], run.source, run.dest)], "hot-migration")
        _finish(run, run.pool, p["run_after"])


class StormOpenLoop:
    """The ``repro bench --cluster`` storm at ten times its arrival rate: an
    open loop of Poisson arrivals over 100 nodes with a two-shard migration."""

    name = "storm_open_loop"
    why = (
        "open-loop Poisson arrivals over 100 nodes in 10 AZs: hashing, topology routing, "
        "cache-refresh broadcasts and the batch arrival engine; migration and storage idle"
    )
    sizes = {
        "full": dict(
            num_nodes=100, num_groups=10, population=1_000_000, rate_per_client=0.002,
            duration=10.0, tick=0.05, batch_cap=8192, num_tuples=20_000, num_shards=200,
            read_ratio=0.8, zipf_theta=0.99, drift=50.0, scan=5e-3,
            ramps=((0.0, 1.0), (5.0, 1.0), (6.0, 4.0), (8.0, 4.0), (9.0, 1.0)),
            peak=(6.0, 8.0), migrate_shards=2, migrate_at=3.0, max_retries=10,
        ),
        "quick": dict(
            num_nodes=20, num_groups=4, population=100_000, rate_per_client=0.02,
            duration=1.5, tick=0.05, batch_cap=8192, num_tuples=2_000, num_shards=40,
            read_ratio=0.8, zipf_theta=0.99, drift=50.0, scan=5e-3,
            ramps=((0.0, 1.0), (0.9, 1.0), (1.1, 2.0), (1.3, 2.0), (1.4, 1.0)),
            peak=(1.1, 1.3), migrate_shards=2, migrate_at=0.6, max_retries=10,
        ),
    }

    def __init__(self, size="full"):
        self.p = self.sizes[size]

    def setup(self, seed):
        p = self.p
        node_ids = ["node-{}".format(i + 1) for i in range(p["num_nodes"])]
        base, extra = divmod(len(node_ids), p["num_groups"])
        azs, cursor = {}, 0
        for index in range(p["num_groups"]):
            count = base + (1 if index < extra else 0)
            azs["az-{}".format(index + 1)] = {"rack-1": node_ids[cursor : cursor + count]}
            cursor += count
        topology = Topology.build(
            {"region-1": azs}, TierProfiles().as_profiles(), contended=False, name="storm"
        )
        cluster = Cluster(
            ClusterConfig(
                pump_batch_records=PUMP_BATCH_RECORDS,
                num_nodes=p["num_nodes"], topology=topology, storm_population=p["population"],
                storm_arrival_tick=p["tick"], storm_batch_cap=p["batch_cap"],
                costs=CostModel(snapshot_scan_per_tuple=p["scan"]), seed=seed,
            )
        )
        workload = PopulationWorkload(
            cluster,
            PopulationConfig(
                rate_per_client=p["rate_per_client"], num_tuples=p["num_tuples"],
                num_shards=p["num_shards"], read_ratio=p["read_ratio"],
                zipf_theta=p["zipf_theta"], drift_keys_per_sec=p["drift"], ramps=p["ramps"],
                max_retries=p["max_retries"],
            ),
        )
        workload.create()
        run = Run(cluster, "storm", {"storm": p["num_tuples"]}, "node-1", "node-2")
        run.workload = workload
        run.peak_window = p["peak"]
        return run

    def drive(self, run):
        p = self.p
        cluster = run.cluster

        def migrate():
            yield p["migrate_at"]
            shards = cluster.shards_on_node(run.source, table="storm")[: p["migrate_shards"]]
            run.plan = Migration.plan("remus", [(shards, run.source, run.dest)])
            yield from Migration.launch(cluster, run.plan)

        # The batch arrival engine on the plain single loop: one dispatcher
        # walks the schedule; a simulated generator cannot run late.
        with fastpath.overridden(batch_workload=True):
            proc = cluster.spawn(migrate(), name="storm-migration")
            run.workload.start(until=p["duration"])
            cluster.run(until=p["duration"])
            run.workload.stop()
            # Let transactions that arrived just before the end complete.
            cluster.run(until=p["duration"] + 0.5)
        proc.result()
        run.capped_arrivals = run.workload.capped_arrivals
        run.abandoned = run.workload.aborted  # gave up after max_retries


SCENARIOS = {cls.name: cls for cls in (YcsbBalance, TpccScaleOut, HotMigration, StormOpenLoop)}
