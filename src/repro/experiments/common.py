"""Shared experiment plumbing: cluster construction, runs, result objects."""

from dataclasses import dataclass, field, fields

from repro.cluster import Cluster
from repro.config import ClusterConfig, TierProfiles
from repro.faults import InvariantChecker
from repro.migration import Migration
from repro.sim.network import MIGRATION_CLASS
from repro.sim.topology import Topology, make_topology
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

# The order the paper's figures present the approaches in.
APPROACH_ORDER = ("remus", "lock_and_abort", "wait_and_remaster", "squall")


def _jsonify(value):
    """Recursively reduce a result value to JSON-native types.

    Tuples become lists, dict keys become strings, and stats objects that
    know how to snapshot themselves (``to_dict``) are snapshotted; anything
    else non-native falls back to ``repr`` so a payload never fails to
    serialize.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return _jsonify(to_dict())
    return repr(value)


@dataclass
class ExperimentResult:
    """Everything a benchmark needs to render one approach's run."""

    approach: str
    scenario: str
    throughput: list = field(default_factory=list)  # (t, txns/s) for YCSB/TPC-C
    batch_throughput: list = field(default_factory=list)  # (t, tuples/s)
    migration_window: tuple = (None, None)
    workload_window: tuple = (None, None)  # batch/analytical start-end marks
    aborts: dict = field(default_factory=dict)  # kind -> count
    abort_ratio: float = 0.0
    downtime_longest: float = 0.0
    downtime_total: float = 0.0
    avg_latency_before: float = 0.0
    avg_latency_during: float = 0.0
    avg_throughput_before: float = 0.0
    avg_throughput_during: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def latency_increase(self):
        return max(0.0, self.avg_latency_during - self.avg_latency_before)

    def to_dict(self):
        """Stable JSON-safe payload of the whole result.

        The contract: ``to_dict`` is deterministic for a deterministic run
        (the seed-sweep harness compares serial and parallel executions
        byte-for-byte on the canonical JSON encoding of this payload), and
        ``from_dict(d).to_dict() == d`` round-trips exactly. Rich objects in
        ``extra`` (e.g. ``plan_stats``) are flattened to plain dicts.
        """
        return {f.name: _jsonify(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a result from :meth:`to_dict` output.

        Values stay in their JSON-native form (windows and series are
        lists; ``extra["plan_stats"]`` is a plain dict, not a
        :class:`~repro.migration.MigrationStats`).
        """
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError("unknown ExperimentResult fields: {}".format(sorted(unknown)))
        kwargs = dict(payload)
        for window in ("migration_window", "workload_window"):
            if window in kwargs and isinstance(kwargs[window], list):
                kwargs[window] = tuple(kwargs[window])
        return cls(**kwargs)


def build_cluster(
    num_nodes, approach, seed=0, topology=None, pump_share=None, **config_kwargs
):
    """A cluster configured for ``approach`` (Squall needs shard locks).

    ``topology`` is either a ready :class:`~repro.sim.topology.Topology` or
    a preset name (``single`` / ``multi_az`` / ``geo``) instantiated over
    the cluster's node ids with the config's tier profiles; ``None`` keeps
    the flat single-rack network. ``pump_share`` caps the migration traffic
    class at that fraction of any contended trunk (``None``/1.0 = plain
    fair share).

    Vacuum daemons run as they would in PostgreSQL — without them version
    chains grow without bound and every read slows down over time.
    """
    tiers = config_kwargs.get("tiers") or TierProfiles()
    if topology is not None and not isinstance(topology, Topology):
        node_ids = ["node-{}".format(i + 1) for i in range(num_nodes)]
        topology = make_topology(topology, node_ids, tiers.as_profiles())
    if topology is not None:
        config_kwargs["topology"] = topology
    if pump_share is not None:
        config_kwargs["pump_share"] = pump_share
    config = ClusterConfig(num_nodes=num_nodes, seed=seed, **config_kwargs)
    cluster = Cluster(config)
    if approach == "squall":
        cluster.cc_mode = "shard_lock"
    cluster.start_vacuum_daemons()
    return cluster


def note_topology(result, cluster):
    """Record the run's network shape in ``result.extra`` (round-trips
    through ``to_dict``/``from_dict`` with the rest of the payload)."""
    topology = cluster.network.topology
    result.extra["topology"] = topology.name
    result.extra["topology_contended"] = topology.contended
    result.extra["pump_share"] = cluster.network.class_cap(MIGRATION_CLASS)
    return result


def build_ycsb(cluster, **ycsb_kwargs):
    workload = YcsbWorkload(cluster, YcsbConfig(**ycsb_kwargs))
    workload.create()
    return workload


def approach_class(approach):
    """Approach name -> migration class (delegates to the unified factory)."""
    return Migration.resolve(approach)


def migration_window(metrics):
    return metrics.first_mark("migration_start"), metrics.last_mark("migration_end")


def summarize(result, metrics, label, end_time, weighted_label=None, bin_width=1.0):
    """Fill the common measurement fields of ``result`` from the metrics."""
    start_mig, end_mig = migration_window(metrics)
    result.migration_window = (start_mig, end_mig)
    result.throughput = metrics.throughput_series(
        label=label, bin_width=bin_width, end=end_time
    )
    if weighted_label:
        result.batch_throughput = metrics.throughput_series(
            label=weighted_label, bin_width=1.0, end=end_time, weighted=True
        )
    result.aborts = dict(metrics.abort_kinds())
    if start_mig is not None and end_mig is not None:
        result.avg_latency_before = metrics.average_latency(label=label, end=start_mig)
        result.avg_latency_during = metrics.average_latency(
            label=label, start=start_mig, end=end_mig
        )
        result.avg_throughput_before = metrics.average_throughput(label=label, end=start_mig)
        result.avg_throughput_during = metrics.average_throughput(
            label=label, start=start_mig, end=end_mig
        )
        result.downtime_longest, result.downtime_total = metrics.downtime(
            label=label, start=start_mig, end=end_mig
        )
    return result


def run_until_finished(cluster, proc, deadline, step=0.5, what="migration plan"):
    """Advance the sim in steps until ``proc`` completes (or the deadline)."""
    while not proc.finished and cluster.sim.now < deadline:
        cluster.run(until=min(deadline, cluster.sim.now + step))
    if not proc.finished:
        raise AssertionError("{} did not finish by t={}s".format(what, deadline))
    return proc.result()


def check_no_crashes(cluster, allow_prefixes=()):
    """Raise if any detached simulated process died with an exception."""
    crashes = [
        (proc.name, exc)
        for proc, exc in cluster.sim.failed_processes
        if not any(proc.name.startswith(p) for p in allow_prefixes)
    ]
    if crashes:
        name, exc = crashes[0]
        raise AssertionError(
            "{} background process(es) crashed; first: {} -> {!r}".format(
                len(crashes), name, exc
            )
        ) from exc


def check_run_ok(cluster):
    """End of a registry run: no background process crashed and one
    invariant sweep finds nothing. Both only read state, so neither adds a
    kernel event or touches the result payload."""
    check_no_crashes(cluster)
    checker = InvariantChecker(cluster)
    checker.check_once()
    checker.assert_ok()
