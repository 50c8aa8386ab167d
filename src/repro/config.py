"""Cost model and cluster configuration.

All virtual-time costs live here so experiments can scale them coherently.
Defaults are loosely calibrated to the paper's testbed (64 vCPU nodes, NVMe
WAL, 10 Gbps network): absolute throughput numbers are simulator-scale, but
the *ratios* between CPU work, WAL flushes, network hops and pull I/O — which
determine every qualitative result in the evaluation — are preserved.
"""

from dataclasses import dataclass, field

from repro.sim.topology import LinkProfile, Topology

# ----------------------------------------------------------------------
# Lint scoping (simlint / simrace)
#
# One declarative table for where each rule applies, consumed by
# ``repro.analysis.engine.default_config``. Patterns are fnmatch globs
# against posix paths relative to the lint root (``*/`` tolerant). An empty
# / missing "include" means "everywhere under the linted roots"; "exclude"
# always wins. Rationale for the exemptions:
#
# - The DES kernel and the RNG module are the only places allowed to touch
#   the primitives they encapsulate (virtual time / seeding) — exempt from
#   SIM001 / SIM002 respectively.
# - The seed sweep times each cell in host wall-clock seconds for its
#   report and never feeds that back into the simulation — exempt from
#   SIM001 only.
# - The analysis package lints everything but itself.
# - The protocol rules (SIM004 raw sends; SIM101–SIM104 yield-point races)
#   apply to protocol code only: the RPC layer and the network model
#   legitimately call raw ``send`` and juggle their own state across
#   yields, and live outside these paths.
# ----------------------------------------------------------------------
_LINT_SELF = ("*/analysis/*",)
_WALL_CLOCK_OK = (
    "*/sim/kernel.py",
    "*/experiments/sweep.py",
)
# The batch workload engine is protocol-shaped generator code (dispatchers
# and runners crossing yields), so the yield-point race rules cover it too.
_PROTOCOL_PATHS = (
    "*/txn/*",
    "*/migration/*",
    "*/cluster/*",
    "*/faults/*",
    "*/workloads/batch.py",
)

#: rule code -> {"include": globs, "exclude": globs} (either key optional).
LINT_RULE_SCOPES: dict[str, dict[str, tuple[str, ...]]] = {
    "SIM001": {"exclude": _WALL_CLOCK_OK + _LINT_SELF},
    "SIM002": {"exclude": ("*/sim/rng.py",) + _LINT_SELF},
    "SIM003": {"exclude": _LINT_SELF},
    "SIM004": {"include": _PROTOCOL_PATHS},
    "SIM005": {"exclude": _LINT_SELF},
    "SIM006": {"exclude": _LINT_SELF},
    "SIM101": {"include": _PROTOCOL_PATHS},
    "SIM102": {"include": _PROTOCOL_PATHS},
    "SIM103": {"include": _PROTOCOL_PATHS},
    "SIM104": {"include": _PROTOCOL_PATHS},
}


# Virtual-time costs (seconds) that no scenario varies.
CPU_APPLY = 18e-6  # a follower applying one replicated change record
CPU_ROUTE = 1e-6  # shard-map cache lookup
CPU_SHARDMAP_READ = 10e-6  # MVCC read of the shard map table
WAL_FLUSH = 80e-6  # synchronous WAL flush (commit / prepare)
PULL_CHUNK_LATENCY = 0.02  # Squall: fetch + store one 8 MB chunk
CLIENT_OVERHEAD = 10e-6  # per-statement client/parse overhead
SPILL_RELOAD_PER_BATCH = 0.5e-3  # disk reload latency per 1k records


@dataclass
class CostModel:
    """Virtual-time costs (seconds) for primitive database operations that
    scenarios scale."""

    cpu_read: float = 15e-6  # MVCC point read, first version
    cpu_per_version: float = 3e-6  # each extra chain version traversed
    cpu_write: float = 25e-6  # insert/update/delete executed by a txn
    snapshot_scan_per_tuple: float = 4e-6  # snapshot copy scan + install
    cpu_propagate: float = 1e-6  # send-process CPU per WAL record scanned
    spill_threshold: int = 5000  # records before an update cache spills (§3.3)


@dataclass
class TierProfiles:
    """Per-tier link profiles for topology-aware networks.

    Defaults are loosely calibrated to a public-cloud deployment: a
    non-blocking 10 Gbps rack switch, a 5 Gbps rack uplink, a ~1 ms / 2 Gbps
    inter-AZ trunk and a ~30 ms / 500 Mbps cross-region path. Like the
    :class:`CostModel`, the absolute numbers are simulator-scale — what the
    scenarios depend on is the *ordering* (each wider tier is slower and
    narrower) and the fact that the trunk, not the endpoint, is the scarce
    resource.
    """

    rack_latency: float = 0.0002
    rack_bandwidth: float = 1.25e9  # 10 Gbps intra-rack
    az_latency: float = 0.0005
    az_bandwidth: float = 6.25e8  # 5 Gbps rack uplink (cross-rack, same AZ)
    region_latency: float = 0.001
    region_bandwidth: float = 2.5e8  # 2 Gbps inter-AZ trunk (same region)
    geo_latency: float = 0.03
    geo_bandwidth: float = 6.25e7  # 500 Mbps cross-region

    def as_profiles(self) -> dict:
        """Tier name -> :class:`LinkProfile`, as the Topology API expects."""
        return {
            "rack": LinkProfile(self.rack_latency, self.rack_bandwidth),
            "az": LinkProfile(self.az_latency, self.az_bandwidth),
            "region": LinkProfile(self.region_latency, self.region_bandwidth),
            "geo": LinkProfile(self.geo_latency, self.geo_bandwidth),
        }


@dataclass
class ClusterConfig:
    """Topology and engine configuration for a simulated cluster."""

    num_nodes: int = 6
    cpu_per_node: int = 8  # parallel execution slots per elastic node
    timestamp_scheme: str = "dts"  # "dts" (default, as in §4.1) or "gts"
    clock_skew: float = 0.0  # max absolute physical skew per node (DTS)
    replay_parallelism: int = 18  # §4.1: parallel apply threads
    costs: CostModel = field(default_factory=CostModel)
    # Network topology, the network's only description. ``None`` is the
    # degenerate case: one rack priced by the ``tiers`` rack profile, with
    # every message priced independently (uncontended). A multi-tier
    # :class:`~repro.sim.topology.Topology` (e.g. from ``make_topology``
    # with the ``tiers`` profiles) switches the network to contended
    # fair-share trunks; an uncontended one still prices every message at
    # its rack profile.
    topology: Topology | None = None
    tiers: TierProfiles = field(default_factory=TierProfiles)
    # Migration's share of any contended trunk (the "throttled pump" knob):
    # the copy/propagation traffic class is capped at this fraction of link
    # bandwidth when foreground transfers compete. 1.0 = plain fair share.
    pump_share: float = 1.0
    vacuum_interval: float = 1.0  # seconds between vacuum passes
    cpu_bin_width: float = 1.0  # CPU usage accounting bin (Figure 10)
    # WAL records per CPU charge of a WAL tailer: both the migration send
    # process and a replication group's leader pump (§3.3).
    pump_batch_records: int = 64
    # Storm-scale workload knobs (repro.workloads.batch). The population
    # arrival generator models ``storm_population`` clients as Poisson
    # arrival batches drawn once per ``storm_arrival_tick`` seconds of
    # virtual time, with at most ``storm_batch_cap`` arrivals admitted per
    # tick (overflow is counted, never silently dropped). A set field of the
    # workload's ``PopulationConfig`` overrides its knob.
    storm_population: int = 10_000
    storm_arrival_tick: float = 0.05
    storm_batch_cap: int = 8192
    seed: int = 0
