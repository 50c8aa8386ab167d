"""Vectorized population workload: N clients as batched arrival events.

The per-client layer (:mod:`repro.workloads.client`) pays one generator
process per simulated client — fine for tens of clients, hopeless for the
storm scales the ROADMAP targets (1M+ clients on 100+ nodes). This module
models the *population* instead:

- an :class:`ArrivalSchedule` draws, per ``tick`` of virtual time, a Poisson
  arrival count for the whole population (mean = population x per-client
  rate x tick x the flash-crowd ramp multiplier), then materializes that
  batch in one pass: sorted strictly-increasing arrival instants, uniform
  client ids, Zipf key ranks drawn vectorized
  (:meth:`~repro.workloads.zipf.ZipfGenerator.sample_many`) with hot-key
  drift applied as a rank rotation, read/write ops and write values;
- a :class:`PopulationWorkload` executes the schedule in one of two modes
  sharing every downstream code path (same sessions, same
  :func:`~repro.workloads.client.run_transaction` runner, same metrics
  records):

  * **per-client** (``fastpath.batch_workload`` off, the default): the
    schedule is partitioned by client and one pacer process per client
    sleeps to each of its arrivals — the legacy shape, O(population)
    processes;
  * **batch** (flag on): a single dispatcher walks the merged schedule
    lazily and spawns one runner per arrival — O(arrivals) work, zero
    per-client state.

Byte-identical timelines across the modes, by construction: all randomness
is consumed while *generating* the schedule (one labelled stream, identical
draw order in both modes), arrival instants are globally unique and both
modes wake at exact absolute instants via the :class:`~repro.sim.events.At`
waitable — so the kernel dispatches the same runners at the same times in
the same order either way. ``tests/test_fastpath_equivalence.py`` pins the
equivalence at small N.

Capacity is never silently truncated: arrivals beyond ``batch_cap`` in one
tick are dropped *and counted* (:attr:`ArrivalSchedule.capped_arrivals`),
and the end-to-end benchmark reports the counter.
"""

from dataclasses import dataclass, field

from repro import fastpath
from repro.sim.events import At
from repro.workloads.client import run_transaction
from repro.workloads.zipf import ZipfGenerator

TABLE = "storm"

#: RNG stream label for the population arrival schedule. One stream drives
#: both execution modes, so their draw sequences are identical by design.
ARRIVALS_STREAM = "storm-arrivals"


@dataclass
class PopulationConfig:
    """Knobs of one simulated client population.

    ``population`` / ``tick`` / ``batch_cap`` default to ``None`` meaning
    "take the cluster's :class:`~repro.config.ClusterConfig` storm knobs"
    (``storm_population`` / ``storm_arrival_tick`` / ``storm_batch_cap``).

    ``ramps`` is the flash-crowd schedule: ``(time, multiplier)``
    breakpoints, linearly interpolated, scaling the population's aggregate
    arrival rate over virtual time (empty = constant rate).
    ``drift_keys_per_sec`` rotates the Zipf rank → key mapping over time, so
    the hot keyset slides through the keyspace (hot-key drift).
    """

    population: int | None = None
    rate_per_client: float = 0.02  # transactions per second per client
    tick: float | None = None
    batch_cap: int | None = None
    num_tuples: int = 10_000
    tuple_size: int = 64
    num_shards: int = 36
    read_ratio: float = 0.5
    zipf_theta: float = 0.99
    drift_keys_per_sec: float = 0.0
    ramps: tuple = ()
    label: str = "storm"
    max_retries: int = 3
    start_at: float = 0.0


@dataclass
class TickBatch:
    """One tick's arrivals, parallel lists (the vectorized unit of work)."""

    times: list = field(default_factory=list)
    clients: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def __len__(self):
        return len(self.times)


class ArrivalSchedule:
    """Lazy per-tick arrival generator over one seeded RNG stream.

    Deterministic: the draw sequence per tick is fixed (count, offsets,
    keys, then per-arrival client/op/value), so two schedules with the same
    stream and parameters produce identical batches regardless of how the
    consumer paces itself.
    """

    def __init__(self, rng, config, population, tick, batch_cap):
        self.rng = rng
        self.config = config
        self.population = population
        self.tick = tick
        self.batch_cap = batch_cap
        self.zipf = ZipfGenerator(config.num_tuples, config.zipf_theta)
        self.capped_arrivals = 0
        self.generated_arrivals = 0
        self._last_time = config.start_at

    def rate_multiplier(self, t):
        """Flash-crowd ramp: piecewise-linear interpolation of breakpoints."""
        points = self.config.ramps
        if not points:
            return 1.0
        if t <= points[0][0]:
            return points[0][1]
        for (t0, m0), (t1, m1) in zip(points, points[1:]):
            if t <= t1:
                span = t1 - t0
                if span <= 0.0:
                    return m1
                return m0 + (m1 - m0) * (t - t0) / span
        return points[-1][1]

    def ticks(self, until):
        """Yield :class:`TickBatch` per tick with arrivals strictly below
        ``until``. Arrival instants are strictly increasing across the whole
        schedule (duplicates nudged by an epsilon), which is what lets both
        execution modes dispatch in pure time order."""
        cfg = self.config
        rng = self.rng
        tick = self.tick
        epsilon = tick * 1e-9
        mean_base = self.population * cfg.rate_per_client * tick
        keyspace = cfg.num_tuples
        drift = cfg.drift_keys_per_sec
        read_ratio = cfg.read_ratio
        population = self.population
        random = rng.random
        randint = rng.randint
        t0 = cfg.start_at
        while t0 < until:
            count = rng.poisson(mean_base * self.rate_multiplier(t0))
            if count > self.batch_cap:
                self.capped_arrivals += count - self.batch_cap
                count = self.batch_cap
            batch = TickBatch()
            if count:
                offsets = sorted(random() for _ in range(count))
                ranks = self.zipf.sample_many(rng, count)
                shift = int(drift * t0) if drift else 0
                times = batch.times
                clients = batch.clients
                keys = batch.keys
                reads = batch.reads
                values = batch.values
                last = self._last_time
                for i in range(count):
                    t = t0 + offsets[i] * tick
                    if t <= last:
                        t = last + epsilon
                    last = t
                    if t >= until:
                        break
                    times.append(t)
                    clients.append(randint(0, population - 1))
                    keys.append((ranks[i] + shift) % keyspace if shift else ranks[i])
                    is_read = random() < read_ratio
                    reads.append(is_read)
                    values.append(None if is_read else randint(0, 1 << 30))
                self._last_time = last
                self.generated_arrivals += len(times)
            yield batch
            t0 += tick


class PopulationWorkload:
    """Runs a :class:`PopulationConfig` against a cluster, in either mode.

    Usage mirrors :class:`~repro.workloads.ycsb.YcsbWorkload`::

        workload = PopulationWorkload(cluster, PopulationConfig(...))
        workload.create()
        workload.start(until=30.0)
        cluster.run(until=30.0)
        workload.stop()
    """

    def __init__(self, cluster, config=None):
        self.cluster = cluster
        self.config = config or PopulationConfig()
        cluster_cfg = cluster.config
        self.population = (
            self.config.population
            if self.config.population is not None
            else cluster_cfg.storm_population
        )
        self.tick = (
            self.config.tick
            if self.config.tick is not None
            else cluster_cfg.storm_arrival_tick
        )
        self.batch_cap = (
            self.config.batch_cap
            if self.config.batch_cap is not None
            else cluster_cfg.storm_batch_cap
        )
        self.schema = None
        self.schedule = None
        self.mode = None
        self.committed = 0
        self.aborted = 0
        self.dispatched = 0
        self._running = False
        self._node_ids = cluster.node_ids()
        self._sessions = {nid: cluster.session(nid) for nid in self._node_ids}

    # ------------------------------------------------------------------
    def create(self):
        cfg = self.config
        self.schema = self.cluster.create_table(
            TABLE, num_shards=cfg.num_shards, tuple_size=cfg.tuple_size
        )
        rows = [(key, {"f0": key}) for key in range(cfg.num_tuples)]
        self.cluster.bulk_load(TABLE, rows)
        return self.schema

    def home_node(self, client):
        """A client's coordinator node (round-robin over the cluster)."""
        return self._node_ids[client % len(self._node_ids)]

    # ------------------------------------------------------------------
    def start(self, until):
        """Launch the drivers for arrivals in ``[start_at, until)``.

        Reads ``fastpath.batch_workload`` once: off = one pacer process per
        client (the legacy shape), on = one batched dispatcher.
        """
        if self._running:
            raise RuntimeError("population workload already started")
        self._running = True
        self.schedule = ArrivalSchedule(
            self.cluster.sim.rng(ARRIVALS_STREAM),
            self.config,
            self.population,
            self.tick,
            self.batch_cap,
        )
        if fastpath.batch_workload:
            self.mode = "batch"
            self.cluster.spawn(self._dispatch(until), name="storm-dispatch")
        else:
            self.mode = "per_client"
            self._start_per_client(until)

    def stop(self):
        self._running = False

    @property
    def capped_arrivals(self):
        return self.schedule.capped_arrivals if self.schedule else 0

    # ------------------------------------------------------------------
    # Batch mode: one dispatcher walking the merged schedule lazily.
    # ------------------------------------------------------------------
    def _dispatch(self, until):
        spawn_runner = self._spawn_runner
        for batch in self.schedule.ticks(until):
            times = batch.times
            clients = batch.clients
            keys = batch.keys
            reads = batch.reads
            values = batch.values
            for i in range(len(times)):
                if not self._running:
                    return
                yield At(times[i])
                spawn_runner(times[i], clients[i], keys[i], reads[i], values[i])

    # ------------------------------------------------------------------
    # Per-client mode: the legacy shape — every client is a process.
    # ------------------------------------------------------------------
    def _start_per_client(self, until):
        # Materialize the full schedule and deal it out by client. The
        # memory and process count here scale with the population — that is
        # the cost the batch mode exists to remove, measured honestly.
        per_client = {}
        for batch in self.schedule.ticks(until):
            for i in range(len(batch.times)):
                per_client.setdefault(batch.clients[i], []).append(
                    (batch.times[i], batch.keys[i], batch.reads[i], batch.values[i])
                )
        spawn = self.cluster.spawn
        for client in range(self.population):
            arrivals = per_client.get(client)
            spawn(self._pace(client, arrivals), name="storm-client")

    def _pace(self, client, arrivals):
        if not arrivals:
            return
            yield  # pragma: no cover - makes this function a generator
        spawn_runner = self._spawn_runner
        for time, key, is_read, value in arrivals:
            if not self._running:
                return
            yield At(time)
            spawn_runner(time, client, key, is_read, value)

    # ------------------------------------------------------------------
    # Shared runner: identical in both modes, so the timelines can't differ.
    # ------------------------------------------------------------------
    def _spawn_runner(self, time, client, key, is_read, value):
        self.dispatched += 1
        session = self._sessions[self._node_ids[client % len(self._node_ids)]]
        runner = self._run_one(session, time, key, is_read, value)
        self.cluster.sim.spawn(runner, name="storm-txn")

    def _run_one(self, session, arrival_time, key, is_read, value):
        label = self.config.label

        def body(session, txn):
            if is_read:
                yield from session.read(txn, TABLE, key)
            else:
                yield from session.update(txn, TABLE, key, {"f0": value})

        committed, _error = yield from run_transaction(session, body, label=label)
        retries = 0
        while not committed and self._running and retries < self.config.max_retries:
            retries += 1
            committed, _error = yield from run_transaction(
                session, body, label=label, begin_time=arrival_time
            )
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
