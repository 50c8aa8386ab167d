"""Span shim: times the calls into each layer from outside the program.

``Tracer.install()`` replaces the public entry points listed in ``HOOKS`` by
class-attribute (or module-attribute) shims and wraps every generator handed
to ``Simulator.spawn``. A shim pushes a frame on the span stack, runs the
original and pops it; a generator gets a driver that does the same around
*each resumption*, so time a process spends suspended is never charged to
it. From the stack come, per entry point, call and resumption counts and
inclusive and self nanoseconds (self = duration minus the part child spans
cover). A layer's self time is the sum over its entry points; the root
span's self time is whatever ran outside every shim.

Full span records (name, layer, host start/end, simulated start/end, parent,
transaction) are kept for a deterministic 1-in-``SAMPLE_EVERY`` sample of
``run_transaction`` calls and for every span of the migration layer, up to
``MAX_RECORDS``.

A hook whose target no longer exists is skipped and listed in
``Tracer.missing``: the benchmark must keep running, unedited, on later
commits that rename or flatten these entry points.
"""

import importlib
import inspect
import sys
from time import perf_counter_ns

#: module path fragment -> layer, first match wins (``layer_of_file``).
LAYER_OF_PATH = (
    ("repro/sim/resources", "cpu"),
    ("repro/sim/network", "network"),
    ("repro/sim/rpc", "network"),
    ("repro/sim/topology", "network"),
    ("repro/sim/", "kernel"),
    ("repro/storage/wal", "wal"),
    ("repro/storage/", "heap"),
    ("repro/txn/", "txn"),
    ("repro/cluster/", "coord"),
    ("repro/migration/", "migration"),
    ("repro/workloads/", "workload"),
    ("repro/metrics/", "metrics"),
)

LAYERS = ("kernel", "cpu", "network", "heap", "wal", "txn", "coord", "migration", "workload")
SAMPLE_EVERY = 64
MAX_RECORDS = 100_000


def layer_of_file(filename):
    path = filename.replace("\\", "/")
    for fragment, layer in LAYER_OF_PATH:
        if fragment in path:
            return layer
    return "run"


def _probe_migration_bytes(entry, args, kwargs):
    # Network.send(self, src, dst, size=0, traffic_class=None)
    traffic_class = kwargs.get("traffic_class", args[4] if len(args) > 4 else None)
    if traffic_class == "migration":
        entry.extra += kwargs.get("size", args[3] if len(args) > 3 else 0)


def _probe_distributed(entry, args, kwargs):
    # Session.commit(self, txn): committed through 2PC over several nodes?
    txn = kwargs.get("txn", args[1] if len(args) > 1 else None)
    if txn is not None and len(getattr(txn, "participants", ())) > 1:
        entry.extra += 1


def _probe_mark(entry, args, kwargs):
    # MetricsCollector.mark(self, name): host instant of each named mark.
    name = kwargs.get("name", args[1] if len(args) > 1 else None)
    entry.marks.append((name, perf_counter_ns()))


#: (module, class or None, attribute, layer, options)
HOOKS = (
    ("repro.sim.kernel", "Simulator", "schedule", "kernel", {}),
    ("repro.sim.kernel", "Simulator", "schedule_at", "kernel", {}),
    ("repro.sim.kernel", "Simulator", "run", "kernel", {}),
    ("repro.sim.resources", "CpuResource", "use", "cpu", {}),
    ("repro.sim.resources", "CpuResource", "use_run", "cpu", {}),
    ("repro.sim.network", "Network", "send", "network", {"probe": _probe_migration_bytes}),
    ("repro.sim.network", "Network", "roundtrip", "network", {}),
    ("repro.sim.network", "Network", "broadcast", "network", {}),
    ("repro.cluster.cluster", "Cluster", "rpc_send", "network", {}),
    ("repro.cluster.cluster", "Cluster", "rpc_broadcast", "network", {}),
    ("repro.storage.heap", "HeapTable", "visible_version", "heap", {}),
    ("repro.storage.heap", "HeapTable", "read", "heap", {}),
    ("repro.storage.heap", "HeapTable", "put_version", "heap", {}),
    ("repro.storage.heap", "HeapTable", "scan_at", "heap", {}),
    ("repro.storage.heap", "HeapTable", "vacuum", "heap", {}),
    ("repro.storage.wal", "Wal", "append", "wal", {}),
    ("repro.txn.manager", "NodeTxnManager", "flush_wal", "wal", {}),
    ("repro.txn.manager", "NodeTxnManager", "read", "txn", {}),
    ("repro.txn.manager", "NodeTxnManager", "update", "txn", {}),
    ("repro.txn.manager", "NodeTxnManager", "insert", "txn", {}),
    ("repro.txn.manager", "NodeTxnManager", "delete", "txn", {}),
    ("repro.txn.manager", "NodeTxnManager", "lock_row", "txn", {}),
    ("repro.txn.manager", "NodeTxnManager", "local_prepare", "txn", {}),
    ("repro.txn.manager", "NodeTxnManager", "local_commit", "txn", {}),
    ("repro.txn.manager", "NodeTxnManager", "local_abort", "txn", {}),
    ("repro.txn.locks", "RowLockTable", "acquire", "txn", {}),
    ("repro.txn.locks", "RowLockTable", "try_acquire", "txn", {}),
    ("repro.cluster.coordinator", "Session", "begin", "coord", {}),
    ("repro.cluster.coordinator", "Session", "commit", "coord", {"probe": _probe_distributed}),
    ("repro.cluster.coordinator", "Session", "abort", "coord", {}),
    ("repro.cluster.coordinator", "Session", "read", "coord", {}),
    ("repro.cluster.coordinator", "Session", "update", "coord", {}),
    ("repro.cluster.coordinator", "Session", "insert", "coord", {}),
    ("repro.cluster.coordinator", "Session", "delete", "coord", {}),
    ("repro.cluster.coordinator", "Session", "scan_table", "coord", {}),
    ("repro.migration.remus", "RemusMigration", "run", "migration", {}),
    ("repro.migration.snapshot_copy", None, "copy_shard_snapshot", "migration", {}),
    ("repro.migration.propagation", "Propagation", "start", "migration", {}),
    ("repro.migration.propagation", "Propagation", "drain", "migration", {}),
    ("repro.migration.propagation", "Propagation", "wait_applied_through", "migration", {}),
    ("repro.migration.mocc", "MoccCoordinator", "after_prepare", "migration", {}),
    ("repro.workloads.client", None, "run_transaction", "workload", {"txn_root": True}),
    ("repro.metrics.collector", "MetricsCollector", "mark", "metrics", {"probe": _probe_mark}),
)


class Entry:
    """Counts and times of one entry point."""

    __slots__ = (
        "name", "layer", "calls", "resumes", "incl_ns", "self_ns", "extra", "marks",
        "probe", "txn_root", "always",
    )

    def __init__(self, name, layer, probe=None, txn_root=False):
        self.name = name
        self.layer = layer
        self.probe = probe
        self.txn_root = txn_root
        self.always = layer == "migration"  # every migration span is recorded
        self.reset()

    def reset(self):
        self.calls = 0
        self.resumes = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.extra = 0  # what the entry's probe counts
        self.marks = []


class Tracer:
    def __init__(self):
        self.entries = {}  # span name -> Entry
        self.missing = []  # hooks whose target is gone
        self.sim = None  # set per repeat: records carry simulated instants
        self.stack = []  # frames: [start_ns, child_ns, span id or None]
        self._by_code = {}  # code object of a spawned generator -> Entry
        self._undo = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Forget everything measured so far (set-up runs through the shims
        too); the hooks stay installed."""
        del self.stack[:]
        self.records = []
        self.dropped_records = 0
        self.txn_seq = 0
        self.txn_id = None  # sampled transaction the stack is inside of
        self.origin_ns = perf_counter_ns()
        for entry in self.entries.values():
            entry.reset()

    # ------------------------------------------------------------------
    # Installing and removing the shims
    # ------------------------------------------------------------------
    def install(self):
        for module_name, class_name, attr, layer, options in HOOKS:
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            name = "{}.{}".format(class_name, attr) if class_name else attr
            entry = self.entries[name] = Entry(name, layer, **options)
            shim = self._shim(original, entry)
            if class_name:
                self._patch(owner, attr, original, shim)
            else:
                # ``from module import function`` copies: patch every holder.
                for holder in list(sys.modules.values()):
                    if getattr(holder, "__name__", "").startswith("repro.") and (
                        getattr(holder, attr, None) is original
                    ):
                        self._patch(holder, attr, original, shim)
        self._install_spawn()

    def _patch(self, owner, attr, original, shim):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, shim)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install_spawn(self):
        try:
            from repro.sim.kernel import Simulator

            original = Simulator.__dict__["spawn"]
        except (ImportError, KeyError):
            self.missing.append("repro.sim.kernel.Simulator.spawn")
            return
        tracer = self
        drive_code = Tracer._drive.__code__

        def spawn(sim, generator, name=""):
            code = getattr(generator, "gi_code", None)
            if code is None or code is drive_code:  # not a generator, or already driven
                return original(sim, generator, name)
            entry = tracer._by_code.get(code)
            if entry is None:
                span_name = getattr(code, "co_qualname", code.co_name)
                entry = tracer.entries.get(span_name)
                if entry is None:
                    entry = Entry(span_name, layer_of_file(code.co_filename))
                    tracer.entries[span_name] = entry
                tracer._by_code[code] = entry
            entry.calls += 1
            # Process falls back on the generator's __name__ when unnamed.
            return original(sim, tracer._drive(generator, entry, None), name or code.co_name)

        self._patch(Simulator, "spawn", original, spawn)

    # ------------------------------------------------------------------
    # The shims
    # ------------------------------------------------------------------
    def _shim(self, original, entry):
        tracer = self
        stack = self.stack
        clock = perf_counter_ns
        probe = entry.probe

        if inspect.isgeneratorfunction(original):

            def generator_shim(*args, **kwargs):
                entry.calls += 1
                if probe is not None:
                    probe(entry, args, kwargs)
                sampled = None
                if entry.txn_root:
                    tracer.txn_seq = seq = tracer.txn_seq + 1
                    if seq % SAMPLE_EVERY == 0:
                        sampled = seq
                return tracer._drive(original(*args, **kwargs), entry, sampled)

            generator_shim.__wrapped__ = original
            return generator_shim

        def shim(*args, **kwargs):
            entry.calls += 1
            if probe is not None:
                probe(entry, args, kwargs)
            record = None
            if tracer.txn_id is not None or entry.always:
                record = tracer._open(entry)
            start = clock()
            frame = [start, 0, record["id"] if record else None]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry.resumes += 1
                entry.incl_ns += duration
                entry.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record is not None:
                    tracer._close(record, duration - frame[1])
            if inspect.isgenerator(result):
                # A plain function that hands back a generator (a delegating
                # entry point): its resumptions belong to the same span.
                return tracer._drive(result, entry, None)
            return result

        shim.__wrapped__ = original
        return shim

    def _drive(self, generator, entry, sampled):
        """Generator: run ``generator`` to completion, charging each of its
        resumptions to ``entry``. ``sampled`` is the transaction id to record
        full spans under while this generator is on the stack."""
        clock = perf_counter_ns
        send = generator.send
        value = None
        pending = None  # exception to throw into the generator
        record = None
        span_id = None
        self_ns = 0
        first = True
        stack = self.stack
        while True:
            previous_txn = self.txn_id
            if sampled is not None:
                self.txn_id = sampled
            if first:
                first = False
                if self.txn_id is not None or entry.always:
                    record = self._open(entry)
                    if record is not None:
                        span_id = record["id"]
            start = clock()
            frame = [start, 0, span_id]
            stack.append(frame)
            finished = False
            try:
                if pending is not None:
                    thrown, pending = pending, None
                    target = generator.throw(thrown)
                else:
                    target = send(value)
            except StopIteration as stop:
                finished = True
                result = stop.value
            except BaseException:
                finished = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry.resumes += 1
                entry.incl_ns += duration
                own = duration - frame[1]
                entry.self_ns += own
                self_ns += own
                if stack:
                    stack[-1][1] += duration
                self.txn_id = previous_txn
                if finished and record is not None:
                    self._close(record, self_ns)
            if finished:
                return result
            try:
                value = yield target
            except GeneratorExit:
                generator.close()
                if record is not None:
                    self._close(record, self_ns)
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to the generator
                pending = exc
                value = None

    # ------------------------------------------------------------------
    # Full span records
    # ------------------------------------------------------------------
    def _open(self, entry):
        if len(self.records) >= MAX_RECORDS:
            self.dropped_records += 1
            return None
        parent = None
        for frame in reversed(self.stack):
            if frame[2] is not None:
                parent = frame[2]
                break
        record = {
            "id": len(self.records),
            "name": entry.name,
            "layer": entry.layer,
            "parent": parent,
            "txn": self.txn_id,
            "start_us": (perf_counter_ns() - self.origin_ns) / 1e3,
            "end_us": None,  # stays None for a span still open when the run ends
            "self_us": None,
            "sim_start": self.sim.now if self.sim is not None else None,
            "sim_end": None,
        }
        self.records.append(record)
        return record

    def _close(self, record, self_ns):
        record["end_us"] = (perf_counter_ns() - self.origin_ns) / 1e3
        record["self_us"] = self_ns / 1e3
        record["sim_end"] = self.sim.now if self.sim is not None else None

    # ------------------------------------------------------------------
    # The root span and the summaries read after a traced repeat
    # ------------------------------------------------------------------
    def root(self):
        return _Root(self)

    def layer_self_seconds(self):
        """Layer -> self seconds; ``run`` holds the root's own time plus any
        spawned generator defined outside the program (the drivers')."""
        totals = dict.fromkeys(LAYERS + ("metrics", "run"), 0.0)
        for entry in self.entries.values():
            totals[entry.layer] = totals.get(entry.layer, 0.0) + entry.self_ns / 1e9
        return totals

    def calls(self, *names):
        return sum(self.entries[n].calls for n in names if n in self.entries)

    def self_seconds(self, *names):
        return sum(self.entries[n].self_ns for n in names if n in self.entries) / 1e9

    def summary(self):
        return [
            {
                "name": e.name, "layer": e.layer, "calls": e.calls, "resumes": e.resumes,
                "inclusive_s": e.incl_ns / 1e9, "self_s": e.self_ns / 1e9,
            }
            for e in sorted(self.entries.values(), key=lambda e: -e.self_ns)
            if e.calls or e.resumes
        ]


class _Root:
    """Context manager: the span everything in a traced repeat hangs under."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.entry = tracer.entries.setdefault("run", Entry("run", "run"))

    def __enter__(self):
        self.start = perf_counter_ns()
        self.frame = [self.start, 0, None]
        self.tracer.stack.append(self.frame)
        return self

    def __exit__(self, *exc_info):
        duration = perf_counter_ns() - self.start
        self.tracer.stack.pop()
        self.entry.calls += 1
        self.entry.resumes += 1
        self.entry.incl_ns += duration
        self.entry.self_ns += duration - self.frame[1]
        self.seconds = duration / 1e9
        return False
