#!/usr/bin/env python3
"""The end-to-end benchmark: four Remus scenarios, host cost per committed
transaction, and a layer-by-layer trace.

    python3 e2ebench/run.py                      # every workload, timed and traced
    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

One invocation with ``--workload`` is one measurement run in this process:

* ``--trace 0`` repeats (set up, then drive) the workload on the simulator
  seed ``--seed`` until ``--seconds`` of host time are used, tracing off, and
  prints the end-to-end metrics. The first repeat is a discarded warm-up.
* ``--trace 1`` runs one untraced repeat and then traced repeats with the
  span shim on, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every output check
that fails is printed, makes ``correct`` false and the exit code 1.
Without ``--workload`` each (workload, mode) runs in its own subprocess, one
after the other, the layer-discrimination expectations are checked, and the
results are gathered in ``e2ebench/out/results.json`` (or ``--out FILE``).
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), BENCH_DIR]

_import_started = time.perf_counter()
from repro.faults import InvariantChecker  # noqa: E402
from repro.faults.invariants import InvariantViolation  # noqa: E402
from repro.profiling import COUNTERS  # noqa: E402

from scenarios import SCENARIOS  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _import_started

DEFAULT_SECONDS = 20
#: Timed repeats a run makes however slow the host is.
MIN_TIMED_REPEATS = 3
#: Latency samples that must stand behind the window's latency metrics.
MIN_LATENCY_SAMPLES = {"full": 1000, "quick": 30}

#: End-to-end metrics read in simulated time: exact for a seed.
SIM_METRICS = (
    "sim_tput_steady_txn_s",
    "sim_tput_during_txn_s",
    "sim_latency_mean_ms",
    "sim_latency_slowest10pct_ms",
    "sim_migration_s",
    "commit_share",
)
#: Printed by ``--trace 0`` with the end-to-end metrics, but not in the
#: contract: order statistics of quantized simulated latencies read the same
#: on every seed, the downtime is always 0, and the abort share needs an
#: absolute bound.
NOT_IN_CONTRACT = (
    ("sim_latency_p50_ms", "sim-ms"),
    ("sim_latency_p99_ms", "sim-ms"),
    ("sim_downtime_s", "sim-s"),
    ("abort_share", "ratio"),
)


def load_spec():
    """BENCHMARK.json: the one list of metric names and units."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def with_units(values, declared):
    """name -> {value, unit} for exactly the ``declared`` metrics."""
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise AssertionError(
            "metrics differ from BENCHMARK.json: missing {}, undeclared {}".format(
                sorted(set(names) - set(values)), sorted(set(values) - set(names))
            )
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
def read_sim_metrics(run):
    """What the foreground saw, in simulated time (part of the timed region)."""
    metrics = run.cluster.metrics
    label = run.label
    start = metrics.first_mark("migration_start")
    end = metrics.last_mark("migration_end")
    if start is None or end is None:
        raise AssertionError("the migration left no start/end marks")
    commits = metrics.commit_count(label)
    aborts = metrics.abort_kinds(label)
    attempted = commits + sum(aborts.values()) + run.capped_arrivals
    _longest, downtime = metrics.downtime(label, start=start, end=end)
    latencies = sorted(
        r.latency
        for r in metrics.commits
        if r.label.startswith(label) and start <= r.time < end
    )
    if not latencies:
        raise AssertionError("no transaction committed in the migration window")
    slowest = latencies[-max(1, len(latencies) // 10):]
    return {
        "sim_tput_steady_txn_s": metrics.average_throughput(label, start=0.5, end=start),
        "sim_tput_during_txn_s": metrics.average_throughput(label, start=start, end=end),
        "sim_latency_mean_ms": 1e3 * sum(latencies) / len(latencies),
        "sim_latency_slowest10pct_ms": 1e3 * sum(slowest) / len(slowest),
        "sim_migration_s": end - start,
        "commit_share": commits / attempted,
        "sim_latency_p50_ms": 1e3 * metrics.latency_percentile(0.5, label, start, end),
        "sim_latency_p99_ms": 1e3 * metrics.latency_percentile(0.99, label, start, end),
        "sim_downtime_s": downtime,
        "latency_samples": len(latencies),
        "window": (start, end),
        "commits": commits,
        "aborts": dict(aborts),
        "attempted": attempted,
        # Write-write conflicts are snapshot isolation's first-committer-wins
        # outcome and are retried by the client; everything else that stops
        # a transaction, and every refused arrival, is a failed operation.
        "failed": sum(n for kind, n in aborts.items() if kind != "ww_conflict")
        + run.capped_arrivals
        + run.abandoned,
    }


def run_digest(run):
    """sha256 over the sorted commit/abort timeline and the final tables."""
    metrics = run.cluster.metrics
    digest = hashlib.sha256()
    for record in sorted((r.time, r.label, r.latency, r.weight) for r in metrics.commits):
        digest.update(repr(record).encode())
    for record in sorted((r.time, r.label, r.kind) for r in metrics.aborts):
        digest.update(repr(record).encode())
    sizes = {}
    for table in sorted(run.cluster.tables):
        rows = run.cluster.dump_table(table)
        sizes[table] = len(rows)
        for key in sorted(rows):
            value = rows[key]
            if isinstance(value, dict):
                value = sorted(value.items())
            digest.update(repr((table, key, value)).encode())
    return digest.hexdigest(), sizes


def check_outputs(run, sim, table_sizes, size):
    """The hard output checks of one repeat; returns the failures."""
    failures = []
    cluster = run.cluster
    for table, expected in run.tables.items():
        if table_sizes.get(table) != expected:
            failures.append(
                "table {!r} holds {} rows, expected {}".format(
                    table, table_sizes.get(table), expected
                )
            )
    for proc, exc in cluster.sim.failed_processes:
        failures.append("process {!r} crashed: {!r}".format(proc.name, exc))
    checker = InvariantChecker(cluster)
    checker.check_once()
    try:
        checker.assert_ok()
    except InvariantViolation as exc:
        failures.append(str(exc))
    leftover = [t for t in cluster.active_txns.values()]
    if leftover:
        failures.append(
            "{} transactions still active after the drain (first: {!r})".format(
                len(leftover), leftover[0].label
            )
        )
    if sim["aborts"].get("migration"):
        failures.append("{} migration-induced aborts".format(sim["aborts"]["migration"]))
    if sim["failed"]:
        failures.append(
            "{} failed operations (aborts {}, capped {}, abandoned {})".format(
                sim["failed"], sim["aborts"], run.capped_arrivals, run.abandoned
            )
        )
    if sim["sim_downtime_s"] != 0:
        failures.append("downtime of {} simulated s".format(sim["sim_downtime_s"]))
    if sim["latency_samples"] < MIN_LATENCY_SAMPLES[size]:
        failures.append(
            "only {} latency samples in the migration window".format(sim["latency_samples"])
        )
    return failures


def one_repeat(scenario, seed, size, tracer=None):
    gc.collect()
    started = time.perf_counter()
    run = scenario.setup(seed)
    setup_s = time.perf_counter() - started
    COUNTERS.reset()
    root = None
    if tracer is not None:
        tracer.reset()
        tracer.sim = run.cluster.sim
        root = tracer.root()
        root.__enter__()
    started = time.perf_counter()
    scenario.drive(run)
    driven = time.perf_counter()
    sim = read_sim_metrics(run)
    finished = time.perf_counter()
    if root is not None:
        root.__exit__(None, None, None)
    digest, table_sizes = run_digest(run)
    return {
        "run": run,
        "setup_s": setup_s,
        "host_s": finished - started,
        "summarize_host_s": finished - driven,
        "sim": sim,
        "digest": digest,
        "failures": check_outputs(run, sim, table_sizes, size),
    }


# ----------------------------------------------------------------------
# A measurement run: --trace 0
# ----------------------------------------------------------------------
def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure_end_to_end(name, seed, seconds, size):
    """A discarded warm-up repeat, then timed repeats of the same seed until
    ``seconds`` of host time are used. Host metrics are medians over the
    timed repeats; the simulated metrics must not differ between repeats."""
    scenario = SCENARIOS[name](size)
    budget_started = time.perf_counter()
    repeats = []
    while True:
        repeat = one_repeat(scenario, seed, size)
        repeat.pop("run")
        repeats.append(repeat)
        timed = len(repeats) - 1
        elapsed = time.perf_counter() - budget_started
        if timed >= MIN_TIMED_REPEATS and elapsed + elapsed / len(repeats) > seconds:
            break
    failures = list(repeats[0]["failures"])
    for index, repeat in enumerate(repeats[1:], 1):
        if repeat["digest"] != repeats[0]["digest"] or repeat["sim"] != repeats[0]["sim"]:
            failures.append("repeat {} differs from the warm-up repeat".format(index))
    sim = repeats[0]["sim"]
    hosts = [r["host_s"] for r in repeats[1:]]
    rates = [sim["commits"] / host_s for host_s in hosts]
    setups = [r["setup_s"] for r in repeats]
    values = {m: sim[m] for m in SIM_METRICS}
    values["commits_per_host_s"] = statistics.median(rates)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "size": size,
        "correct": not failures,
        "failures": failures,
        "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": with_units(values, load_spec()["end_to_end"]),
        "detail": {
            "timed_repeats": len(hosts),
            "host_s": hosts,
            "host_s_min": min(hosts),
            "host_s_quartiles": _quartiles(hosts),
            "commits_per_host_s_quartiles": _quartiles(rates),
            "setup_s_quartiles": _quartiles(setups),
            "latency_samples": sim["latency_samples"],
            "sim_latency_p50_ms": sim["sim_latency_p50_ms"],
            "sim_latency_p99_ms": sim["sim_latency_p99_ms"],
            "sim_downtime_s": sim["sim_downtime_s"],
            "abort_share": 1.0 - sim["commit_share"],
            "aborts": sim["aborts"],
            "digest": repeats[0]["digest"],
            "import_s": IMPORT_S,
        },
    }


# ----------------------------------------------------------------------
# A traced run: --trace 1
# ----------------------------------------------------------------------
def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(repeat, tracer, untraced_host_s):
    """Every per-layer metric of one traced repeat, by name."""
    run = repeat["run"]
    sim = repeat["sim"]
    cluster = run.cluster
    commits = sim["commits"]
    start, end = sim["window"]
    layers = tracer.layer_self_seconds()
    counters = COUNTERS.to_dict()
    derived = counters["derived"]
    stats = run.plan.stats.to_dict()
    phase = {"snapshot_copy": 0.0, "async_propagation": 0.0, "dual_execution": 0.0}
    for migration in run.plan.migrations:
        for name in phase:
            phase[name] += migration.stats.phase_duration(name)
    events = tracer.calls("Simulator.schedule", "Simulator.schedule_at")
    statements = tracer.calls(
        *("NodeTxnManager." + op for op in ("read", "update", "insert", "delete", "lock_row"))
    )
    window_host_s = 0.0
    marks = tracer.entries["MetricsCollector.mark"].marks if (
        "MetricsCollector.mark" in tracer.entries
    ) else []
    starts = [t for name, t in marks if name == "migration_start"]
    ends = [t for name, t in marks if name == "migration_end"]
    if starts and ends:
        window_host_s = (ends[-1] - starts[0]) / 1e9
    peak = run.peak_window or (None, None)
    network = cluster.network
    send = tracer.entries.get("Network.send")
    commit = tracer.entries.get("Session.commit")
    traced_host_s = repeat["host_s"]
    return {
        "kernel.events_scheduled": events,
        "kernel.events_per_commit": _ratio(events, commits),
        "kernel.self_host_s": layers["kernel"],
        "kernel.events_per_host_s": _ratio(events, untraced_host_s),
        "cpu.calls": tracer.calls("CpuResource.use", "CpuResource.use_run"),
        "cpu.self_host_s": layers["cpu"],
        "cpu.busy_fraction_source": cluster.nodes[run.source].cpu.usage_between(start, end),
        "cpu.busy_fraction_dest": cluster.nodes[run.dest].cpu.usage_between(start, end),
        "network.messages_sent": network.messages_sent,
        "network.bytes_sent": network.bytes_sent,
        "network.messages_per_commit": _ratio(network.messages_sent, commits),
        "network.migration_class_bytes": send.extra if send else 0,
        "network.self_host_s": layers["network"],
        "rpc.calls": tracer.calls("Cluster.rpc_send"),
        "rpc.retries": cluster.rpc_stats.rpc_retries,
        "rpc.timeouts": cluster.rpc_stats.rpc_timeouts,
        "heap.visibility_checks": counters["visibility_checks"],
        "heap.versions_per_check": _ratio(
            counters["visibility_versions"], counters["visibility_checks"]
        ),
        "heap.hint_hit_ratio": derived.get("hint_hit_ratio", 0.0),
        "heap.vacuum_calls": tracer.calls("HeapTable.vacuum"),
        "heap.vacuum_self_host_s": tracer.self_seconds("HeapTable.vacuum"),
        "heap.self_host_s": layers["heap"],
        "snapshot.cache_hit_ratio": derived.get("snapshot_cache_hit_ratio", 0.0),
        "wal.records_appended": tracer.calls("Wal.append"),
        "wal.flushes": counters["wal_flushes"],
        "wal.flush_coalesced_ratio": derived.get("wal_flush_coalesced_ratio", 0.0),
        "wal.self_host_s": layers["wal"],
        "locks.acquires": tracer.calls("RowLockTable.acquire", "RowLockTable.try_acquire"),
        "locks.fast_ratio": derived.get("lock_fast_ratio", 0.0),
        "txn.statements": statements,
        "txn.statements_per_commit": _ratio(statements, commits),
        "txn.prepares": tracer.calls("NodeTxnManager.local_prepare"),
        "txn.ww_aborts": sim["aborts"].get("ww_conflict", 0),
        "txn.self_host_s": layers["txn"],
        "coord.begins": tracer.calls("Session.begin"),
        "coord.commits": tracer.calls("Session.commit"),
        "coord.distributed_share": _ratio(commit.extra, commit.calls) if commit else 0.0,
        "coord.self_host_s": layers["coord"],
        "migration.tuples_copied": stats["tuples_copied"],
        "migration.bytes_copied": stats["bytes_copied"],
        "migration.records_propagated": stats["records_propagated"],
        "migration.records_applied": stats["records_applied"],
        "migration.shadow_txns": stats["shadow_txns"],
        "migration.ww_conflicts": stats["ww_conflicts"],
        "migration.sync_waits": stats["sync_waits"],
        "migration.avg_sync_wait_ms": 1e3 * stats["avg_sync_wait"],
        "migration.copy_sim_s": phase["snapshot_copy"],
        "migration.propagation_sim_s": phase["async_propagation"],
        "migration.dual_execution_sim_s": phase["dual_execution"],
        "migration.scan_batches": counters["migration_scan_batches"],
        "migration.pump_skipped": counters["migration_pump_skipped"],
        "migration.replay_coalesced": counters["migration_replay_coalesced"],
        "migration.window_host_s": window_host_s,
        "migration.tuples_per_host_s": _ratio(stats["tuples_copied"], window_host_s),
        "migration.self_host_s": layers["migration"],
        "workload.attempted": sim["attempted"],
        "workload.committed": commits,
        "workload.aborted": sum(sim["aborts"].values()),
        "workload.capped_arrivals": run.capped_arrivals,
        "workload.sim_latency_p50_ms": sim["sim_latency_p50_ms"],
        "workload.sim_latency_p99_ms": sim["sim_latency_p99_ms"],
        "workload.sim_latency_p99_ms_peak": 1e3
        * cluster.metrics.latency_percentile(0.99, run.label, peak[0], peak[1]),
        "workload.latency_samples": sim["latency_samples"],
        "workload.self_host_s": layers["workload"],
        "metrics.records": len(cluster.metrics.commits) + len(cluster.metrics.aborts),
        "metrics.summarize_host_s": repeat["summarize_host_s"],
        "run.host_s": untraced_host_s,
        "run.import_s": IMPORT_S,
        "run.sim_s": cluster.sim.now,
        "run.traced_host_s": traced_host_s,
        "run.untraced_host_s": layers["run"] + layers["metrics"],
        "run.trace_overhead_ratio": _ratio(traced_host_s, untraced_host_s),
        "trace.missing_hooks": len(tracer.missing),
        "trace.span_records": len(tracer.records),
        "trace.dropped_records": tracer.dropped_records,
    }


def layer_shares(metrics):
    """Self-time share of each layer in the traced total."""
    total = metrics["run.traced_host_s"]
    shares = {layer: _ratio(metrics[layer + ".self_host_s"], total) for layer in LAYERS}
    shares["run"] = _ratio(metrics["run.untraced_host_s"], total)
    return shares


def measure_per_layer(name, seed, seconds, size):
    scenario = SCENARIOS[name](size)
    budget_started = time.perf_counter()
    untraced = one_repeat(scenario, seed, size)
    untraced.pop("run")
    failures = list(untraced["failures"])
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        while True:
            repeat = one_repeat(scenario, seed, size, tracer)
            repeat["layers"] = layer_metrics(repeat, tracer, untraced["host_s"])
            repeat.pop("run")
            traced.append(repeat)
            failures.extend(repeat["failures"])
            if repeat["digest"] != untraced["digest"]:
                failures.append("the span shim changed the run digest")
            elapsed = time.perf_counter() - budget_started
            if elapsed + repeat["host_s"] + repeat["setup_s"] > seconds:
                break
    finally:
        tracer.uninstall()
    names = list(traced[0]["layers"])
    metrics = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    metrics["run.repeats"] = len(traced)
    self_sum = sum(metrics[layer + ".self_host_s"] for layer in LAYERS)
    self_sum += metrics["run.untraced_host_s"]
    last = traced[-1]["layers"]
    last_sum = sum(last[layer + ".self_host_s"] for layer in LAYERS) + last["run.untraced_host_s"]
    if abs(last_sum - last["run.traced_host_s"]) > 0.02 * last["run.traced_host_s"]:
        failures.append(
            "layer self times sum to {:.4f}s, the traced run took {:.4f}s".format(
                last_sum, last["run.traced_host_s"]
            )
        )
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, "trace_{}.json".format(name))
    with open(trace_path, "w") as handle:
        json.dump(
            {
                "workload": name, "seed": seed, "size": size,
                "digest": untraced["digest"], "missing_hooks": tracer.missing,
                "entry_points": tracer.summary(), "spans": tracer.records,
            },
            handle,
        )
    sim = untraced["sim"]
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "size": size,
        "correct": not failures,
        "failures": failures,
        "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": with_units(metrics, load_spec()["per_layer"]),
        "detail": {
            "digest": untraced["digest"],
            "layer_shares": layer_shares(metrics),
            "missing_hooks": tracer.missing,
            "trace_file": os.path.relpath(trace_path, REPO_ROOT),
            "self_time_sum_s": self_sum,
        },
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_result(result):
    detail = result["detail"]
    print("# {} seed={} trace={} size={}".format(
        result["workload"], result["seed"], result["trace"], result["size"]))
    for name, metric in result["metrics"].items():
        print("{:<36} {:>18.6f} {}".format(name, metric["value"], metric["unit"]))
    if result["trace"] == 0:
        # The issue's metrics the contract cannot carry (README, glossary).
        for name, unit in NOT_IN_CONTRACT:
            print("{:<36} {:>18.6f} {}".format(name, detail[name], unit))
        print("# {} timed repeats, host_s min {:.3f}, quartiles {:.3f}/{:.3f}/{:.3f}".format(
            detail["timed_repeats"], detail["host_s_min"], *detail["host_s_quartiles"]))
        print("# commits_per_host_s quartiles {:.1f}/{:.1f}/{:.1f}".format(
            *detail["commits_per_host_s_quartiles"]))
        print("# setup_s quartiles {:.4f}/{:.4f}/{:.4f}".format(*detail["setup_s_quartiles"]))
        print("# {} latency samples in the migration window, aborts {}".format(
            detail["latency_samples"], detail["aborts"]))
        print("# run.import_s {:.3f}".format(detail["import_s"]))
    else:
        print("# layer self-time shares: " + " ".join(
            "{}={:.3f}".format(layer, share) for layer, share in detail["layer_shares"].items()))
        print("# spans written to {}".format(detail["trace_file"]))
        if detail["missing_hooks"]:
            print("# hooks without a target: {}".format(", ".join(detail["missing_hooks"])))
    print("# run.digest {}".format(detail["digest"]))
    for failure in result["failures"]:
        print("CHECK FAILED: {}".format(failure))


def final_line(result):
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def result_path(workload, seed, trace):
    return os.path.join(OUT_DIR, "{}.seed{}.trace{}.json".format(workload, seed, trace))


def run_one(args, size):
    measure = measure_per_layer if args.trace else measure_end_to_end
    result = measure(args.workload, args.seed, args.seconds, size)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(result_path(args.workload, args.seed, args.trace), "w") as handle:
        json.dump(result, handle, indent=1)
    print_result(result)
    print(final_line(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, both modes, and the layer-discrimination expectations
# ----------------------------------------------------------------------
def check_expectations(results):
    """The expectations that make the workloads tell layers apart, and the
    agreement of the timed and the traced run; returns (description, holds)
    pairs. ``results`` maps workload -> {"0": timed, "1": traced result}."""
    traced = {w: r["1"] for w, r in results.items()}
    shares = {w: r["detail"]["layer_shares"] for w, r in traced.items()}
    checks = []
    for w, r in results.items():
        checks.append((
            "{}: the timed and the traced run share one digest".format(w),
            r["0"]["detail"]["digest"] == r["1"]["detail"]["digest"]))
    for w, share in shares.items():
        data_path = share["heap"] + share["wal"] + share["migration"]
        if w == "hot_migration":
            checks.append((
                "storage+migration share on {} = {:.3f} >= 0.35".format(w, data_path),
                data_path >= 0.35))
        else:
            checks.append((
                "storage+migration share on {} = {:.3f} <= 0.15".format(w, data_path),
                data_path <= 0.15))

    def calls_per_commit(w):
        value = {n: m["value"] for n, m in traced[w]["metrics"].items()}
        return (value["network.messages_sent"] + value["rpc.calls"]) / value["workload.committed"]

    tpcc, ycsb = shares["tpcc_scaleout"]["network"], shares["ycsb_balance"]["network"]
    checks.append((
        "network+rpc share: tpcc_scaleout {:.4f} <= a tenth of ycsb_balance {:.4f} "
        "(calls per commit {:.2f} and {:.2f})".format(
            tpcc, ycsb, calls_per_commit("tpcc_scaleout"), calls_per_commit("ycsb_balance")),
        tpcc <= ycsb / 10))
    storm, ycsb = shares["storm_open_loop"]["workload"], shares["ycsb_balance"]["workload"]
    checks.append((
        "workload share: storm_open_loop {:.3f} > ycsb_balance {:.3f}".format(storm, ycsb),
        storm > ycsb))
    return checks


def run_all(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    status = 0
    for name in SCENARIOS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            path = result_path(name, args.seed, trace)
            if os.path.exists(path):
                os.remove(path)  # a run that dies must not be read from a stale file
            done = subprocess.run(command, check=False)
            status = status or done.returncode
            if os.path.exists(path):
                with open(path) as handle:
                    results.setdefault(name, {})[str(trace)] = json.load(handle)
    complete = all(set(results.get(name, ())) == {"0", "1"} for name in SCENARIOS)
    expectations = check_expectations(results) if complete else []
    print("# layer discrimination")
    for description, holds in expectations:
        print("{} {}".format("ok  " if holds else "FAIL", description))
        if not holds:
            status = 1
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "quick" if args.quick else "full",
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "expectations": [{"check": d, "holds": h} for d, h in expectations],
        "workloads": results,
    }
    path = args.out or os.path.join(OUT_DIR, "results.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print("# results written to {}".format(os.path.relpath(path)))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=0, help="the simulator seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes (the tests)")
    parser.add_argument("--out", help="results file of a run over every workload")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, "quick" if args.quick else "full")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
