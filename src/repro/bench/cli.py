"""``repro bench`` and ``repro sweep``: the benchmark harness entry points.

``repro bench`` runs, unless skipped, a seed sweep over the experiment
cells (``BENCH_experiments.json``); ``--network`` adds the contended-network
storms and the ``cross_az`` pump-share sweep (``BENCH_network.json``) and
fails if the foreground dip is no longer monotonic in the share;
``--cluster`` adds the storm-scale cluster benchmark (``BENCH_cluster.json``:
100-node / 1M-client storms driving the vectorized workload engine against
per-client pacing, with a migration in flight) and fails if the batch
storm falls below the per-client floor
(:data:`repro.bench.cluster_bench.MIN_BATCH_SPEEDUP`). Every storm line
prints the wall-clock repeat percentiles (p50/p95/p99) next to the best-of
headline. End-to-end speed is gated by ``e2ebench/``, not here.

``repro sweep`` is the standalone fan-out: seeds x (scenario, approach)
cells across a worker pool, with ``--verify-serial`` proving byte-identical
results versus a serial rerun. A cell that raises does not stop the sweep:
every other cell still runs, and both commands list each failure and exit 1.
"""

from __future__ import annotations

import json
import os
import sys

from repro.bench.cluster_bench import MIN_BATCH_SPEEDUP, run_cluster_bench
from repro.bench.network_bench import run_network_bench, run_pump_share_sweep
from repro.bench.sweep import SMOKE_OVERRIDES, default_cells, run_sweep
from repro.experiments import registry


def add_bench_arguments(parser):
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scales + one approach per scenario (CI-friendly)",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for the BENCH_*.json files",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=max(1, min(4, os.cpu_count() or 1)),
        help="worker processes for the experiment sweep (default: up to 4)",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="seeds per experiment cell"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N storm timing repeats"
    )
    parser.add_argument(
        "--network",
        action="store_true",
        help="also run the contended-network storms and the cross_az "
        "pump-share sweep (BENCH_network.json); fails if the dip is no "
        "longer monotonic in pump_share",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="also run the storm-scale cluster benchmark: vectorized "
        "workload engine vs per-client pacing with a migration in flight "
        "(BENCH_cluster.json); fails below the batch-vs-per-client floor",
    )
    parser.add_argument(
        "--skip-experiments",
        action="store_true",
        help="do not run the experiment sweep",
    )


def _wall_columns(storm):
    """`` wall p50/p95/p99 a/b/c s`` for storms measured with repeats."""
    wall = storm.get("wall")
    if not wall:
        return ""
    return "  wall p50/p95/p99 {:.3f}/{:.3f}/{:.3f}s".format(
        wall["p50"], wall["p95"], wall["p99"]
    )


def run_bench_command(args):
    status = 0
    if args.network:
        network = run_network_bench(smoke=args.smoke, repeats=args.repeats)
        network["pump_share_sweep"] = run_pump_share_sweep(smoke=args.smoke)
        network_path = os.path.join(args.out_dir, "BENCH_network.json")
        _write_json(network_path, network)
        for name, storm in sorted(network["storms"].items()):
            print(
                "network {:<24} {:,.0f} events/s{}".format(
                    name, storm["events_per_sec"], _wall_columns(storm)
                )
            )
        sweep = network["pump_share_sweep"]
        for row in sweep["shares"]:
            print(
                "network pump_share={:<5} fg_dip {:8.1f} txns/s  copy {:6.2f}s".format(
                    row["pump_share"], row["fg_dip"], row["copy_duration"]
                )
            )
        print(
            "network dip monotonic in pump_share: {}".format(sweep["monotonic"])
        )
        print("wrote {}".format(network_path))
        if not sweep["monotonic"]:
            print(
                "REGRESSION cross_az foreground dip is no longer monotonic in "
                "pump_share: {}".format([row["fg_dip"] for row in sweep["shares"]]),
                file=sys.stderr,
            )
            status = 1

    if args.cluster:
        cluster = run_cluster_bench(smoke=args.smoke, repeats=args.repeats)
        cluster_path = os.path.join(args.out_dir, "BENCH_cluster.json")
        _write_json(cluster_path, cluster)
        for name, storm in sorted(cluster["storms"].items()):
            print(
                "cluster {:<18} {:>9,.0f} events/s  ({:,} clients, "
                "{:,} txns){}".format(
                    name,
                    storm["events_per_sec"],
                    storm["population"],
                    storm["events"],
                    _wall_columns(storm),
                )
            )
        print(
            "cluster batch vs per-client: {:.2f}x (floor {:.1f}x)".format(
                cluster["speedup_batch_vs_per_client"], MIN_BATCH_SPEEDUP
            )
        )
        print("wrote {}".format(cluster_path))
        if cluster["speedup_batch_vs_per_client"] < MIN_BATCH_SPEEDUP:
            print(
                "REGRESSION cluster batch storm is only {:.2f}x the per-client "
                "reference (floor {:.1f}x)".format(
                    cluster["speedup_batch_vs_per_client"], MIN_BATCH_SPEEDUP
                ),
                file=sys.stderr,
            )
            status = 1

    if not args.skip_experiments:
        cells = default_cells(smoke=args.smoke)
        overrides = SMOKE_OVERRIDES if args.smoke else {}
        sweep = run_sweep(
            cells,
            seeds=list(range(args.seeds)),
            jobs_in_parallel=args.jobs,
            overrides_by_scenario=overrides,
            verify_serial=False,
        )
        sweep_path = os.path.join(args.out_dir, "BENCH_experiments.json")
        _write_json(sweep_path, sweep)
        for key, cell in sweep["cells"].items():
            runtime = cell["runtime_sec"]
            print(
                "  {:<28} mean {:.2f}s p50/p95/p99 {:.2f}/{:.2f}/{:.2f}s "
                "over seeds {}".format(
                    key, runtime["mean"], runtime["p50"], runtime["p95"],
                    runtime["p99"], cell["seeds"]
                )
            )
        print("wrote {}".format(sweep_path))
        if _print_failures(sweep):
            status = 1
    return status


def add_sweep_arguments(parser):
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="scenario to sweep (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--approach",
        action="append",
        default=None,
        help="approach to include (repeatable; default: all the scenario supports)",
    )
    parser.add_argument("--seeds", type=int, default=4, help="seeds per cell")
    parser.add_argument(
        "--jobs",
        type=int,
        default=max(1, min(4, os.cpu_count() or 1)),
        help="worker processes (default: up to 4)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny-scale configs (seconds per cell)"
    )
    parser.add_argument(
        "--out", default=None, help="write the aggregate payload to this JSON file"
    )
    parser.add_argument(
        "--verify-serial",
        action="store_true",
        help="rerun every cell serially and require byte-identical payloads",
    )


def run_sweep_command(args):
    try:
        for name in args.scenario or ():
            registry.get(name)  # fail fast with the scenario list
        cells = default_cells(
            scenarios=args.scenario, approaches=args.approach, smoke=args.smoke
        )
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    if not cells:
        print("error: no (scenario, approach) cells selected", file=sys.stderr)
        return 2
    overrides = SMOKE_OVERRIDES if args.smoke else {}
    payload = run_sweep(
        cells,
        seeds=list(range(args.seeds)),
        jobs_in_parallel=args.jobs,
        overrides_by_scenario=overrides,
        verify_serial=args.verify_serial,
    )
    for key, cell in payload["cells"].items():
        runtime = cell["runtime_sec"]
        line = "{:<28} mean {:.2f}s  p50/p95/p99 {:.2f}/{:.2f}/{:.2f}s  seeds {}".format(
            key, runtime["mean"], runtime["p50"], runtime["p95"],
            runtime["p99"], cell["seeds"]
        )
        print(line)
    if args.verify_serial:
        print("parallel == serial: byte-identical payloads for all cells")
    if args.out:
        _write_json(args.out, payload)
        print("wrote {}".format(args.out))
    return 1 if _print_failures(payload) else 0


def _print_failures(payload):
    """Print every failed sweep cell to stderr; returns how many failed."""
    failures = payload["failures"]
    for failure in failures:
        error = failure["error"]
        print(
            "FAILED {}/{} seed {}: {}: {}".format(
                failure["scenario"], failure["approach"], failure["seed"],
                error["type"], error["message"],
            ),
            file=sys.stderr,
        )
    return len(failures)


def _write_json(path, payload):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
