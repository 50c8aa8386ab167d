"""Command-line interface: run any paper scenario from the terminal.

Examples::

    python -m repro list
    python -m repro experiment hybrid_a --approach remus
    python -m repro experiment load_balancing --approach squall --json
    python -m repro experiment high_contention
    python -m repro chaos --seed 3
    python -m repro chaos --fault-plan "crash:node-2@1.0; partition:node-1|node-3@2.0+0.5"
    python -m repro failover --seed 1 --phase async_propagation
    python -m repro failover --compare
    python -m repro sweep --scenario hybrid_a --seeds 4 --jobs 4
    python -m repro lint --format json

Scenarios are resolved through the experiment registry
(:mod:`repro.experiments.registry`); ``repro list`` prints whatever is
registered, so new scenarios appear here without touching this module.
"""

import argparse
import json
import sys

from repro.experiments import registry

SCENARIOS = registry.names()


def _print_result(result):
    """Render one experiment result from its stable payload."""
    from repro.metrics.report import render_series

    payload = result.to_dict()
    start, end = payload["migration_window"]
    if payload["throughput"]:
        markers = {}
        if start is not None:
            markers[start] = "<mig"
        if end is not None:
            markers[end] = "mig>"
        print(
            render_series(
                "throughput ({} / {})".format(payload["scenario"], payload["approach"]),
                [tuple(point) for point in payload["throughput"]],
                unit="/s",
                markers=markers,
            )
        )
    print()
    print("migration window: {} .. {}".format(start, end))
    print("downtime (longest/total): {:.3f}s / {:.3f}s".format(
        payload["downtime_longest"], payload["downtime_total"]))
    print("aborts by cause:", payload["aborts"] or "{}")
    print("latency before/during: {:.3f} / {:.3f} ms".format(
        payload["avg_latency_before"] * 1e3, payload["avg_latency_during"] * 1e3))
    for key, value in sorted(payload["extra"].items()):
        if key in ("cpu_source", "cpu_dest", "plan_stats"):
            continue
        print("{}: {}".format(key, value))


def _run_soak(args):
    """``repro chaos`` / ``repro failover``: one soak run, printed; the exit
    code is 1 if it saw an invariant violation, 2 on a bad --fault-plan."""
    from repro.experiments.chaos import ChaosConfig, run_chaos
    from repro.experiments.failover import (
        FailoverConfig,
        run_failover,
        run_remaster_comparison,
    )
    from repro.faults.plan import FaultPlan

    if args.command == "chaos":
        config = ChaosConfig(seed=args.seed)
        if args.num_faults is not None:
            config.extra_faults = max(0, args.num_faults - 3)
        run = run_chaos
    else:
        config = FailoverConfig(seed=args.seed, crash_phase=args.phase)
        run = run_failover
    if args.fault_plan:
        try:
            FaultPlan.parse(args.fault_plan)
        except ValueError as exc:
            print("error: bad --fault-plan: {}".format(exc), file=sys.stderr)
            return 2
        config.fault_spec = args.fault_plan
    if args.command == "failover" and args.compare:
        out = run_remaster_comparison(config)
        print("remaster comparison (seed={})".format(config.seed))
        print("  remus full copy:    {} bytes, {} tuples".format(
            out["remus_bytes"], out["remus_tuples"]))
        print("  wait_and_remaster:  {} bytes, {} tuples".format(
            out["remaster_bytes"], out["remaster_tuples"]))
        return 0
    result = run(config)
    _print_soak_result(args.command, result)
    for t, description in result.violations:
        print("VIOLATION t={:.3f}s: {}".format(t, description), file=sys.stderr)
    return 1 if result.violations else 0


def _print_soak_result(command, result):
    replicated = bool(result.epochs)
    print("{} run (seed={}{})".format(
        command, result.seed,
        ", crash phase={}".format(result.crash_phase) if result.crash_phase else ""))
    print()
    print("fault plan:")
    for line in result.fault_plan.splitlines():
        print("  " + line)
    print()
    print("fault / {}recovery timeline:".format("election / " if replicated else ""))
    interesting = ("fault:", "heal:", "migration_crash", "migration_recovered",
                   "batch_skipped", "node_failed", "node_recovered",
                   "failover_election", "replica_crash", "replica_heal", "rehome")
    for t, name in result.marks:
        if any(name.startswith(p) for p in interesting):
            print("  {:>8.3f}s  {}".format(t, name))
    for t, description in result.supervisor_events:
        print("  {:>8.3f}s  supervisor: {}".format(t, description))
    stats = result.plan_stats
    print()
    print("committed increments: {}".format(result.committed))
    if replicated:
        print("elections: {}  stale-epoch rejects: {}  ship batches: {}".format(
            result.failover_elections, result.stale_epoch_rejects,
            result.repl_ship_batches))
        print("group epochs: {}".format(result.epochs))
    print("crash recoveries: {}  batch retries: {}  batches skipped: {}".format(
        stats.crash_recoveries, stats.migration_retries, stats.batches_skipped))
    print("invariant violations: {}".format(len(result.violations)))
    print("plan outcome: {}".format("degraded" if result.degraded else "completed"))
    print("finished at t={:.3f}s".format(result.finished_at))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Remus (SIGMOD 2022) reproduction: run the paper's scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenarios and approaches")

    exp = sub.add_parser("experiment", help="run one scenario")
    exp.add_argument("scenario", choices=SCENARIOS)
    exp.add_argument(
        "--approach",
        default=None,
        choices=sorted({a for name in SCENARIOS for a in registry.get(name).approaches}),
        help="migration approach (default: the scenario's default; "
        "see `repro list` for the per-scenario line-up)",
    )
    exp.add_argument("--seed", type=int, default=0)
    from repro.sim.topology import PRESETS

    exp.add_argument(
        "--topology",
        default=None,
        choices=PRESETS,
        help="network topology preset; multi_az/geo switch the network to "
        "contended fair-share trunks (default: the scenario's flat network)",
    )
    exp.add_argument(
        "--pump-share",
        type=float,
        default=None,
        metavar="SHARE",
        help="cap migration traffic at this fraction of any contended trunk "
        "(0 < SHARE <= 1; trades copy speed against foreground impact)",
    )
    exp.add_argument(
        "--json",
        action="store_true",
        help="print the result as a JSON payload instead of rendering it",
    )

    chaos = sub.add_parser(
        "chaos",
        help="consolidation under fault injection with live invariant checks",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--fault-plan",
        default=None,
        help="explicit fault spec, e.g. "
        "'crash:node-2@1.0; partition:node-1|node-3@2.0+0.5; mcrash:snapshot_copy@0.3' "
        "(default: a randomized plan drawn from the seed)",
    )
    chaos.add_argument(
        "--num-faults",
        type=int,
        default=None,
        help="approximate number of random faults (ignored with --fault-plan)",
    )

    failover = sub.add_parser(
        "failover",
        help="replicated-shard migration under leader/follower crashes "
        "with election, epoch-fenced 2PC and invariant checks",
    )
    failover.add_argument("--seed", type=int, default=0)
    failover.add_argument(
        "--phase",
        default="snapshot_copy",
        choices=("snapshot_copy", "async_propagation", "mode_change",
                 "dual_execution"),
        help="migration phase the leader crash targets",
    )
    failover.add_argument(
        "--fault-plan",
        default=None,
        help="explicit fault spec, e.g. "
        "'crash_leader:counters:0:snapshot_copy@0.3+1.0' "
        "(default: a phase-targeted leader crash on the migrating shard)",
    )
    failover.add_argument(
        "--compare",
        action="store_true",
        help="instead of the soak, compare bytes moved: Remus full copy vs "
        "wait-and-remaster onto an in-sync follower",
    )

    sweep = sub.add_parser(
        "sweep",
        help="fan seeds x (scenario, approach) cells across a worker pool",
    )
    from repro.experiments.sweep import add_sweep_arguments

    add_sweep_arguments(sweep)

    lint = sub.add_parser(
        "lint",
        help="simlint: determinism & protocol-safety static analysis",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    args = parser.parse_args(argv)
    if args.command == "list":
        from repro.migration import APPROACHES

        print("scenarios:")
        for name in registry.names():
            spec = registry.get(name)
            print("  {:<16} approaches: {}".format(name, ", ".join(spec.approaches)))
            if spec.description:
                print("  {:<16} {}".format("", spec.description))
        print("approaches: " + ", ".join(sorted(APPROACHES)))
        return 0
    if args.command == "experiment":
        overrides = {}
        if args.topology is not None:
            overrides["topology"] = args.topology
        if args.pump_share is not None:
            if not 0.0 < args.pump_share <= 1.0:
                print(
                    "error: --pump-share must be in (0, 1], got {}".format(
                        args.pump_share
                    ),
                    file=sys.stderr,
                )
                return 2
            overrides["pump_share"] = args.pump_share
        try:
            result = registry.run(
                args.scenario, approach=args.approach, seed=args.seed, **overrides
            )
        except ValueError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return 2
        if args.json:
            json.dump(result.to_dict(), sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            _print_result(result)
        return 0
    if args.command in ("chaos", "failover"):
        return _run_soak(args)
    if args.command == "sweep":
        from repro.experiments.sweep import run_sweep_command

        return run_sweep_command(args)
    if args.command == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
