"""Parallel seed sweep over (scenario, approach) experiment cells.

Fans N seeds x M cells across a :class:`multiprocessing.Pool` and proves the
parallelism is *free*: every cell's :meth:`ExperimentResult.to_dict` payload
is canonicalized (sorted keys, no whitespace) and byte-compared against a
serial rerun when ``verify_serial`` is on. Simulation results depend only on
the seed — never on worker scheduling — so the comparison must be exact.

Aggregation reports mean/p5/p50/p95/p99 of the headline metrics per cell,
with the wall-clock runtime of every seed alongside. ``smoke`` runs each
scenario at the tiny scale it registers (:mod:`repro.experiments.registry`).

When the platform cannot start a :class:`multiprocessing.Pool` (sandboxed
CI runners, missing ``/dev/shm`` semaphores), ``run_jobs`` falls back to
in-process serial execution — results are byte-identical either way, so
the fallback only changes wall-clock, never output.

A cell that raises is an outcome, not an abort: its error is recorded, the
other cells still run and are aggregated, and the failures are listed
separately in the payload.

``repro sweep`` is the command-line front end (:func:`add_sweep_arguments`,
:func:`run_sweep_command`); it exits 1 when any cell failed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
import traceback

from repro.experiments import registry

#: Headline metrics aggregated per cell (taken from the result payload).
_HEADLINE_KEYS = (
    "downtime_longest",
    "downtime_total",
    "avg_throughput_before",
    "avg_throughput_during",
    "avg_latency_before",
    "avg_latency_during",
    "abort_ratio",
)


def canonical_json(payload) -> str:
    """Byte-stable serialization used for cross-worker identity checks."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _run_cell(job):
    """Worker entry point: run one (scenario, approach, seed) cell.

    Top-level (picklable) on purpose; receives a plain dict and returns a
    plain dict so the Pool transport stays trivially serializable. A cell
    that raises comes back with ``"error": {"type", "message", "traceback"}``
    in place of its ``"payload"``, so one failing seed never takes the sweep
    down (a deadline stall's message names the sim time it gave up at).
    """
    cell = {"scenario": job["scenario"], "approach": job["approach"], "seed": job["seed"]}
    started = time.perf_counter()
    try:
        result = registry.run(
            job["scenario"],
            approach=job["approach"],
            seed=job["seed"],
            **job.get("overrides", {}),
        )
    except Exception as exc:
        cell["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
    else:
        cell["payload"] = result.to_dict()
    cell["runtime"] = time.perf_counter() - started
    return cell


def _outcome(cell):
    """What a cell produced — its payload or its error — for identity checks."""
    return canonical_json(cell.get("payload", cell.get("error")))


def percentile(values, q):
    """Interpolated percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def _aggregate(values):
    return {
        "mean": sum(values) / len(values),
        "p5": percentile(values, 5),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
    }


def make_jobs(cells, seeds, smoke=False):
    """Expand (scenario, approach) cells x seed list into worker jobs."""
    jobs = []
    for scenario, approach in cells:
        overrides = dict(registry.get(scenario).smoke) if smoke else {}
        for seed in seeds:
            jobs.append({
                "scenario": scenario,
                "approach": approach,
                "seed": seed,
                "overrides": overrides,
            })
    return jobs


def run_jobs(jobs, jobs_in_parallel=1):
    """Run every job, across a worker pool when ``jobs_in_parallel > 1``.

    Returns results in job order regardless of worker scheduling, so the
    output is invariant to the pool size. If the pool cannot even start
    (sandboxes without working semaphores or fork support raise ``OSError``
    or ``PermissionError`` from :class:`multiprocessing.Pool`), the sweep
    degrades to in-process serial execution: cells depend only on their
    seed, so the aggregation bytes are identical either way.
    """
    if jobs_in_parallel <= 1 or len(jobs) <= 1:
        return [_run_cell(job) for job in jobs]
    workers = min(jobs_in_parallel, len(jobs))
    try:
        pool = multiprocessing.Pool(processes=workers)
    except (OSError, PermissionError, ImportError, ValueError):
        return [_run_cell(job) for job in jobs]
    with pool:
        return pool.map(_run_cell, jobs)


def run_sweep(cells, seeds, jobs_in_parallel=1, smoke=False, verify_serial=False):
    """Sweep seeds x cells; returns the aggregate payload.

    With ``verify_serial``, every cell is rerun serially in-process and the
    canonical JSON payloads (or errors) must match the pool's byte for byte
    — the proof that the parallel fan-out cannot change any result.

    Only healthy cells are aggregated; every failed one is listed under
    ``failures`` with its seed and error, in job order.
    """
    jobs = make_jobs(cells, seeds, smoke)
    results = run_jobs(jobs, jobs_in_parallel=jobs_in_parallel)

    serial_identical = None
    if verify_serial:
        serial = [_run_cell(job) for job in jobs]
        mismatches = [
            "{}/{} seed {}".format(p["scenario"], p["approach"], p["seed"])
            for p, s in zip(results, serial)
            if _outcome(p) != _outcome(s)
        ]
        if mismatches:
            raise AssertionError(
                "parallel sweep diverged from serial on: " + ", ".join(mismatches)
            )
        serial_identical = True

    failures = [
        {key: item[key] for key in ("scenario", "approach", "seed", "error")}
        for item in results
        if "error" in item
    ]
    by_cell = {}
    for item in results:
        if "error" in item:
            continue
        key = "{}/{}".format(item["scenario"], item["approach"])
        by_cell.setdefault(key, []).append(item)

    cells_payload = {}
    for key, items in by_cell.items():
        items.sort(key=lambda item: item["seed"])
        runtimes = [item["runtime"] for item in items]
        metrics = {}
        for metric in _HEADLINE_KEYS:
            values = [item["payload"].get(metric) for item in items]
            values = [v for v in values if isinstance(v, (int, float))]
            if values:
                metrics[metric] = _aggregate(values)
        cells_payload[key] = {
            "seeds": [item["seed"] for item in items],
            "runtime_sec": {
                "per_seed": [round(r, 4) for r in runtimes],
                **{k: round(v, 4) for k, v in _aggregate(runtimes).items()},
            },
            "metrics": metrics,
        }

    return {
        "bench": "experiments",
        "seeds": list(seeds),
        "jobs": jobs_in_parallel,
        "serial_identical": serial_identical,
        "cells": cells_payload,
        "failures": failures,
    }


def default_cells(scenarios=None, approaches=None, smoke=False):
    """(scenario, approach) product restricted to what each scenario supports.

    ``smoke`` keeps one representative approach per scenario ("remus") so the
    CI smoke sweep stays fast; otherwise every registered approach runs.
    """
    cells = []
    for name in scenarios or registry.names():
        spec = registry.get(name)
        if smoke and not approaches:
            wanted = (spec.default_approach,)
        else:
            wanted = approaches or spec.approaches
        for approach in wanted:
            if approach in spec.approaches:
                cells.append((name, approach))
    return cells


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
    payload = run_sweep(
        cells,
        seeds=list(range(args.seeds)),
        jobs_in_parallel=args.jobs,
        smoke=args.smoke,
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
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.out))
    for failure in payload["failures"]:
        error = failure["error"]
        print(
            "FAILED {}/{} seed {}: {}: {}".format(
                failure["scenario"], failure["approach"], failure["seed"],
                error["type"], error["message"],
            ),
            file=sys.stderr,
        )
    return 1 if payload["failures"] else 0
