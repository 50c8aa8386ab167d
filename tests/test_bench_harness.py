"""The seed sweep (``repro sweep``): parallel determinism and failure capture.

The load-bearing test here is the parallel-vs-serial identity: fanning the
same (scenario, approach, seed) cells across 4 worker processes must yield
canonical JSON payloads byte-identical to running them serially in-process.
Simulation results may depend only on the seed, never on worker scheduling.
"""

import pytest

from repro.experiments.sweep import (
    canonical_json,
    default_cells,
    make_jobs,
    run_jobs,
    run_sweep,
)

#: A tiny two-cell, two-seed matrix that still crosses scenario boundaries.
_CELLS = [("hybrid_a", "remus"), ("high_contention", "remus")]
_SEEDS = [0, 1]


def _tiny_jobs():
    return make_jobs(_CELLS, _SEEDS, smoke=True)


def test_parallel_matches_serial_byte_for_byte():
    jobs = _tiny_jobs()
    serial = run_jobs(jobs, jobs_in_parallel=1)
    parallel = run_jobs(jobs, jobs_in_parallel=4)
    assert len(serial) == len(parallel) == len(jobs)
    for s, p in zip(serial, parallel):
        assert (s["scenario"], s["approach"], s["seed"]) == (
            p["scenario"], p["approach"], p["seed"],
        )
        assert canonical_json(s["payload"]) == canonical_json(p["payload"])


def test_run_sweep_verify_serial_and_aggregates():
    payload = run_sweep(
        _CELLS,
        seeds=_SEEDS,
        jobs_in_parallel=2,
        smoke=True,
        verify_serial=True,
    )
    assert payload["serial_identical"] is True
    assert set(payload["cells"]) == {"hybrid_a/remus", "high_contention/remus"}
    for cell in payload["cells"].values():
        assert cell["seeds"] == _SEEDS
        assert len(cell["runtime_sec"]["per_seed"]) == len(_SEEDS)
        stats = cell["metrics"]["downtime_longest"]
        assert stats["p5"] <= stats["mean"] <= stats["p95"]


def test_default_cells_respect_scenario_support():
    cells = default_cells()
    assert ("scale_out", "squall") not in cells
    assert ("scale_out", "remus") in cells
    assert ("high_contention", "stop_and_copy") in cells
    smoke = default_cells(smoke=True)
    # Smoke keeps one approach per scenario.
    assert len(smoke) == len({scenario for scenario, _ in smoke})


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json({"a": [1, 2], "b": 1})


def test_run_jobs_falls_back_to_serial_when_pool_cannot_start(monkeypatch):
    """Sandboxes without semaphores/fork must degrade, not crash.

    The fallback claims byte-identical aggregation — assert it: a sweep
    whose Pool constructor raises must produce the same cell bytes as a
    plain serial sweep.
    """
    import repro.experiments.sweep as sweep_module

    serial = run_sweep(
        _CELLS, seeds=_SEEDS, jobs_in_parallel=1,
        smoke=True,
    )

    class _BrokenPool:
        def __init__(self, processes=None):
            raise OSError("no usable semaphores in this sandbox")

    monkeypatch.setattr(sweep_module.multiprocessing, "Pool", _BrokenPool)
    fallback = run_sweep(
        _CELLS, seeds=_SEEDS, jobs_in_parallel=4,
        smoke=True,
    )
    # Runtime wall-clock differs per run; the simulated metrics may not.
    def cell_metrics(payload):
        return {
            key: {"seeds": cell["seeds"], "metrics": cell["metrics"]}
            for key, cell in payload["cells"].items()
        }

    assert canonical_json(cell_metrics(fallback)) == canonical_json(
        cell_metrics(serial)
    )


def _stall_seed(monkeypatch, seed):
    """Make every sweep job at ``seed`` fail deterministically: a deadline
    at the end of warm-up leaves the migration no time to finish."""
    import repro.experiments.sweep as sweep_module

    make_jobs = sweep_module.make_jobs

    def jobs_with_a_stall(*args, **kwargs):
        jobs = make_jobs(*args, **kwargs)
        for job in jobs:
            if job["seed"] == seed:
                overrides = job["overrides"]
                job["overrides"] = dict(overrides, max_sim_time=overrides["warmup"])
        return jobs

    monkeypatch.setattr(sweep_module, "make_jobs", jobs_with_a_stall)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_survives_a_failing_cell(jobs, monkeypatch, capsys, tmp_path):
    """One stalled seed is recorded as a failure; every other seed is still
    run and aggregated, serial and pooled alike, and the command exits 1."""
    import json

    from repro.cli import main

    _stall_seed(monkeypatch, 1)
    out = tmp_path / "sweep.json"
    status = main([
        "sweep", "--smoke", "--scenario", "load_balancing", "--approach", "remus",
        "--seeds", "3", "--jobs", str(jobs), "--verify-serial", "--out", str(out),
    ])
    assert status == 1
    payload = json.loads(out.read_text())
    assert payload["serial_identical"] is True
    assert payload["cells"]["load_balancing/remus"]["seeds"] == [0, 2]
    (failure,) = payload["failures"]
    assert (failure["scenario"], failure["approach"], failure["seed"]) == (
        "load_balancing", "remus", 1,
    )
    assert failure["error"]["type"] == "AssertionError"
    assert "did not finish by t=1.0s" in failure["error"]["message"]
    assert "run_until_finished" in failure["error"]["traceback"]
    err = capsys.readouterr().err
    assert "FAILED load_balancing/remus seed 1: AssertionError" in err


def test_aggregate_reports_report_quantiles():
    from repro.experiments.sweep import _aggregate, percentile

    values = [3.0, 1.0, 2.0, 10.0]
    stats = _aggregate(values)
    assert set(stats) == {"mean", "p5", "p50", "p95", "p99"}
    assert stats["p50"] == percentile(values, 50) == 2.5
    assert stats["p5"] <= stats["p50"] <= stats["p95"] <= stats["p99"]
    assert percentile([7.0], 99) == 7.0
