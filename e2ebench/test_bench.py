"""Tests of the benchmark itself, at the quick size of every workload.

Run with ``python -m pytest e2ebench/`` from the repository root (not part of
the tier-1 suite).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
from scenarios import SCENARIOS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(SCENARIOS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert SPEC["paths"] == [os.path.basename(run.BENCH_DIR)]
    # 4 + 22 runs per workload must fit the driver's 3420 s with room to spare.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 10) < 3420


def test_readme_glossary_states_the_bounds_of_the_spec():
    with open(os.path.join(run.BENCH_DIR, "README.md")) as handle:
        rows = re.findall(
            r"^\| `(\w+)` \| (\S+) \| (higher|lower) \| (\d+) % \|", handle.read(), re.M
        )
    assert [(n, u, b, int(p) / 100) for n, u, b, p in rows] == [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ]


# ----------------------------------------------------------------------
# Every workload, quick size, both modes, two seeds
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=list(SCENARIOS))
def measured(request):
    """(timed result, traced result) of one workload at seed 0."""
    return (
        run.measure_end_to_end(request.param, seed=0, seconds=0.1, size="quick"),
        run.measure_per_layer(request.param, seed=0, seconds=0.1, size="quick"),
    )


def test_end_to_end_metrics_present_once_with_units(measured):
    timed, _traced = measured
    assert timed["failures"] == []
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in timed["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in timed["metrics"].values())
    assert timed["attempted"] >= 1 and timed["failed"] == 0
    assert timed["detail"]["timed_repeats"] >= run.MIN_TIMED_REPEATS
    final = json.loads(run.final_line(timed))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True


def test_per_layer_metrics_sum_and_leave_the_digest_alone(measured):
    timed, traced = measured
    # measure_per_layer itself fails the run when the shim changes the digest
    # or the layer self times miss the traced total by more than 2 %.
    assert traced["failures"] == []
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == declared
    value = {n: m["value"] for n, m in traced["metrics"].items()}
    layers = sum(value[layer + ".self_host_s"] for layer in run.LAYERS)
    total = value["run.traced_host_s"]
    assert abs(layers + value["run.untraced_host_s"] - total) <= 0.02 * total
    assert value["trace.missing_hooks"] == 0
    assert value["kernel.events_scheduled"] > value["workload.committed"] > 0
    assert traced["detail"]["digest"] == timed["detail"]["digest"]
    with open(os.path.join(run.REPO_ROOT, traced["detail"]["trace_file"])) as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    assert spans and all(
        {"id", "name", "layer", "parent", "txn", "start_us", "end_us"} <= set(s) for s in spans
    )
    assert any(s["layer"] == "migration" for s in spans)
    assert any(s["txn"] is not None and s["parent"] is not None for s in spans)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_second_seed_runs_clean(name):
    result = run.measure_end_to_end(name, seed=1, seconds=0.1, size="quick")
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0


# ----------------------------------------------------------------------
# The command line the driver uses
# ----------------------------------------------------------------------
def test_command_line_contract(tmp_path):
    command = [sys.executable] + SPEC["command"][1:] + [
        "--workload", "hot_migration", "--seed", "3", "--seconds", "1", "--trace", "0", "--quick",
    ]
    done = subprocess.run(
        command, cwd=run.REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False
    )
    assert done.returncode == 0
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["attempted"] >= 1 and final["failed"] == 0
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    # A directory with only BENCHMARK.json and the benchmark's files: no
    # program to measure, so no result and a non-zero exit code.
    bare = tmp_path / "bare"
    shutil.copytree(
        run.BENCH_DIR, bare / SPEC["paths"][0],
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(run.REPO_ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        command, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# compare.py on synthetic inputs
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 1.2 for v in steady]
    slower = [v * 0.8 for v in steady]
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert compare.verdict(steady, faster, "higher", 0.10)[0] == "better"
    assert compare.verdict(steady, slower, "higher", 0.10)[0] == "worse"
    assert compare.verdict(steady, slower, "lower", 0.10)[0] == "better"
    assert compare.verdict(steady, steady, "higher", 0.10)[0] == "unchanged"
    assert compare.verdict(noisy, faster, "higher", 0.10)[0] == "unresolved"
    # Nine tenths of the pairs: B's median is higher, but it loses 3 of 10.
    mixed = [v * 1.05 for v in steady[:7]] + [v * 0.99 for v in steady[7:]]
    assert compare.verdict(steady, mixed, "higher", 0.10)[0] == "unchanged"
    # One pair: the spread comes from the run's own quartiles.
    assert compare.verdict([100.0], [130.0], "higher", 0.10, (70.0, 100.0, 130.0))[0] == (
        "unresolved"
    )
    assert compare.verdict([100.0], [130.0], "higher", 0.10, (99.0, 100.0, 101.0))[0] == "better"
    # One pair and no quartiles: nothing to call a gain, a loss still shows.
    assert compare.verdict([100.0], [130.0], "higher", 0.10)[0] == "unchanged"
    assert compare.verdict([100.0], [70.0], "higher", 0.10)[0] == "worse"


def test_compare_fails_on_a_changed_exact_metric_or_digest(measured, tmp_path):
    timed, _traced = measured
    workload = timed["workload"]
    base = {"workloads": {workload: {"0": timed}}}

    def exit_code(document):
        for name, content in (("a.json", base), ("b.json", document)):
            (tmp_path / name).write_text(json.dumps(content))
        return compare.main(["compare.py", str(tmp_path / "a.json"), str(tmp_path / "b.json")])

    assert exit_code(base) == 0
    # Inside every bound, but the same seed must give the same simulated run.
    nudged = json.loads(json.dumps(base))
    nudged["workloads"][workload]["0"]["metrics"]["sim_migration_s"]["value"] *= 1.001
    rows = {(r[0], r[1]): r[7] for r in compare.compare([base], [nudged], SPEC)}
    assert rows[(workload, "sim_migration_s")] == "changed"
    assert rows[(workload, "commit_share")] == "identical"
    assert rows[(workload, "run.digest")] == "identical"
    assert exit_code(nudged) == 1
    redone = json.loads(json.dumps(base))
    redone["workloads"][workload]["0"]["detail"]["digest"] = "x"
    rows = {(r[0], r[1]): r[7] for r in compare.compare([base], [redone], SPEC)}
    assert rows[(workload, "run.digest")] == "changed"
    assert exit_code(redone) == 1
    # Another seed: the simulated metrics fall back on their bounds.
    other = json.loads(json.dumps(nudged))
    other["workloads"][workload]["0"]["seed"] += 1
    rows = {(r[0], r[1]): r[7] for r in compare.compare([base], [other], SPEC)}
    assert rows[(workload, "sim_migration_s")] == "unchanged"
    assert (workload, "run.digest") not in rows
