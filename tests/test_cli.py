"""Tests for the command-line interface (argument handling only; the heavy
scenario executions are covered by the experiment smoke tests)."""

import pytest

from repro.cli import SCENARIOS, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for scenario in SCENARIOS:
        assert scenario in out
    assert "remus" in out


def test_experiment_requires_known_scenario():
    with pytest.raises(SystemExit):
        main(["experiment", "nonsense"])


def test_experiment_requires_known_approach():
    with pytest.raises(SystemExit):
        main(["experiment", "hybrid_a", "--approach", "teleport"])


def test_experiment_rejects_unsupported_scenario_approach_pair(capsys):
    # squall parses (it is valid elsewhere) but scale_out does not support it.
    assert main(["experiment", "scale_out", "--approach", "squall"]) == 2
    assert "does not support" in capsys.readouterr().err


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_chaos_command_with_explicit_plan(capsys):
    code = main([
        "chaos", "--seed", "2",
        "--fault-plan", "mcrash:snapshot_copy@0.4; partition:node-1|node-2@1.0+0.3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault plan:" in out
    assert "crash_migration" in out
    assert "invariant violations: 0" in out
    assert "plan outcome:" in out


def test_experiment_rejects_unknown_topology():
    with pytest.raises(SystemExit):
        main(["experiment", "cross_az", "--topology", "ring"])


def test_experiment_rejects_out_of_range_pump_share(capsys):
    assert main(["experiment", "cross_az", "--pump-share", "1.5"]) == 2
    assert "--pump-share" in capsys.readouterr().err
    assert main(["experiment", "cross_az", "--pump-share", "0"]) == 2


@pytest.mark.parametrize("command", ["chaos", "failover"])
def test_soak_command_exits_one_on_an_invariant_violation(command, monkeypatch, capsys):
    import importlib
    from types import SimpleNamespace

    module = importlib.import_module("repro.experiments." + command)
    result_class = {"chaos": "ChaosResult", "failover": "FailoverResult"}[command]
    stats = SimpleNamespace(crash_recoveries=0, migration_retries=0, batches_skipped=0)
    result = getattr(module, result_class)(
        seed=0, violations=[(1.25, "lost update on counters:7")], plan_stats=stats
    )
    monkeypatch.setattr(module, "run_" + command, lambda config: result)
    assert main([command, "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert "invariant violations: 1" in captured.out
    assert "VIOLATION t=1.250s: lost update on counters:7" in captured.err
