"""simlint (``repro lint``): every rule fires, every near-miss doesn't.

Each rule gets a minimal firing fixture and a near-miss that exercises the
rule's discrimination (the thing a naive grep would get wrong). On top of
that: suppression comments, path scoping, CLI exit codes, and the
self-check that the repaired tree is clean.
"""

import json
import pathlib
import textwrap

from repro.analysis import (
    RULES,
    analyze_paths,
    analyze_source,
    default_config,
)
from repro.analysis.engine import LintConfig, RuleScope
from repro.cli import main as cli_main

PROTOCOL_PATH = "src/repro/txn/fixture.py"


def lint(source, path=PROTOCOL_PATH, config=None):
    """Return the rule codes found in ``source`` (deduplicated, sorted)."""
    source = textwrap.dedent(source)
    violations = analyze_source(source, path=path, config=config)
    return sorted({v.rule for v in violations})


# ----------------------------------------------------------------------
# SIM001 — wall clock
# ----------------------------------------------------------------------
def test_sim001_fires_on_time_time():
    assert "SIM001" in lint(
        """
        import time

        def stamp():
            return time.time()
        """
    )


def test_sim001_fires_on_datetime_now_and_from_import():
    assert "SIM001" in lint("import datetime\nts = datetime.now()\n")
    assert "SIM001" in lint("from time import monotonic\n")


def test_sim001_near_miss_virtual_clock_and_sleep():
    # sim.now is the virtual clock; time.sleep is not a clock *read* and the
    # attribute `time` on another object is not the time module.
    assert "SIM001" not in lint(
        """
        from time import sleep

        def stamp(sim, record):
            record.time = sim.now
            return record.time
        """
    )


def test_sim001_exempt_inside_kernel():
    src = "import time\nnow = time.monotonic()\n"
    assert "SIM001" in lint(src, path="src/repro/txn/fixture.py")
    assert "SIM001" not in lint(src, path="src/repro/sim/kernel.py")


def test_sim001_fires_inside_profiling_counters():
    # The fast-path counters are plain integers: the package that holds
    # them has no wall-clock exemption.
    src = "import time\nnow = time.monotonic()\n"
    assert "SIM001" in lint(src, path="src/repro/profiling/counters.py")


# ----------------------------------------------------------------------
# SIM002 — unseeded random
# ----------------------------------------------------------------------
def test_sim002_fires_on_import_and_attribute():
    assert "SIM002" in lint("import random\n")
    assert "SIM002" in lint("from random import choice\n")
    assert "SIM002" in lint("x = random.random()\n")


def test_sim002_near_miss_rng_stream():
    # Drawing from a labelled stream is the sanctioned idiom.
    assert "SIM002" not in lint(
        """
        def jitter(sim):
            rng = sim.rng("network/jitter")
            return rng.uniform(0.0, 1.0)
        """
    )


def test_sim002_exempt_inside_rng_module():
    assert "SIM002" not in lint("import random\n", path="src/repro/sim/rng.py")


# ----------------------------------------------------------------------
# SIM003 — unordered iteration
# ----------------------------------------------------------------------
def test_sim003_fires_on_local_set_iteration():
    assert "SIM003" in lint(
        """
        def release(owners):
            waiters = set(owners)
            for owner in waiters:
                owner.wake()
        """
    )


def test_sim003_fires_on_self_attr_assigned_elsewhere_in_module():
    # The set() assignment lives in __init__; the iteration in another method.
    assert "SIM003" in lint(
        """
        class LockTable:
            def __init__(self):
                self.owners = set()

            def release_all(self):
                for owner in self.owners:
                    owner.wake()
        """
    )


def test_sim003_fires_through_transparent_wrappers_and_binops():
    assert "SIM003" in lint(
        """
        def drain(pending):
            live = {1, 2}
            for item in list(live):
                pending.discard(item)
        """
    )
    assert "SIM003" in lint(
        """
        def union(a):
            b = set()
            return [x for x in a | b]
        """
    )


def test_sim003_near_miss_sorted_and_lists():
    assert "SIM003" not in lint(
        """
        class LockTable:
            def __init__(self):
                self.owners = set()
                self.queue = []

            def release_all(self):
                for owner in sorted(self.owners):
                    owner.wake()
                for waiter in self.queue:
                    waiter.wake()
                return len(self.owners)
        """
    )


def test_sim003_known_set_attrs_config():
    src = """
    def release(participant):
        for lock in participant.row_locks:
            lock.release()
    """
    # Without cross-module knowledge the attribute's type is unknown.
    assert "SIM003" not in lint(src)
    config = LintConfig(
        scopes=default_config().scopes,
        known_set_attrs=frozenset({"row_locks"}),
    )
    assert "SIM003" in lint(src, config=config)


# ----------------------------------------------------------------------
# SIM004 — raw network send
# ----------------------------------------------------------------------
def test_sim004_fires_on_raw_send_and_broadcast():
    assert "SIM004" in lint(
        """
        def transfer(self, size):
            yield self.cluster.network.send(self.source, self.dest, size)
        """
    )
    assert "SIM004" in lint("def f(net):\n    return net.broadcast('a', ['b'], 1)\n")


def test_sim004_near_miss_reliable_rpc():
    assert "SIM004" not in lint(
        """
        def transfer(self, size):
            yield from self.cluster.rpc_send(self.source, self.dest, size)
        """
    )


def test_sim004_only_in_protocol_paths():
    src = "def f(network):\n    return network.send('a', 'b', 1)\n"
    assert "SIM004" in lint(src, path="src/repro/migration/fixture.py")
    # The RPC layer itself legitimately calls raw send.
    assert "SIM004" not in lint(src, path="src/repro/sim/rpc.py")


# ----------------------------------------------------------------------
# SIM005 — id() ordering
# ----------------------------------------------------------------------
def test_sim005_fires_on_id_key():
    assert "SIM005" in lint(
        """
        def order(txns):
            return sorted(txns, key=lambda t: id(t))
        """
    )


def test_sim005_near_miss_stable_field_and_methods():
    # Keying by a stable field, and *methods* named id, are fine.
    assert "SIM005" not in lint(
        """
        def order(txns, node):
            node.id("label")
            return sorted(txns, key=lambda t: t.xid)
        """
    )


# ----------------------------------------------------------------------
# SIM006 — swallowed errors
# ----------------------------------------------------------------------
def test_sim006_fires_on_bare_except():
    assert "SIM006" in lint(
        """
        def run(step):
            try:
                step()
            except:
                pass
        """
    )


def test_sim006_fires_on_swallowed_sim_error():
    assert "SIM006" in lint(
        """
        def run(step):
            try:
                step()
            except SimulationError:
                pass
        """
    )


def test_sim006_near_miss_handled_or_specific():
    assert "SIM006" not in lint(
        """
        def run(step, log):
            try:
                step()
            except SimulationError as exc:
                log.append(exc)
                raise
            except KeyError:
                pass
        """
    )


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def test_same_line_suppression():
    src = (
        "def f():\n"
        "    s = set()\n"
        "    for x in s:  # simlint: ignore[SIM003]\n"
        "        print(x)\n"
    )
    assert "SIM003" not in lint(src)


def test_suppression_is_per_rule_and_per_line():
    src = (
        "import random  # simlint: ignore[SIM002]\n"
        "import time\n"
        "t = time.time()\n"
    )
    codes = lint(src)
    assert "SIM002" not in codes
    assert "SIM001" in codes


def test_suppression_accepts_multiple_codes():
    src = "for x in {1, 2} | {3}:  # simlint: ignore[SIM003, SIM005]\n    pass\n"
    assert lint(src) == []


# ----------------------------------------------------------------------
# Scoping machinery
# ----------------------------------------------------------------------
def test_rule_scope_include_exclude():
    scope = RuleScope(include=("*/txn/*",), exclude=("*/txn/errors.py",))
    assert scope.matches("src/repro/txn/manager.py")
    assert not scope.matches("src/repro/txn/errors.py")
    assert not scope.matches("src/repro/sim/kernel.py")


def test_rule_catalogue_complete():
    assert sorted(RULES) == [
        "SIM001",
        "SIM002",
        "SIM003",
        "SIM004",
        "SIM005",
        "SIM006",
        "SIM101",
        "SIM102",
        "SIM103",
        "SIM104",
    ]
    for rule_cls in RULES.values():
        assert rule_cls.title


# ----------------------------------------------------------------------
# CLI: repro lint
# ----------------------------------------------------------------------
def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(sim):\n    return sim.now\n")
    assert run_cli("lint", str(clean)) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_exit_one_on_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert run_cli("lint", str(bad)) == 1
    out = capsys.readouterr().out
    assert "SIM002" in out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert run_cli("lint", "--format", "json", str(bad)) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    assert document["violations"][0]["rule"] == "SIM002"
    assert document["violations"][0]["fingerprint"]


def test_cli_exit_one_on_syntax_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert run_cli("lint", str(broken)) == 1


def test_cli_list_rules(capsys):
    assert run_cli("lint", "--list-rules") == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


# ----------------------------------------------------------------------
# The gate itself: the repaired tree is clean, and any finding fails.
# ----------------------------------------------------------------------
def test_repo_tree_is_clean():
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    violations, errors = analyze_paths(
        [str(repo_root / "src" / "repro")], root=str(repo_root)
    )
    assert errors == []
    assert violations == [], "\n".join(v.render() for v in violations)
