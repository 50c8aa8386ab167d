"""The statement path's rare branches, pinned seed-exact.

Each scenario drives ``NodeTxnManager`` through a branch the workloads
rarely take — a queued row lock, an interrupt while queued, a PREPARED
predecessor met by the conflict check or the uniqueness check, the three
statement errors, a long version chain's extra read charge, T_m's own
``manager.update`` — and records what each statement returned or raised
with the instant, then the final clock, ``sim._seq`` and a digest of every
CPU's busy bins. The values were recorded before the statement path became
one generator per write; they pin that every yield, charge and wakeup slot
stayed where it was.
"""

import hashlib

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.migration.remus import RemusMigration
from repro.workloads.client import ClosedLoopClient
from repro.txn.errors import MigrationAbort

TABLE = "kv"


def _cluster():
    # One slot per CPU and narrow bins: charges queue behind each other and
    # straddle bin boundaries.
    config = ClusterConfig(num_nodes=2, cpu_per_node=1, cpu_bin_width=0.0004)
    cluster = Cluster(config)
    cluster.create_table(TABLE, num_shards=2, tuple_size=100)
    cluster.bulk_load(TABLE, [(k, {"v": k}) for k in range(40)])
    return cluster


def _place(cluster, key):
    """(manager, shard, heap) of the node that owns ``key``."""
    shard = cluster.tables[TABLE].shard_for_key(key)
    node = cluster.nodes[cluster.shard_owner(shard)]
    return node.manager, shard, node.heap_for(shard)


def _statement(cluster, log, name, txn, gen):
    """Run one statement; log its result or error type with the instant."""
    try:
        result = yield from gen
    except Exception as exc:  # noqa: BLE001 - the error type is the result
        log.append((name, type(exc).__name__, repr(cluster.sim.now)))
        if not txn.finished:
            yield from cluster.session(txn.coordinator_node).abort(txn, reason=exc)
        return None
    log.append((name, result, repr(cluster.sim.now)))
    return result


def _fingerprint(cluster, log):
    bins = [
        sorted(cluster.nodes[node_id].cpu._busy_bins.items())
        for node_id in cluster.node_ids()
    ]
    digest = hashlib.sha256(repr(bins).encode()).hexdigest()[:16]
    return log, repr(cluster.sim.now), cluster.sim._seq, digest


def _prepared_writer(cluster, key, delete=False, insert_value=None):
    """A PREPARED local transaction (no row lock held) that wrote ``key``:
    an update (new version over the old), a delete (xmax only) or an
    insert of ``insert_value``. Returns its xid and CLOG."""
    manager, _shard, heap = _place(cluster, key)
    xid = manager.allocate_local_xid()
    manager.clog.begin(xid)
    if insert_value is not None:
        heap.put_version(key, insert_value, xid)
    else:
        old = heap.latest_committed_or_locked(key)
        heap.mark_deleted(old, xid)
        if not delete:
            heap.put_version(key, {"v": "prepared"}, xid)
    manager.clog.set_prepared(xid)
    return xid, manager.clog


def _resolve_later(cluster, clog, xid, delay, outcome, txns):
    """Commit (before or after the waiting writer's snapshot) or abort the
    prepared ``xid`` after ``delay``."""

    def resolve():
        yield delay
        if outcome == "abort":
            clog.set_aborted(xid)
            return
        start_ts = txns["w"].start_ts
        clog.set_committed(xid, start_ts - 1 if outcome == "before" else start_ts + 10**6)

    cluster.spawn(resolve(), name="resolve")


def _writer(cluster, log, txns, name, op, key, value=None, node="node-1", delay=0.0):
    session = cluster.session(node)

    def body():
        if delay:
            yield delay
        txn = txns[name] = yield from session.begin(label=name)
        txn.process = proc
        gen = getattr(session, op)(txn, TABLE, key, *(() if value is None else (value,)))
        result = yield from _statement(cluster, log, name, txn, gen)
        if not txn.finished:
            yield from session.commit(txn)
        return result

    proc = cluster.spawn(body(), name=name)
    return proc


def scenario_queued_lock():
    """A holds key 5 while B and C queue on it: A commits, so B (snapshot
    older than A's commit) fails; D queues on key 6 behind E, which rolls
    back, so D's update goes through."""
    cluster = _cluster()
    log, txns = [], {}
    session = cluster.session("node-1")

    def holder(name, key, commit):
        txn = txns[name] = yield from session.begin(label=name)
        yield from _statement(
            cluster, log, name, txn, session.update(txn, TABLE, key, {"v": name})
        )
        yield 0.003
        if commit:
            yield from session.commit(txn)
        else:
            yield from session.abort(txn)
        log.append((name + ":end", txn.state.value, repr(cluster.sim.now)))

    cluster.spawn(holder("a", 5, True))
    cluster.spawn(holder("e", 6, False))
    _writer(cluster, log, txns, "b", "update", 5, {"v": "b"}, delay=0.0005)
    _writer(cluster, log, txns, "c", "lock_row", 5, delay=0.001, node="node-2")
    _writer(cluster, log, txns, "d", "update", 6, {"v": "d"}, delay=0.0005)
    cluster.run(until=0.05)
    log.append(("dump", cluster.dump_table(TABLE)[5], cluster.dump_table(TABLE)[6]))
    return _fingerprint(cluster, log)


def scenario_interrupt_while_queued():
    """B queues on A's row lock and is doomed while queued: its request is
    withdrawn, and F, queued behind it, gets the lock when A commits."""
    cluster = _cluster()
    log, txns = [], {}
    session = cluster.session("node-1")

    def holder():
        txn = txns["a"] = yield from session.begin(label="a")
        yield from session.update(txn, TABLE, 7, {"v": "a"})
        yield 0.004
        yield from session.commit(txn)

    def doom():
        yield 0.002
        txns["b"].doom(MigrationAbort("doomed while queued", txn_id=txns["b"].tid))

    cluster.spawn(holder())
    _writer(cluster, log, txns, "b", "update", 7, {"v": "b"}, delay=0.001)
    _writer(cluster, log, txns, "f", "delete", 7, delay=0.0015, node="node-2")
    cluster.spawn(doom())
    cluster.run(until=0.05)
    manager, shard, _heap = _place(cluster, 7)
    log.append(("holder", manager._row_locks[shard].holder(7)))
    return _fingerprint(cluster, log)


def _resolve_case(outcome, delete):
    """Update over a PREPARED update (``delete=False``) or a PREPARED delete
    (``delete=True``) of the same key, resolved 3 ms later: committed before
    or after the writer's snapshot, or aborted."""
    cluster = _cluster()
    log, txns = [], {}
    key = 8
    xid, clog = _prepared_writer(cluster, key, delete=delete)
    _writer(cluster, log, txns, "w", "update", key, {"v": "w"})
    _resolve_later(cluster, clog, xid, 0.003, outcome, txns)
    cluster.run(until=0.05)
    log.append(("dump", cluster.dump_table(TABLE).get(key)))
    return _fingerprint(cluster, log)


def _unique_case(outcome, delete):
    """Insert over a PREPARED insert (``delete=False``) or a PREPARED
    delete (``delete=True``) of the same key."""
    cluster = _cluster()
    log, txns = [], {}
    key = 9 if delete else 50
    if delete:
        xid, clog = _prepared_writer(cluster, key, delete=True)
    else:
        xid, clog = _prepared_writer(cluster, key, insert_value={"v": "prepared"})
    _writer(cluster, log, txns, "w", "insert", key, {"v": "w"})
    _resolve_later(cluster, clog, xid, 0.003, outcome, txns)
    cluster.run(until=0.05)
    log.append(("dump", cluster.dump_table(TABLE).get(key)))
    return _fingerprint(cluster, log)


def scenario_errors():
    """MissingRow (update and delete of an absent key, lock of a deleted
    row), UniqueViolation (insert over a live row) and SerializationFailure
    (update of a row committed after the snapshot)."""
    cluster = _cluster()
    log, txns = [], {}
    _writer(cluster, log, txns, "missing-update", "update", 99, {"v": 0})
    _writer(cluster, log, txns, "missing-delete", "delete", 98, node="node-2")
    _writer(cluster, log, txns, "unique", "insert", 11, {"v": 0})
    _writer(cluster, log, txns, "deleter", "delete", 12, delay=0.001)
    _writer(cluster, log, txns, "locker", "lock_row", 12, delay=0.01)
    session = cluster.session("node-2")

    def stale():
        txn = yield from session.begin(label="stale")
        yield 0.01  # a newer version of 13 commits meanwhile
        yield from _statement(
            cluster, log, "stale", txn, session.update(txn, TABLE, 13, {"v": "stale"})
        )

    cluster.spawn(stale())
    _writer(cluster, log, txns, "fresh", "update", 13, {"v": "fresh"}, delay=0.002)
    cluster.run(until=0.05)
    return _fingerprint(cluster, log)


def scenario_long_chain_read():
    """Five committed updates leave a six-version chain: the read pays the
    extra per-version charge; a read of a frozen row does not."""
    cluster = _cluster()
    log, txns = [], {}
    for i in range(5):
        _writer(cluster, log, txns, "u{}".format(i), "update", 3, {"v": i}, delay=0.001 * i)
    _writer(cluster, log, txns, "reader", "read", 3, delay=0.01)
    _writer(cluster, log, txns, "frozen", "read", 4, delay=0.01, node="node-2")
    _writer(cluster, log, txns, "absent", "read", 77, delay=0.01)
    cluster.run(until=0.05)
    _manager, _shard, heap = _place(cluster, 3)
    log.append(("chain", heap.chain_length(3)))
    return _fingerprint(cluster, log)


def scenario_tm_update():
    """A Remus migration of one shard under writers: T_m updates the shard
    map row on every node through ``manager.update``."""
    cluster = _cluster()
    log, txns = [], {}
    shard = cluster.tables[TABLE].shard_for_key(0)
    source = cluster.shard_owner(shard)
    dest = next(n for n in cluster.node_ids() if n != source)
    migration = RemusMigration(cluster, [shard], source, dest)
    proc = cluster.spawn(migration.run(), name="migration")
    for i in range(6):
        _writer(cluster, log, txns, "w{}".format(i), "update", 2 * i, {"v": i}, delay=0.01 * i)
    cluster.run(until=2.0)
    log.append(("tm", proc.finished, migration.stats.tm_commit_ts is not None))
    log.append(("owner", cluster.shard_owner(shard)))
    return _fingerprint(cluster, log)


SCENARIOS = {
    "queued_lock": scenario_queued_lock,
    "interrupt_while_queued": scenario_interrupt_while_queued,
    "resolve_update_before": lambda: _resolve_case("before", False),
    "resolve_update_after": lambda: _resolve_case("after", False),
    "resolve_update_abort": lambda: _resolve_case("abort", False),
    "resolve_delete_before": lambda: _resolve_case("before", True),
    "resolve_delete_after": lambda: _resolve_case("after", True),
    "unique_insert_commit": lambda: _unique_case("before", False),
    "unique_insert_abort": lambda: _unique_case("abort", False),
    "unique_delete_commit": lambda: _unique_case("before", True),
    "unique_delete_abort": lambda: _unique_case("abort", True),
    "errors": scenario_errors,
    "long_chain_read": scenario_long_chain_read,
    "tm_update": scenario_tm_update,
}

PINNED = {
    'unique_delete_abort': ([('w', 'UniqueViolation', '0.003'), ('dump', {'v': 9})], '0.05', 15, '23ece67b55612e9d'),
    'unique_delete_commit': ([('w', True, '0.0032252048'), ('dump', {'v': 'w'})], '0.05', 29, 'c8d8a2df2cf74e1f'),
    'unique_insert_abort': ([('w', True, '0.003025'), ('dump', {'v': 'w'})], '0.05', 19, 'b5e7d3102d0bd89a'),
    'unique_insert_commit': ([('w', 'UniqueViolation', '0.003'), ('dump', {'v': 'prepared'})], '0.05', 11, '7e35924a9afcc10e'),
    'errors': ([('missing-delete', 'MissingRow', '3.6e-05'), ('missing-update', 'MissingRow', '4.7000000000000004e-05'), ('unique', 'UniqueViolation', '0.0002472048'), ('deleter', True, '0.0014614096'), ('fresh', True, '0.0024614096'), ('stale', 'SerializationFailure', '0.010036'), ('locker', 'MissingRow', '0.010236204799999999')], '0.05', 104, '964dda022098a131'),
    'interrupt_while_queued': ([('b', 'Interrupt', '0.002'), ('f', 'SerializationFailure', '0.005247024'), ('holder', None)], '0.05', 49, '38dda88ad1fe9280'),
    'long_chain_read': ([('u0', True, '6.1000000000000005e-05'), ('u1', True, '0.001061'), ('u2', True, '0.002061'), ('u3', True, '0.003061'), ('u4', True, '0.0040609999999999995'), ('reader', {'v': 4}, '0.010051999999999997'), ('frozen', {'v': 4}, '0.010426409599999997'), ('absent', None, '0.010437409599999996'), ('chain', 6)], '0.05', 118, 'edcefb215c2669da'),
    'queued_lock': ([('e', True, '7.2e-05'), ('a', True, '0.0004714096'), ('e:end', 'aborted', '0.003072'), ('d', True, '0.0031219999999999998'), ('a:end', 'committed', '0.004232024000000001'), ('b', 'SerializationFailure', '0.004257024000000001'), ('c', 'SerializationFailure', '0.004482228800000001'), ('dump', {'v': 'a'}, {'v': 'd'})], '0.05', 77, '28a340de5a79ad9c'),
    'resolve_delete_after': ([('w', 'SerializationFailure', '0.003'), ('dump', None)], '0.05', 11, '7e35924a9afcc10e'),
    'resolve_delete_before': ([('w', 'MissingRow', '0.003'), ('dump', None)], '0.05', 11, '7e35924a9afcc10e'),
    'resolve_update_abort': ([('w', True, '0.003025'), ('dump', {'v': 'w'})], '0.05', 19, 'b5e7d3102d0bd89a'),
    'resolve_update_after': ([('w', 'SerializationFailure', '0.003'), ('dump', {'v': 'prepared'})], '0.05', 11, '7e35924a9afcc10e'),
    'resolve_update_before': ([('w', True, '0.003025'), ('dump', {'v': 'w'})], '0.05', 19, 'b5e7d3102d0bd89a'),
    'tm_update': ([('w0', True, '0.0004614096'), ('w1', True, '0.010061'), ('w2', True, '0.020061000000000002'), ('w3', True, '0.030061'), ('w4', True, '0.040061'), ('w5', True, '0.050061'), ('tm', True, True), ('owner', 'node-1')], '2.0', 190, '39431a26abad5c7a'),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_statement_path_rare_branch_pinned(name):
    assert SCENARIOS[name]() == PINNED[name]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        print("    {!r}: {!r},".format(name, SCENARIOS[name]()))


def test_one_doom_aborts_one_transaction():
    """A doom whose interrupt finds the owner already woken (here by the CPU
    charge ending at the same instant) is raised once, by the next
    ``check_doomed``: the interrupt it left pending is withdrawn, so the
    client's retry commits instead of aborting at its first wait."""
    cluster = Cluster(ClusterConfig(num_nodes=1, cpu_per_node=1))
    cluster.create_table(TABLE, num_shards=1, tuple_size=100)
    cluster.bulk_load(TABLE, [(k, {"v": k}) for k in range(4)])
    cpu = cluster.nodes["node-1"].cpu
    attempts = []

    def body(session, txn):
        attempts.append(txn.tid)
        if len(attempts) == 1:
            charge = cpu.use(1e-3)
            # Ties the end of the charge, in the slot after it.
            cluster.sim.schedule(1e-3, txn.doom, MigrationAbort("doomed", txn_id=txn.tid))
            yield charge
        yield from session.update(txn, TABLE, 1, {"v": len(attempts)})

    client = ClosedLoopClient(cluster, "node-1", lambda: body, "tied")
    client.start()
    cluster.run(until=0.002)
    client.stop()
    cluster.run(until=0.01)
    assert [(r.kind, r.time) for r in cluster.metrics.aborts] == [("migration", 0.001)]
    assert client.aborted == 1
    assert client.committed == len(attempts) - 1 >= 1


PINNED_COUNTS = {"schedule": 63783, "use": 43423, "lock": 9623, "statement": 15466}


def test_tpcc_statement_path_counts(monkeypatch):
    """Seed-exact, noise-free op counts on smoke ``scale_out``/remus at seed
    0 (TPC-C), next to the heap-traffic pin on ``load_balancing`` in
    ``test_fastpath_equivalence.py``: kernel pushes (``schedule`` and
    ``schedule_at``), ``CpuResource.use`` calls, statement entries into
    ``NodeTxnManager`` and row-lock acquires. One-frame statements changed
    how much Python runs per statement, not one of these; a lost tail site
    or an extra charge moves them."""
    from repro.sim.kernel import Simulator
    from repro.sim.resources import CpuResource
    from repro.txn.locks import RowLockTable
    from repro.txn.manager import NodeTxnManager
    from tests.test_fastpath_equivalence import _GOLDEN, _run_cell_capturing_cluster

    counts = {}
    targets = [
        (Simulator, "schedule", "schedule"),
        (Simulator, "schedule_at", "schedule"),
        (CpuResource, "use", "use"),
        (RowLockTable, "try_acquire", "lock"),
        (RowLockTable, "acquire", "lock"),
    ] + [
        (NodeTxnManager, op, "statement")
        for op in ("read", "update", "insert", "delete", "lock_row")
    ]
    for owner, name, key in targets:
        counts[key] = 0

        def counting(*args, _original=getattr(owner, name), _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    cluster, _result = _run_cell_capturing_cluster("scale_out", "remus", monkeypatch)
    assert cluster.sim._seq == _GOLDEN[("scale_out", "remus")][2]
    assert counts == PINNED_COUNTS
