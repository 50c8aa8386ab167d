"""Tests for the closed-loop client harness: retries, rebinding, pacing."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.txn.errors import SerializationFailure
from repro.workloads.client import ClosedLoopClient, run_transaction
from repro.workloads.hybrid import BatchIngestClient


@pytest.fixture
def cluster():
    c = Cluster(ClusterConfig(num_nodes=2))
    c.create_table("kv", num_shards=4, tuple_size=64)
    c.bulk_load("kv", [(k, {"v": k}) for k in range(50)])
    return c


def test_run_transaction_commits_and_reports(cluster):
    session = cluster.session("node-1")

    def body(sess, txn):
        yield from sess.update(txn, "kv", 1, {"v": "x"})

    def runner():
        ok, err = yield from run_transaction(session, body, label="t")
        return ok, err

    ok, err = cluster.sim.run_until_complete(cluster.spawn(runner()))
    assert ok and err is None
    assert cluster.dump_table("kv")[1] == {"v": "x"}


def test_run_transaction_aborts_on_error(cluster):
    session = cluster.session("node-1")

    def body(sess, txn):
        yield from sess.update(txn, "kv", 1, {"v": "y"})
        raise SerializationFailure("synthetic")

    def runner():
        ok, err = yield from run_transaction(session, body, label="t")
        return ok, err

    ok, err = cluster.sim.run_until_complete(cluster.spawn(runner()))
    assert not ok
    assert err.kind == "ww_conflict"
    assert cluster.dump_table("kv")[1] == {"v": 1}  # rolled back


def test_closed_loop_client_counts_commits(cluster):
    rng = cluster.sim.rng("c")

    def factory():
        def body(sess, txn):
            yield from sess.read(txn, "kv", rng.randint(0, 49))

        return body

    client = ClosedLoopClient(cluster, "node-1", factory, "reader", think_time=0.01)
    client.start()
    cluster.run(until=0.5)
    client.stop()
    cluster.run(until=0.6)
    assert client.committed >= 40
    assert client.aborted == 0


def test_client_rebinds_via_node_resolver(cluster):
    target = {"node": "node-1"}

    def resolver():
        return target["node"]

    def factory():
        def body(sess, txn):
            yield from sess.read(txn, "kv", 1)

        return body

    client = ClosedLoopClient(
        cluster, "node-1", factory, "r", think_time=0.01, node_resolver=resolver
    )
    client.start()
    cluster.run(until=0.2)
    assert client.session.node_id == "node-1"
    target["node"] = "node-2"
    cluster.run(until=0.4)
    client.stop()
    cluster.run(until=0.5)
    assert client.session.node_id == "node-2"


def test_batch_ingest_pacing_controls_rate(cluster):
    client = BatchIngestClient(
        cluster,
        "node-1",
        table="kv",
        start_key=100,
        batch_tuples=400,
        num_batches=1,
        tuples_per_second=1000.0,
    )
    client.start()
    cluster.run(until=30.0)
    assert client.process.finished
    # 400 tuples at 1000/s takes >= ~0.4s; unpaced it would take ~0.03s.
    assert client.finished_at >= 0.35


def test_batch_ingest_retries_until_committed(cluster):
    """Interrupt the batch once: it restarts the same key range and lands."""
    client = BatchIngestClient(
        cluster, "node-1", table="kv", start_key=100, batch_tuples=200,
        num_batches=1, tuples_per_second=2000.0,
    )
    client.start()

    def saboteur():
        yield 0.04  # mid-batch
        for txn in list(cluster.active_txns.values()):
            if txn.label == "batch":
                from repro.txn.errors import MigrationAbort

                exc = MigrationAbort("synthetic kill", txn_id=txn.tid)
                txn.doom(exc)

    cluster.spawn(saboteur())
    cluster.run(until=30.0)
    assert client.process.finished
    assert client.aborted == 1
    assert client.committed == 1
    dump = cluster.dump_table("kv")
    assert all(100 + i in dump for i in range(200))
    assert len(dump) == 250  # no duplicates, no extras
