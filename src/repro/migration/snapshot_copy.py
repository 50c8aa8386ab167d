"""Streaming snapshot copy (§3.2).

Remus leverages MVCC to create a transactionally consistent snapshot of the
migrating shard: a scan retrieves the versions committed before the snapshot
timestamp and streams them to the destination, where they are installed with
the *reserved minimal commit timestamp* so they are visible to any
destination transaction that starts after the snapshot. The scan pins the
vacuum horizon at the snapshot timestamp — under heavy updates to few keys
this is what lets version chains grow (the paper's Figure 10 effect).

Batched scan
------------
Every scanned tuple costs ``snapshot_scan_per_tuple`` of source CPU, paid
before its visibility check. When that charge is longer than a WAL flush
(the paper-scale cost models), each tuple pays it as its own CPU event and
is checked through the blocking :meth:`~repro.storage.heap.HeapTable.
visible_version`. When it is shorter, the scan walks the heap's
incrementally maintained sorted key index (no per-copy, per-retry
O(n log n) sort), decides visibility inline through terminal CLOG verdicts
(:meth:`~repro.storage.heap.HeapTable.scan_visible_fast`) and charges the
CPU in runs, one event per run, with the simulated timeline of one event
per tuple:

- a charge run is capped so its stale-check window stays within one WAL
  flush. A writer that touches a chain *after* a run starts cannot reach
  PREPARED — the only state that makes a check block — inside that
  window, because ``local_prepare`` flushes the prepare record
  (>= ``WAL_FLUSH``) before the CLOG shows PREPARED. Every inline verdict
  therefore equals the verdict a per-tuple check reaches at its own,
  slightly later instant;
- a non-terminal writer (IN_PROGRESS or PREPARED) flushes the deferred
  charges first and re-checks through the blocking path at exactly the
  per-tuple instant, so prepare-waits start on the per-tuple schedule;
- deferred charges are always flushed before a batch ships, so every RPC
  and destination install lands at the per-tuple instant.
"""

from repro.config import WAL_FLUSH
from repro.profiling.counters import COUNTERS
from repro.sim.errors import Interrupt
from repro.sim.network import MIGRATION_CLASS
from repro.storage.snapshot import UNDECIDED, Snapshot
from repro.txn.errors import RpcAbort

BATCH_TUPLES = 256  # tuples per snapshot-copy RPC batch
DEFAULT_TUPLE_SIZE = 64  # bytes for tables with no declared size


def copy_shard_snapshot(cluster, shard_id, source, dest, snapshot_ts, stats):
    """Generator: stream one shard's snapshot from ``source`` to ``dest``.

    Returns the number of tuples copied.
    """
    source_node = cluster.nodes[source]
    dest_node = cluster.nodes[dest]
    heap = source_node.heap_for(shard_id)
    if shard_id.table in cluster.tables:
        tuple_size = cluster.tables[shard_id.table].tuple_size
    else:
        tuple_size = DEFAULT_TUPLE_SIZE
    costs = cluster.config.costs
    snapshot = Snapshot(snapshot_ts)
    scan_cost = costs.snapshot_scan_per_tuple
    # Charge-run cap for the batched scan: the run's stale-check window must
    # stay within one WAL flush (see module docstring). A per-tuple charge
    # longer than a flush (or a free scan) leaves no room for a run.
    charge_run = int(WAL_FLUSH / scan_cost) if scan_cost > 0 else 0

    copied = 0
    batch = []
    if charge_run >= 1:
        cpu = source_node.cpu
        pending = 0  # scanned tuples whose CPU charge is deferred
        for key in list(heap.sorted_keys()):
            pending += 1
            version = heap.scan_visible_fast(key, snapshot)
            if version is UNDECIDED:
                # Flush the deferred charges so the blocking re-check (and
                # any prepare-wait) happens at the per-tuple instant.
                yield from _flush_scan_charges(cpu, scan_cost, pending)
                pending = 0
                version, _traversed = yield from heap.visible_version(key, snapshot)
            if version is not None:
                batch.append((key, version.value))
                if len(batch) >= BATCH_TUPLES:
                    if pending:
                        yield from _flush_scan_charges(cpu, scan_cost, pending)
                        pending = 0
                    copied += yield from _ship_batch(
                        cluster, batch, source, dest_node, shard_id, tuple_size, costs
                    )
                    batch = []
            if pending >= charge_run:
                yield from _flush_scan_charges(cpu, scan_cost, pending)
                pending = 0
        if pending:
            yield from _flush_scan_charges(cpu, scan_cost, pending)
    else:
        for key in sorted(heap.keys()):
            # Charge the scan CPU on the source; the visibility check may
            # prepare-wait on in-doubt writers, keeping the snapshot
            # consistent.
            yield source_node.cpu.use(scan_cost)
            version, _traversed = yield from heap.visible_version(key, snapshot)
            if version is None:
                continue
            batch.append((key, version.value))
            if len(batch) >= BATCH_TUPLES:
                copied += yield from _ship_batch(
                    cluster, batch, source, dest_node, shard_id, tuple_size, costs
                )
                batch = []
    if batch:
        copied += yield from _ship_batch(
            cluster, batch, source, dest_node, shard_id, tuple_size, costs
        )
    stats.tuples_copied += copied
    stats.bytes_copied += copied * tuple_size
    return copied


def _flush_scan_charges(cpu, scan_cost, pending):
    """Generator: pay ``pending`` deferred per-tuple charges.

    One coalesced slot occupation when a slot is free; otherwise the
    sequential per-tuple charges, which enter the CPU queue one by one.
    """
    done = cpu.use_run(scan_cost, pending)
    if done is None:
        for _ in range(pending):
            yield cpu.use(scan_cost)
    else:
        yield done
    COUNTERS.migration_scan_batches += 1


def _ship_batch(cluster, batch, source, dest_node, shard_id, tuple_size, costs):
    # Bounded reliable send: a lossy or partitioned link must fail the copy
    # (RpcAbort -> supervisor crash recovery), never wedge it forever.
    yield from cluster.rpc_send(
        source,
        dest_node.node_id,
        len(batch) * tuple_size,
        traffic_class=MIGRATION_CLASS,
    )
    yield dest_node.cpu.use(costs.snapshot_scan_per_tuple * len(batch))
    dest_node.bulk_install(shard_id, batch)
    return len(batch)


def copy_group_snapshot(cluster, shard_ids, source, dest, snapshot_ts, stats, task_sink=None):
    """Generator: copy several (collocated) shards in parallel (§3.8).

    ``task_sink`` (a list) receives the spawned copy processes so that crash
    injection can interrupt them.
    """
    from repro.sim.events import AllOf

    def guarded(shard_id):
        # Crash injection interrupts copy tasks; that is a modeled teardown,
        # not a programming error, so finish cleanly with a zero count. An
        # exhausted RPC budget (unreachable destination) is returned as a
        # value and re-raised by the parent, so the *migration* fails while
        # the worker task itself finishes cleanly.
        try:
            copied = yield from copy_shard_snapshot(
                cluster, shard_id, source, dest, snapshot_ts, stats
            )
        except Interrupt:
            return 0
        except RpcAbort as exc:
            return exc
        return copied

    tasks = [
        cluster.spawn(guarded(shard_id), name="snapcopy:{}".format(shard_id))
        for shard_id in shard_ids
    ]
    if task_sink is not None:
        task_sink.extend(tasks)
    counts = yield AllOf(tasks)
    # Several parallel copies may fail at once; re-raise deterministically —
    # the abort of the lowest-numbered wounded shard — rather than whichever
    # failure the task iteration order happens to hit first.
    aborts = [
        (shard_id, count)
        for shard_id, count in zip(shard_ids, counts)
        if isinstance(count, RpcAbort)
    ]
    if aborts:
        raise min(aborts, key=lambda pair: pair[0])[1]
    return sum(counts)
