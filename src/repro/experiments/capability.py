"""The qualitative capability matrix of Table 1, derived from measurement.

The paper's Table 1 states, per approach: service downtime (yes/no),
transaction aborts (yes/no), OLTP throughput drop (low/high), batch
throughput drop (low/median/high) and the concurrency-control basis.
:func:`classify` *derives* one approach's row from its measured hybrid-A
run instead of asserting it, so the table is evidence, not lore.
"""

CC_BASIS = {
    "remus": "MVCC",
    "lock_and_abort": "MVCC",
    "wait_and_remaster": "MVCC",
    "squall": "Partition Lock",
    "stop_and_copy": "MVCC",
}

_DOWNTIME_THRESHOLD = 0.5  # seconds of zero OLTP throughput
_OLTP_DROP_HIGH = 0.35  # fractional throughput loss considered "High"
_BATCH_DROP_HIGH = 0.60
_BATCH_DROP_MEDIAN = 0.25


def classify(result):
    """Derive the Table 1 row for one measured hybrid-A run."""
    oltp_before = max(result.avg_throughput_before, 1e-9)
    oltp_drop = max(0.0, 1.0 - result.avg_throughput_during / oltp_before)
    ingest_before = max(result.extra.get("ingest_before", 0.0), 1e-9)
    ingest_during = result.extra.get("ingest_during", 0.0)
    batch_drop = max(0.0, 1.0 - ingest_during / ingest_before)
    migration_aborts = result.aborts.get("migration", 0)
    row = {
        "downtime": "Yes" if result.downtime_longest >= _DOWNTIME_THRESHOLD else "No",
        "txn_abort": "Yes" if migration_aborts > 0 else "No",
        "oltp_drop": "High" if oltp_drop >= _OLTP_DROP_HIGH else "Low",
        "batch_drop": (
            "High"
            if batch_drop >= _BATCH_DROP_HIGH
            else ("Median" if batch_drop >= _BATCH_DROP_MEDIAN else "Low")
        ),
        "cc": CC_BASIS[result.approach],
        "measured": {
            "downtime_longest": result.downtime_longest,
            "oltp_drop": oltp_drop,
            "batch_drop": batch_drop,
            "migration_aborts": migration_aborts,
        },
    }
    return row

