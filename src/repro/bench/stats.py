"""Shared percentile helpers for bench and sweep reporting.

One interpolated-percentile implementation used by every bench payload
(kernel/txn/migration/network/cluster storms and the experiment sweep), so
``p50`` means the same thing in every JSON file and text table.
"""

from __future__ import annotations

#: The load-test-style report columns every bench emits.
REPORT_QUANTILES = (50, 95, 99)


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


def distribution(values, digits=6):
    """``{"p50": ..., "p95": ..., "p99": ...}`` of a non-empty sequence."""
    return {
        "p{}".format(q): round(percentile(values, q), digits)
        for q in REPORT_QUANTILES
    }


def wall_stats(samples, digits=6):
    """Wall-clock repeat summary: best + p50/p95/p99 + the sample count.

    ``samples`` are the per-repeat wall-clock seconds of one storm. The
    headline events/sec stays best-of (least-noise), but the distribution
    rides along so ``BENCH_*.json`` doubles as a noise record.
    """
    return dict(
        distribution(samples, digits=digits),
        best=round(min(samples), digits),
        repeats=len(samples),
    )
