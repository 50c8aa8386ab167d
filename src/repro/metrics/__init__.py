"""Measurement: throughput series, latency, aborts, downtime, CPU usage."""

from repro.metrics.collector import MetricsCollector
from repro.metrics.series import bin_series, downtime_windows
from repro.metrics.report import render_series, render_table

__all__ = [
    "MetricsCollector",
    "bin_series",
    "downtime_windows",
    "render_series",
    "render_table",
]
