"""The cluster-wide metrics collector.

Records every commit (with latency and an optional weight, e.g. tuples
ingested by a batch transaction), every abort with its cause, and named
markers (migration start/end, workload phase boundaries). Experiments then
derive the paper's artefacts from these raw streams: throughput timelines
(Figures 6-9), abort ratios (Table 2), latency increases (Table 3) and
downtime windows.
"""

from collections import Counter

from repro.metrics.series import bin_series, downtime_windows


class CommitRecord:
    __slots__ = ("time", "label", "latency", "weight")

    def __init__(self, time, label, latency, weight):
        self.time = time
        self.label = label
        self.latency = latency
        self.weight = weight


class AbortRecord:
    __slots__ = ("time", "label", "kind")

    def __init__(self, time, label, kind):
        self.time = time
        self.label = label
        self.kind = kind


class MetricsCollector:
    __slots__ = ("sim", "commits", "aborts", "marks")

    def __init__(self, sim):
        self.sim = sim
        self.commits = []
        self.aborts = []
        self.marks = []  # (time, name)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_commit(self, label, latency, weight=1):
        self.commits.append(CommitRecord(self.sim.now, label, latency, weight))

    def record_abort(self, label, kind):
        self.aborts.append(AbortRecord(self.sim.now, label, kind))

    def mark(self, name):
        self.marks.append((self.sim.now, name))

    def marks_named(self, name):
        # Virtual time never runs backwards, so append order is time order.
        return [t for t, n in self.marks if n == name]

    def first_mark(self, name):
        times = self.marks_named(name)
        return times[0] if times else None

    def last_mark(self, name):
        times = self.marks_named(name)
        return times[-1] if times else None

    # ------------------------------------------------------------------
    # Derived measurements
    # ------------------------------------------------------------------
    def _select(self, records, label=None, start=None, end=None):
        for record in records:
            if label is not None and not record.label.startswith(label):
                continue
            if start is not None and record.time < start:
                continue
            if end is not None and record.time >= end:
                continue
            yield record

    def commit_count(self, label=None, start=None, end=None):
        return sum(1 for _ in self._select(self.commits, label, start, end))

    def abort_count(self, label=None, kind=None, start=None, end=None):
        return sum(
            1
            for record in self._select(self.aborts, label, start, end)
            if kind is None or record.kind == kind
        )

    def abort_kinds(self, label=None, start=None, end=None):
        return Counter(r.kind for r in self._select(self.aborts, label, start, end))

    def throughput_series(self, label=None, bin_width=1.0, start=0.0, end=None, weighted=False):
        """(time, commits_per_second) samples binned over [start, end)."""
        if end is None:
            end = self.sim.now
        points = [
            (r.time, r.weight if weighted else 1)
            for r in self._select(self.commits, label, start, end)
        ]
        return bin_series(points, bin_width, start, end)

    def average_throughput(self, label=None, start=None, end=None, weighted=False):
        if end is None:
            end = self.sim.now
        if start is None:
            start = 0.0
        total = sum(
            (r.weight if weighted else 1)
            for r in self._select(self.commits, label, start, end)
        )
        window = max(end - start, 1e-9)
        return total / window

    def average_latency(self, label=None, start=None, end=None):
        latencies = [r.latency for r in self._select(self.commits, label, start, end)]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def latency_percentile(self, q, label=None, start=None, end=None):
        latencies = sorted(r.latency for r in self._select(self.commits, label, start, end))
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(q * len(latencies)))
        return latencies[index]

    def downtime(self, label=None, start=0.0, end=None, min_window=0.3):
        """Longest and total zero-throughput windows for ``label``.

        A window counts as downtime if no transaction with the label commits
        for at least ``min_window`` seconds while the workload is running.
        Returns (longest, total).
        """
        if end is None:
            end = self.sim.now
        times = sorted(r.time for r in self._select(self.commits, label, start, end))
        return downtime_windows(times, start, end, min_window)

    def abort_ratio(self, label=None, start=None, end=None, kind=None):
        """aborted / (aborted + committed), counting retries as attempts."""
        aborted = self.abort_count(label=label, kind=kind, start=start, end=end)
        committed = self.commit_count(label=label, start=start, end=end)
        attempts = aborted + committed
        if attempts == 0:
            return 0.0
        return aborted / attempts
