"""Time-series helpers: binning and downtime detection."""


def bin_series(points, bin_width, start, end):
    """Aggregate (time, weight) points into per-second rates per bin.

    Returns a list of (bin_start_time, rate) covering [start, end).
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    num_bins = max(0, int((end - start) / bin_width + 1e-9))
    totals = [0.0] * num_bins
    for time, weight in points:
        index = int((time - start) / bin_width)
        if 0 <= index < num_bins:
            totals[index] += weight
    return [(start + i * bin_width, totals[i] / bin_width) for i in range(num_bins)]


def downtime_windows(commit_times, start, end, min_window=0.3):
    """(longest_gap, total_downtime) between consecutive commits.

    Gaps shorter than ``min_window`` are ignored (normal scheduling jitter);
    a longer gap counts in full.
    """
    if end <= start:
        return 0.0, 0.0
    boundaries = [start] + list(commit_times) + [end]
    longest = 0.0
    total = 0.0
    for earlier, later in zip(boundaries, boundaries[1:]):
        gap = later - earlier
        if gap >= min_window:
            total += gap
            longest = max(longest, gap)
    return longest, total
