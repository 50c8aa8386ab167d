"""Text rendering of the paper's tables and figures.

Benchmarks print the same rows/series the paper reports; figures are rendered
as aligned text timelines (time, value, bar) so the *shape* — flat lines,
zero-throughput troughs, fluctuation — is visible in terminal output and in
the EXPERIMENTS.md transcript.
"""


def render_table(title, headers, rows):
    """Render an aligned text table. ``rows`` is a list of sequences."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(title, series, width=50, unit="", markers=None):
    """Render a (time, value) series as a text timeline with bars.

    ``markers`` maps times to single-character annotations (e.g. migration
    start/end), shown next to the matching rows.
    """
    lines = [title]
    if not series:
        lines.append("(empty series)")
        return "\n".join(lines)
    peak = max(value for _t, value in series) or 1.0
    markers = markers or {}
    for time, value in series:
        bar = "#" * int(round(width * value / peak))
        note = "".join(
            tag for mark_time, tag in markers.items() if abs(mark_time - time) < 0.5
        )
        lines.append(
            "{:>8.1f}s {:>12.1f}{} |{}{}".format(time, value, unit, bar, " " + note if note else "")
        )
    return "\n".join(lines)
