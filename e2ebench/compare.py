#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 e2ebench/compare.py A.json B.json [A2.json B2.json ...]

Each file is the results document ``run.py --out FILE`` writes for one pass
over every workload (``BASELINE.json`` is one); A is the base (parent) side,
B the change. For every
workload and end-to-end metric this prints both medians and quartiles over
the pairs, the relative delta with its base, the bound from BENCHMARK.json
and a verdict:

* ``unresolved``: the base side's own spread (distance between its quartiles
  over its median) exceeds the bound, so the pair of medians decides nothing;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than A's spread (which one pair
  has only where the run recorded the quartiles of its repeats) and, from ten
  pairs on, B wins at least nine tenths of the pairs (ties count for neither);
* ``unchanged``: everything else.

Metrics read in simulated time, and the run digest, are exact for a seed. When
both sides ran the same seeds they are compared exactly instead: ``identical``
or ``changed``, whatever the bound, because a change to the simulator's speed
must leave the modelled database untouched. The exit code is 1 when any
verdict is ``worse`` or ``changed``.
"""

import json
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Measured on the host clock or the host's memory: never exact.
HOST_METRICS = ("commits_per_host_s", "setup_s", "peak_rss_mb")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_of(values, within_run=None):
    """Distance between the quartiles as a share of the median. A single run
    falls back on the quartiles of its own repeats, when it recorded them;
    without either there is no spread to speak of (None)."""
    if len(values) >= 2:
        q1, q2, q3 = quartiles(values)
    elif within_run:
        q1, q2, q3 = within_run
    else:
        return None
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(a_values, b_values, better, bound, within_run=None):
    """(verdict, delta, spread) of one metric on one workload."""
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    delta = (b_median - a_median) / a_median if a_median else 0.0
    gain = delta if better == "higher" else -delta
    spread = spread_of(a_values, within_run)
    if spread is not None and spread > bound:
        return "unresolved", delta, spread
    if gain < -bound:
        return "worse", delta, spread
    if spread is not None and gain > spread:
        wins = sum(
            1 for a, b in zip(a_values, b_values) if (b > a if better == "higher" else b < a)
        )
        losses = sum(
            1 for a, b in zip(a_values, b_values) if (b < a if better == "higher" else b > a)
        )
        if len(a_values) < 10 or wins >= 0.9 * (wins + losses):
            return "better", delta, spread
    return "unchanged", delta, spread


def _timed(document, workload):
    return document["workloads"][workload]["0"]


def compare(a_documents, b_documents, spec):
    """Rows of (workload, metric, a quartiles, b quartiles, delta, bound,
    spread, verdict)."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in a_documents[0]["workloads"]]
    for workload in workloads:
        a_runs = [_timed(d, workload) for d in a_documents]
        b_runs = [_timed(d, workload) for d in b_documents]
        same_seeds = [r["seed"] for r in a_runs] == [r["seed"] for r in b_runs]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [r["metrics"][name]["value"] for r in a_runs]
            b_values = [r["metrics"][name]["value"] for r in b_runs]
            within = a_runs[0]["detail"].get(name + "_quartiles")
            outcome, delta, spread = verdict(
                a_values, b_values, metric["better"], metric["bound"], within
            )
            if name not in HOST_METRICS and same_seeds:
                outcome = "identical" if a_values == b_values else "changed"
            rows.append(
                (workload, name, quartiles(a_values), quartiles(b_values), delta,
                 metric["bound"], spread, outcome)
            )
        if same_seeds:
            a_digests = [r["detail"]["digest"] for r in a_runs]
            b_digests = [r["detail"]["digest"] for r in b_runs]
            rows.append((workload, "run.digest", None, None, 0.0, 0.0, 0.0,
                         "identical" if a_digests == b_digests else "changed"))
    return rows


def main(argv):
    paths = argv[1:]
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__)
        return 2
    documents = []
    for path in paths:
        with open(path) as handle:
            documents.append(json.load(handle))
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = compare(documents[0::2], documents[1::2], spec)
    pairs = len(paths) // 2
    print("{} pair(s); base = A; {} per side".format(
        pairs, "q1/median/q3 over the pairs" if pairs > 1 else "one value"))
    header = "{:<16} {:<28} {:>30} {:>30} {:>9} {:>6} {:>7}  {}"
    cell = "{:.4g}/{:.4g}/{:.4g}" if pairs > 1 else "{1:.6g}"
    print(header.format("workload", "metric", "A", "B", "delta", "bound", "spread", "verdict"))
    for workload, name, a_q, b_q, delta, bound, spread, outcome in rows:
        if a_q is None:
            print("{:<16} {:<28} {}".format(workload, name, outcome))
            continue
        print(header.format(
            workload, name,
            cell.format(*a_q), cell.format(*b_q),
            "{:+.2%}".format(delta), "{:.1%}".format(bound),
            "n/a" if spread is None else "{:.1%}".format(spread), outcome,
        ))
    return 1 if any(row[7] in ("worse", "changed") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
