"""The one remaining driving-mode switch: ``batch_workload``.

Hint bits, shared snapshots, group commit, the uncontended-lock fast path
and the migration scan/pump/replay batching are how the engine works, with
no switch and no slow twin; ``tests/test_fastpath_equivalence.py`` pins
their simulated timelines as golden digests.

``batch_workload``
    Population-level arrival dispatch (``repro.workloads.batch``): one
    dispatcher process walks the shared arrival schedule and spawns
    transaction runners, instead of one pacer process per simulated client.
    Timeline-byte-identical to the per-client mode (arrival instants come
    from the same RNG draws and are globally unique). Defaults **off**: it
    swaps the driving machinery rather than a hot path inside it, so the
    storm harness and ``repro bench --cluster`` opt in explicitly. It stays
    a flag while the end-to-end benchmark's storm scenario selects it
    through :func:`overridden`; making the batch dispatcher the only
    arrival driver goes with the next change to that benchmark.
"""

from __future__ import annotations

from contextlib import contextmanager

batch_workload: bool = False

_FLAG_NAMES = ("batch_workload",)


@contextmanager
def overridden(**values: bool):
    """Context manager: temporarily set flags, restoring them on exit."""
    unknown = sorted(set(values) - set(_FLAG_NAMES))
    if unknown:
        raise ValueError(
            "unknown fast-path flag {!r}; known: {}".format(unknown[0], _FLAG_NAMES)
        )
    previous = {name: globals()[name] for name in values}
    globals().update({name: bool(value) for name, value in values.items()})
    try:
        yield
    finally:
        globals().update(previous)
