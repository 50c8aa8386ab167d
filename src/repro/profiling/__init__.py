"""Deterministic fast-path counters.

:mod:`repro.profiling.counters` holds plain-integer counters the storage,
transaction and migration fast paths bump (hint hits, snapshot cache hits,
flush coalescing, lock fast acquires). They never touch the simulator, so
they are always safe to leave on. Host time per layer is measured on the
real schedule by ``e2ebench/run.py --trace 1``.
"""

from repro.profiling.counters import COUNTERS, FastPathCounters

__all__ = ["COUNTERS", "FastPathCounters"]
