"""Wall-clock profiler for simulation runs.

The profiler observes the event loop from the outside: while active, the
kernel routes every dispatched callback through :meth:`Profiler.dispatch`,
which classifies the callback (by inspecting the suspended generator stack
of the process being resumed), times it with ``time.perf_counter`` and
accumulates host-CPU wall time per subsystem and per process.

Determinism guarantee: the profiler never schedules events, never reads or
advances virtual time, and never draws randomness. It only *wraps* each
callback invocation, so the simulated timeline — event order, timestamps,
results — is byte-identical with and without it. The equivalence is covered
by ``tests/test_profiling.py``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.profiling.counters import COUNTERS
from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.process import Process

#: Path fragments (checked in order) mapping code locations to subsystems.
#: More specific fragments come first: ``sim/network.py`` is "network" even
#: though the generic ``/sim/`` bucket is "kernel".
_SUBSYSTEM_RULES = (
    ("/sim/network.py", "network"),
    ("/sim/rpc.py", "network"),
    ("/migration/", "migration"),
    ("/txn/", "txn"),
    ("/storage/", "storage"),
    ("/cluster/", "cluster"),
    ("/workloads/", "workload"),
    ("/faults/", "faults"),
    ("/experiments/", "experiment"),
    ("/sim/", "kernel"),
)


def _subsystem_for(filename: str) -> str:
    filename = filename.replace("\\", "/")
    for fragment, name in _SUBSYSTEM_RULES:
        if fragment in filename:
            return name
    return "other"


class Profiler:
    """Context manager that attributes a run's wall time to subsystems.

    Usage::

        with Profiler() as prof:
            sim.run()
        report = prof.report()

    Only one profiler may be active at a time (they hook a class attribute
    on :class:`~repro.sim.kernel.Simulator`).
    """

    def __init__(self) -> None:
        # subsystem -> [wall_seconds, dispatch_count]
        self._subsystems: dict[str, list] = {}
        # process name -> [wall_seconds, dispatch_count]
        self._processes: dict[str, list] = {}
        self._dispatches = 0
        self._wall_start: float | None = None
        self._wall_total = 0.0
        self._code_cache: dict[str, str] = {}
        self._counters_before: dict | None = None
        #: Stamped by the kernel's profiled run loop; lets :meth:`report`
        #: include simulated time without the caller passing the Simulator.
        self.last_sim: Simulator | None = None

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        if Simulator._active_profiler is not None:
            raise SimulationError("a Profiler is already active")
        Simulator._active_profiler = self
        self._counters_before = dict(
            (name, getattr(COUNTERS, name)) for name in COUNTERS.__slots__
        )
        self._wall_start = perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._wall_start is not None:
            self._wall_total += perf_counter() - self._wall_start
            self._wall_start = None
        Simulator._active_profiler = None

    # ------------------------------------------------------------------
    # Hot hook (called by the kernel for every dispatched event)
    # ------------------------------------------------------------------
    def dispatch(self, callback: Callable[..., object], args: tuple) -> None:
        """Classify, invoke and time one event callback."""
        subsystem, process_name = self._attribute(callback)
        start = perf_counter()
        callback(*args)
        elapsed = perf_counter() - start
        self._dispatches += 1
        bucket = self._subsystems.get(subsystem)
        if bucket is None:
            bucket = self._subsystems[subsystem] = [0.0, 0]
        bucket[0] += elapsed
        bucket[1] += 1
        if process_name is not None:
            pbucket = self._processes.get(process_name)
            if pbucket is None:
                pbucket = self._processes[process_name] = [0.0, 0]
            pbucket[0] += elapsed
            pbucket[1] += 1

    def _attribute(self, callback: Callable[..., object]) -> tuple:
        """(subsystem, process_name_or_None) for a scheduled callback.

        Resuming a process is attributed to the *innermost* suspended
        generator frame — the code that actually executes when the process
        wakes — found by walking the ``gi_yieldfrom`` chain; the process is
        the wakeup callback's ``__self__``. Non-process callbacks (event
        completions, bare functions) classify by their own code object.
        """
        owner = getattr(callback, "__self__", None)
        if not isinstance(owner, Process):
            # An AllOf/AnyOf wait wakes its process through a waiter object.
            owner = getattr(owner, "process", None) or owner
        if isinstance(owner, Process):
            generator = owner._generator
            while True:
                sub = getattr(generator, "gi_yieldfrom", None)
                if sub is None or not hasattr(sub, "gi_code"):
                    break
                generator = sub
            code = getattr(generator, "gi_code", None)
            if code is None:
                return "other", owner.name
            return self._cached_subsystem(code.co_filename), owner.name
        if isinstance(owner, Event):
            return "kernel", None
        func = getattr(callback, "__func__", callback)
        code = getattr(func, "__code__", None)
        if code is None:
            return "other", None
        return self._cached_subsystem(code.co_filename), None

    def _cached_subsystem(self, filename: str) -> str:
        subsystem = self._code_cache.get(filename)
        if subsystem is None:
            subsystem = self._code_cache[filename] = _subsystem_for(filename)
        return subsystem

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, sim: Simulator | None = None, top: int = 12) -> dict:
        """Structured report: per-subsystem wall time, top processes, counters."""
        if sim is None:
            sim = self.last_sim
        wall = self._wall_total
        if self._wall_start is not None:  # still active
            wall += perf_counter() - self._wall_start
        attributed = sum(bucket[0] for bucket in self._subsystems.values())
        subsystems = {}
        for name in sorted(
            self._subsystems, key=lambda n: self._subsystems[n][0], reverse=True
        ):
            sub_wall, count = self._subsystems[name]
            subsystems[name] = {
                "wall_s": round(sub_wall, 6),
                "pct": round(100.0 * sub_wall / attributed, 2) if attributed else 0.0,
                "dispatches": count,
            }
        processes = [
            {"name": name, "wall_s": round(bucket[0], 6), "dispatches": bucket[1]}
            for name, bucket in sorted(
                self._processes.items(), key=lambda item: item[1][0], reverse=True
            )[:top]
        ]
        counters = COUNTERS.to_dict()
        if self._counters_before is not None:
            for name, before in self._counters_before.items():
                counters[name] = counters[name] - before
            counters["derived"] = COUNTERS.derived()
        payload = {
            "wall_time_s": round(wall, 6),
            "dispatches": self._dispatches,
            "dispatch_rate_per_s": round(self._dispatches / wall, 1) if wall else 0.0,
            "subsystems": subsystems,
            "top_processes": processes,
            "fastpath_counters": counters,
        }
        if sim is not None:
            payload["sim_time_s"] = round(sim.now, 6)
            payload["pending_events"] = sim.pending_events
        return payload


def format_report(report: dict) -> str:
    """Render a :meth:`Profiler.report` payload as an aligned text table."""
    lines = []
    if "sim_time_s" in report:
        lines.append("simulated time : {:.3f} s".format(report["sim_time_s"]))
    lines.append("wall time      : {:.3f} s".format(report["wall_time_s"]))
    lines.append(
        "dispatches     : {} ({:.0f}/s)".format(
            report["dispatches"], report["dispatch_rate_per_s"]
        )
    )
    lines.append("")
    lines.append("{:<12} {:>10} {:>7} {:>12}".format("subsystem", "wall (s)", "%", "dispatches"))
    for name, row in report["subsystems"].items():
        lines.append(
            "{:<12} {:>10.4f} {:>6.1f}% {:>12}".format(
                name, row["wall_s"], row["pct"], row["dispatches"]
            )
        )
    if report["top_processes"]:
        lines.append("")
        lines.append("top processes:")
        for row in report["top_processes"]:
            lines.append(
                "  {:<40} {:>9.4f} s {:>9} dispatches".format(
                    row["name"][:40], row["wall_s"], row["dispatches"]
                )
            )
    derived = report["fastpath_counters"].get("derived") or {}
    if derived:
        lines.append("")
        lines.append("fast-path ratios:")
        for name, value in sorted(derived.items()):
            lines.append("  {:<28} {}".format(name, value))
    return "\n".join(lines)
