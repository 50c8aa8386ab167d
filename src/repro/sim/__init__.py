"""Deterministic discrete-event simulation kernel.

The kernel provides the virtual-time substrate on which the simulated
distributed database runs: an event heap (:class:`~repro.sim.kernel.Simulator`),
generator-based cooperative processes (:class:`~repro.sim.process.Process`),
waitable events (:class:`~repro.sim.events.Event`), capacity-limited CPU
resources with usage accounting (:class:`~repro.sim.resources.CpuResource`) and
a latency/bandwidth network model (:class:`~repro.sim.network.Network`).

A process is a Python generator that yields *waitables*:

- a ``float``/``int`` or :class:`~repro.sim.events.Timeout` — sleep for a delay,
- an :class:`~repro.sim.events.Event` — wait until it is triggered,
- the :class:`~repro.sim.events.Charge` handed back by
  :meth:`CpuResource.use <repro.sim.resources.CpuResource.use>` — wait for
  that CPU work (yield it at once; one process per charge),
- another :class:`~repro.sim.process.Process` — join it,
- :class:`~repro.sim.events.AllOf` — wait for several waitables at once.

All state transitions happen between yields, so protocol state machines are
exact and runs are fully deterministic for a given seed. The
:class:`~repro.sim.kernel.Simulator` is the one event loop: every scenario,
benchmark and storm drives it, and nothing subclasses it.
"""

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, At, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.network import BACKUP_CLASS, MIGRATION_CLASS, Network
from repro.sim.process import Process, join
from repro.sim.resources import CpuResource, Resource
from repro.sim.rng import RngStream, SeedSequence
from repro.sim.rpc import RetryPolicy, RpcStats, RpcTimeout, reliable_send
from repro.sim.topology import LinkProfile, Topology, make_topology

__all__ = [
    "AllOf",
    "AnyOf",
    "At",
    "BACKUP_CLASS",
    "CpuResource",
    "Event",
    "Interrupt",
    "LinkProfile",
    "MIGRATION_CLASS",
    "Network",
    "Topology",
    "Process",
    "Resource",
    "RetryPolicy",
    "RngStream",
    "RpcStats",
    "RpcTimeout",
    "SeedSequence",
    "SimulationError",
    "Simulator",
    "Timeout",
    "join",
    "make_topology",
    "reliable_send",
]
