"""RPC helper: timeout + exponential backoff + bounded retry budget.

The network (:mod:`repro.sim.network`) models partitions and message loss by
*never firing* the arrival event of a dropped message. Any protocol step that
waits on a raw ``send`` would therefore hang forever under chaos. This module
wraps sends in the standard distributed-systems discipline:

- wait at most ``timeout`` seconds for the delivery event;
- on timeout, back off exponentially (capped) and retransmit;
- give up after ``max_attempts`` tries and raise :class:`RpcTimeout` —
  unless the policy is *persistent*, in which case the sender keeps
  retransmitting with capped backoff until the link heals (2PC decision
  delivery: a commit/abort decision must eventually reach every
  participant, it can never be "given up").

Retransmits are harmless in this model: the effect of a message happens at
the *receiver-side continuation* after the arrival event fires, so a
duplicate delivery simply wakes the same waiter once.

The coordinator, the 2PC prepare/commit legs and the migration propagation
send path all route their cross-node hops through :func:`reliable_send`.

When the link carries no fault state at send time the timeout machinery is
skipped entirely and the sender waits on the delivery event directly
(:func:`clean_send`): a clean link's message is guaranteed to arrive, and
dropping the ``AnyOf``/``Timeout`` allocation per message keeps the
fault-free hot path allocation-lean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.sim.errors import SimulationError
from repro.sim.events import AnyOf, Event, Timeout

if TYPE_CHECKING:
    from repro.sim.network import Network


class RpcTimeout(SimulationError):
    """An RPC exhausted its retry budget without an acknowledged delivery."""

    def __init__(self, src: str, dst: str, attempts: int) -> None:
        super().__init__(
            "rpc {} -> {} gave up after {} attempts".format(src, dst, attempts)
        )
        self.src = src
        self.dst = dst
        self.attempts = attempts


#: Retransmit backoff: doubles from the base per attempt, up to the cap.
BACKOFF_BASE = 0.02
BACKOFF_CAP = 0.5


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeout/retry discipline for one class of RPCs.

    ``timeout`` must comfortably exceed the fault-free one-way delivery time
    (sub-millisecond in the default cost model) so that retries only happen
    under injected faults. ``persistent`` policies never raise — they retry
    with capped backoff until delivery succeeds.
    """

    timeout: float = 0.05
    max_attempts: int = 4
    persistent: bool = False

    def backoff(self, attempt: int) -> float:
        """Delay before retransmit number ``attempt`` (1-based)."""
        return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))


#: Default bounded policy: statements, prepares, propagation transfers.
DEFAULT_POLICY = RetryPolicy()

#: Unbounded policy for 2PC decision delivery (commit/abort records).
PERSISTENT_POLICY = RetryPolicy(persistent=True, max_attempts=0)


def clean_send(
    network: "Network", src: str, dst: str, size: int = 0, traffic_class: str | None = None
) -> Event | None:
    """Send over a link that carries no fault state; ``None`` on any other.

    The returned arrival event is guaranteed to fire
    (:meth:`~repro.sim.network.Network.link_is_clean`), so the caller waits
    on it directly — no AnyOf/Timeout allocations, no dangling timeout
    entry left in the heap, and no generator frame of this module under the
    caller's. On ``None`` nothing was sent: fall back to
    :func:`reliable_send`.
    """
    if network.link_is_clean(src, dst):
        return network.send(src, dst, size, traffic_class)
    return None


def reliable_send(
    network: "Network",
    src: str,
    dst: str,
    size: int = 0,
    policy: RetryPolicy | None = None,
    stats: "RpcStats | None" = None,
    traffic_class: str | None = None,
) -> Generator:
    """Generator: deliver a one-way message with timeout + retry.

    Completes when one transmitted copy of the message has arrived. Raises
    :class:`RpcTimeout` once a bounded policy's budget is exhausted. Returns
    the number of transmission attempts (1 in the fault-free case). ``stats``
    (optional) is an object with ``rpc_timeouts``/``rpc_retries`` counters.
    ``traffic_class`` selects the contended network's fair-share class (the
    migration data path tags its bulk transfers so ``--pump-share`` can cap
    them; see :data:`repro.sim.network.MIGRATION_CLASS`).
    """
    policy = policy or DEFAULT_POLICY
    arrived = clean_send(network, src, dst, size, traffic_class)
    if arrived is not None:
        yield arrived
        return 1
    attempt = 0
    while True:
        attempt += 1
        arrived = network.send(src, dst, size, traffic_class)
        index, _value = yield AnyOf([arrived, Timeout(policy.timeout)])
        if index == 0:
            return attempt
        if stats is not None:
            stats.rpc_timeouts += 1
        if not policy.persistent and attempt >= policy.max_attempts:
            raise RpcTimeout(src, dst, attempt)
        if stats is not None:
            stats.rpc_retries += 1
        yield Timeout(policy.backoff(attempt))


class RpcStats:
    """Cluster-wide RPC health counters (fed into chaos reports)."""

    __slots__ = ("rpc_timeouts", "rpc_retries")

    def __init__(self) -> None:
        self.rpc_timeouts = 0
        self.rpc_retries = 0
