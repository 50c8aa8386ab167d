"""A topology-aware network model with latency, bandwidth and link faults.

The network prices messages between named nodes under one of two cost
models, selected by its :class:`~repro.sim.topology.Topology`:

**Uncontended** — the flat model: each message takes the topology's
``rack`` latency plus a size-proportional transfer time at the ``rack``
bandwidth, priced independently of every other message. Every message is
priced this way, even on a topology that spans several racks, AZs or
regions (the storm's ten-AZ ``contended=False`` topology is one). The
clean-link RPC optimization (:mod:`repro.sim.rpc`) waits on these arrivals
directly.

**Contended (multi-tier)** — every directed link is a shared resource. A
sized message becomes a *transfer* on its path's governing trunk (see
:meth:`Topology.route`: intra-rack node pair, rack uplink, AZ trunk or
region trunk), and all in-flight transfers on a trunk share its bandwidth
**fairly**: whenever a transfer starts or finishes, elapsed progress is
settled at the old rates and the trunk's bandwidth is re-divided equally
among the remaining transfers (deterministically, in transfer start order).
A traffic class can be capped below its fair share —
:meth:`set_class_cap` — which is how the migration pump's ``--pump-share``
throttle is enforced at the link layer. Zero-sized messages carry no bytes
and bypass the transfer machinery (pure latency).

Determinism: re-shares happen only inside scheduled events, completion
events are (re)scheduled through the simulator heap and therefore re-sort
by ``(time, seq)``, transfer bookkeeping iterates insertion-ordered lists,
and no wall clock or unseeded randomness is involved — contended timelines
replay exactly for a fixed seed.

For chaos testing every (unordered) node pair carries mutable fault state:

- **partitioned** links never deliver — the arrival event simply never
  fires, so callers must bound their wait with a timeout (see
  :mod:`repro.sim.rpc`);
- **lossy** links drop each message independently with probability ``p``,
  drawn from the network's seeded RNG stream so runs stay reproducible;
- **latency spikes** add a fixed extra one-way delay.

Whole *tiers* can additionally be degraded —
:meth:`set_tier_degrade` — scaling every matching trunk's bandwidth and
adding latency (a brown-out of the inter-AZ trunk, say) without marking
individual links faulty.

Dropped and partitioned messages still count in ``messages_sent`` /
``bytes_sent`` (the sender did put them on the wire); they are additionally
tallied in ``messages_dropped``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.sim.events import AllOf, Event
from repro.sim.topology import LinkKey, Topology

if TYPE_CHECKING:
    from repro.sim.kernel import ScheduledCall, Simulator

#: Traffic class of migration data-path sends (snapshot copy, WAL pump,
#: Squall pulls). Capped to the ``pump_share`` fraction of any contended
#: trunk via :meth:`Network.set_class_cap`.
MIGRATION_CLASS = "migration"

#: Traffic class of background bulk traffic (the backup-interference
#: scenario). Uncapped by default: it competes at fair share.
BACKUP_CLASS = "backup"


class LinkState:
    """Mutable fault state of one (unordered) node pair."""

    __slots__ = ("partitioned", "loss", "extra_latency")

    def __init__(self) -> None:
        self.partitioned = False
        self.loss = 0.0
        self.extra_latency = 0.0

    @property
    def faulty(self) -> bool:
        return self.partitioned or self.loss > 0.0 or self.extra_latency > 0.0


class _Transfer:
    """One in-flight sized message on a contended trunk."""

    __slots__ = ("bytes_left", "rate", "latency", "cls", "event", "handle")

    def __init__(self, size: float, latency: float, cls: str | None, event: Event) -> None:
        self.bytes_left = float(size)
        self.rate = 0.0
        self.latency = latency
        self.cls = cls
        self.event = event
        self.handle: "ScheduledCall | None" = None


class _LinkFlows:
    """The in-flight transfer set of one directed trunk."""

    __slots__ = ("key", "tier", "base_bandwidth", "bandwidth", "transfers", "last_update")

    def __init__(self, key: LinkKey, tier: str, bandwidth: float, now: float) -> None:
        self.key = key
        self.tier = tier
        self.base_bandwidth = bandwidth  # profile bandwidth, before degrade
        self.bandwidth = bandwidth  # effective (degraded) bandwidth
        self.transfers: list[_Transfer] = []
        self.last_update = now


class Network:
    """Delivers messages between named nodes on a shared simulator.

    The :class:`Topology` is the network's only description. An
    uncontended network prices every message at the topology's ``rack``
    profile, even when the topology places nodes in several racks, AZs or
    regions; only a contended network routes messages onto tier trunks.
    """

    def __init__(self, sim: "Simulator", topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self.contended = topology.contended
        self._rng = sim.rng("network")
        self._links: dict[frozenset, LinkState] = {}  # frozenset({a, b}) -> LinkState
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        # Uncontended pricing: the rack profile with a ``rack``-tier degrade
        # folded in; with no degrade they equal the profile's floats exactly.
        self._rack = topology.profiles["rack"]
        self._fast_latency = self._rack.latency
        self._inv_bandwidth = 1.0 / self._rack.bandwidth
        # Contention state: active trunks, per-class share caps, degrades.
        self._flows: dict[LinkKey, _LinkFlows] = {}
        self._class_caps: dict[str, float] = {}
        self._degrade: dict[str, tuple[float, float]] = {}  # tier -> (bw factor, extra)
        #: Set to a list to record ``(time, link key, per-transfer rates)``
        #: at every re-share — the bandwidth-conservation property tests
        #: assert over this trace. ``None`` (the default) records nothing.
        self.flow_trace: list[tuple[float, LinkKey, tuple[float, ...]]] | None = None

    # ------------------------------------------------------------------
    # Traffic classes (fair-share caps)
    # ------------------------------------------------------------------
    def set_class_cap(self, cls: str, share: float) -> None:
        """Cap traffic class ``cls`` at ``share`` of any contended trunk.

        The class's transfers collectively receive at most ``share`` of a
        link's bandwidth (and never more than their fair share), with the
        remainder re-divided among uncapped transfers. ``share >= 1``
        removes the cap. No effect on uncontended networks, where messages
        are priced independently.
        """
        if share >= 1.0:
            self._class_caps.pop(cls, None)
        elif share > 0.0:
            self._class_caps[cls] = share
        else:
            raise ValueError("class share cap must be positive (got {})".format(share))
        for flows in self._flows.values():
            if flows.transfers:
                self._settle(flows)
                self._reallocate(flows)

    def class_cap(self, cls: str) -> float:
        """The configured share cap of ``cls`` (1.0 when uncapped)."""
        return self._class_caps.get(cls, 1.0)

    # ------------------------------------------------------------------
    # Link fault state (chaos injection)
    # ------------------------------------------------------------------
    def link(self, a: str, b: str) -> LinkState:
        """The mutable :class:`LinkState` of the unordered pair ``{a, b}``."""
        key = frozenset((a, b))
        if key not in self._links:
            self._links[key] = LinkState()
        return self._links[key]

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self.link(a, b).partitioned = True

    def heal_partition(self, a: str, b: str) -> None:
        self.link(a, b).partitioned = False

    def set_loss(self, a: str, b: str, p: float) -> None:
        """Drop messages between ``a`` and ``b`` with probability ``p``."""
        self.link(a, b).loss = p

    def set_extra_latency(self, a: str, b: str, extra: float) -> None:
        """Add ``extra`` seconds of one-way delay between ``a`` and ``b``."""
        self.link(a, b).extra_latency = extra

    # ------------------------------------------------------------------
    # Tier degrades (topology-aware faults)
    # ------------------------------------------------------------------
    def set_tier_degrade(
        self, tier: str, bandwidth_factor: float = 1.0, extra_latency: float = 0.0
    ) -> None:
        """Degrade every trunk of ``tier``: scale its bandwidth by
        ``bandwidth_factor`` and add ``extra_latency`` seconds one-way.

        ``bandwidth_factor=1.0, extra_latency=0.0`` heals the tier. On a
        contended network, in-flight transfers on matching trunks are
        settled at their old rates and re-shared at the new bandwidth; an
        uncontended network prices every message at the ``rack`` profile,
        so only a ``rack`` degrade changes its pricing.
        """
        if bandwidth_factor <= 0.0:
            raise ValueError(
                "bandwidth_factor must be positive (got {}); use partition() "
                "to cut links entirely".format(bandwidth_factor)
            )
        if bandwidth_factor == 1.0 and extra_latency == 0.0:
            self._degrade.pop(tier, None)
        else:
            self._degrade[tier] = (bandwidth_factor, extra_latency)
        # Uncontended pricing constants (everything is priced at the rack
        # profile). Recomputed from the profile so healing restores the
        # exact original floats.
        factor, extra = self._degrade.get("rack", (1.0, 0.0))
        self._fast_latency = self._rack.latency + extra
        self._inv_bandwidth = 1.0 / (self._rack.bandwidth * factor)
        # Contended trunks of the degraded tier re-share at the new rate.
        tier_factor, _ = self._degrade.get(tier, (1.0, 0.0))
        for flows in self._flows.values():
            if flows.tier != tier:
                continue
            self._settle(flows)
            flows.bandwidth = flows.base_bandwidth * tier_factor
            if flows.transfers:
                self._reallocate(flows)

    def link_is_clean(self, src: str, dst: str) -> bool:
        """True when no fault state can affect a message ``src -> dst``.

        A clean link's messages are always delivered after a deterministic
        delay — under contention the delay depends on competing transfers,
        but delivery remains guaranteed — so callers (:mod:`repro.sim.rpc`)
        may wait on the arrival event directly instead of arming a timeout.
        Fault state injected *after* a send never affects that message
        (loss and partition are decided at send time), so this test at send
        time is sufficient. Tier degrades slow links down without making
        them faulty.
        """
        if not self._links:
            return True
        if src == dst:
            return True
        state = self._links.get(frozenset((src, dst)))
        return state is None or not state.faulty

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(
        self, src: str, dst: str, size: int = 0, traffic_class: str | None = None
    ) -> Event:
        """Returns an event that succeeds when the message has arrived.

        On a partitioned or (probabilistically) lossy link the event never
        fires — the message is gone; the sender must detect the loss with a
        timeout and retry (:func:`repro.sim.rpc.reliable_send`).

        An uncontended network prices the message at the rack profile:
        ``latency (+ link extra) + size / bandwidth``. A contended one
        streams its bytes as a transfer on the governing trunk, where
        ``traffic_class`` selects the fair-share class the bytes are
        accounted against (see :meth:`set_class_cap`).
        """
        self.messages_sent += 1
        self.bytes_sent += size
        sim = self.sim
        arrived = Event(sim)
        if src == dst:
            sim.schedule(0.0, arrived.succeed_tail, None)
            return arrived
        state = self._links.get(frozenset((src, dst))) if self._links else None
        if state is not None and (
            state.partitioned or (state.loss > 0.0 and self._rng.random() < state.loss)
        ):
            self.messages_dropped += 1
            return arrived
        if not self.contended:
            latency = self._fast_latency
            if state is not None:
                latency += state.extra_latency
            sim.schedule(latency + size * self._inv_bandwidth, arrived.succeed_tail, None)
            return arrived
        tier, key = self.topology.route(src, dst)
        profile = self.topology.profiles[tier]
        factor, extra = self._degrade.get(tier, (1.0, 0.0))
        latency = profile.latency + extra
        if state is not None:
            latency += state.extra_latency
        if size <= 0:
            # No bytes to stream: pure latency, no trunk occupancy.
            sim.schedule(latency, arrived.succeed_tail, None)
            return arrived
        flows = self._flows.get(key)
        if flows is None:
            flows = _LinkFlows(key, tier, profile.bandwidth, sim.now)
            flows.bandwidth = flows.base_bandwidth * factor
            self._flows[key] = flows
        self._settle(flows)
        flows.transfers.append(_Transfer(size, latency, traffic_class, arrived))
        self._reallocate(flows)
        return arrived

    # ------------------------------------------------------------------
    # Contended delivery: fair-share trunks
    # ------------------------------------------------------------------
    def _settle(self, flows: _LinkFlows) -> None:
        """Charge progress since the trunk's last re-share at the old rates."""
        now = self.sim.now
        elapsed = now - flows.last_update
        if elapsed > 0.0:
            for transfer in flows.transfers:
                remaining = transfer.bytes_left - elapsed * transfer.rate
                transfer.bytes_left = remaining if remaining > 0.0 else 0.0
        flows.last_update = now

    def _reallocate(self, flows: _LinkFlows) -> None:
        """Re-divide the trunk's bandwidth and reschedule completions.

        Equal share per transfer, except that each *capped* class (see
        :meth:`set_class_cap`) collectively receives
        ``min(cap * bandwidth, its fair aggregate share)``; the remainder
        is divided equally among uncapped transfers. The per-interval sum
        of rates therefore never exceeds the trunk bandwidth (the
        conservation property tests pin this on :attr:`flow_trace`).
        """
        transfers = flows.transfers
        total = len(transfers)
        if total == 0:
            del self._flows[flows.key]
            return
        bandwidth = flows.bandwidth
        caps = self._class_caps
        uncapped_rate = bandwidth / total  # single-class common case
        capped_rates: dict[str, float] = {}
        if caps:
            counts: dict[str | None, int] = {}
            for transfer in transfers:
                counts[transfer.cls] = counts.get(transfer.cls, 0) + 1
            capped_total = 0.0
            uncapped = 0
            for cls, count in counts.items():
                cap = caps.get(cls) if cls is not None else None
                if cap is None:
                    uncapped += count
                    continue
                class_total = min(cap * bandwidth, bandwidth * count / total)
                capped_rates[cls] = class_total / count
                capped_total += class_total
            if uncapped:
                uncapped_rate = (bandwidth - capped_total) / uncapped
        sim = self.sim
        for transfer in transfers:
            transfer.rate = capped_rates.get(transfer.cls, uncapped_rate)  # type: ignore[arg-type]
            if transfer.handle is not None:
                sim.cancel(transfer.handle)
            transfer.handle = sim.schedule(
                transfer.bytes_left / transfer.rate, self._finish, flows, transfer
            )
        if self.flow_trace is not None:
            self.flow_trace.append(
                (sim.now, flows.key, tuple(t.rate for t in transfers))
            )

    def _finish(self, flows: _LinkFlows, transfer: _Transfer) -> None:
        """A transfer drained its bytes: free its share, then deliver."""
        self._settle(flows)
        flows.transfers.remove(transfer)
        transfer.handle = None
        self._reallocate(flows)  # deletes the trunk entry when idle
        if transfer.latency > 0.0:
            self.sim.schedule(transfer.latency, transfer.event.succeed_tail, None)
        else:
            transfer.event.succeed_tail(None)

    # ------------------------------------------------------------------
    def roundtrip(
        self,
        src: str,
        dst: str,
        request_size: int = 0,
        response_size: int = 0,
        traffic_class: str | None = None,
    ) -> Event:
        """Returns an event for a request/response pair's total delay.

        Composed of two :meth:`send` events (request, then response once the
        request arrived) so that partition, loss, latency and contention
        effects apply to each direction exactly as they do to plain sends.
        Message and byte accounting is identical to issuing the two sends
        directly.
        """
        done = self.sim.event(name="rpc:{}<->{}".format(src, dst))

        def _request_arrived(_event):
            response = self.send(dst, src, response_size, traffic_class)
            response.add_callback(lambda _ev: done.succeed(None))

        request = self.send(src, dst, request_size, traffic_class)
        request.add_callback(_request_arrived)
        return done

    def broadcast(self, src: str, dsts: Iterable[str], size: int = 0) -> AllOf:
        """Waitable that completes when the message reached every node."""
        return AllOf([self.send(src, dst, size) for dst in dsts])
