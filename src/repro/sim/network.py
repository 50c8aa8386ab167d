"""A topology-aware network model with latency, bandwidth and link faults.

The network prices messages between named nodes under one of two cost
models, selected by its :class:`~repro.sim.topology.Topology`:

**Uncontended (single-rack)** — the original flat model: each message takes
``base_latency`` plus a size-proportional transfer time, priced
independently of every other message. This is the constant-delay fast path
the clean-link RPC optimization (:mod:`repro.sim.rpc`) and the kernel
benches rely on; a single-rack topology is byte-identical, event for event,
to the pre-topology network.

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

from dataclasses import dataclass
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


@dataclass(slots=True)
class NetworkConfig:
    """Flat single-tier network cost model.

    The canonical home of the single-tier numbers
    (``ClusterConfig.network``) and of ``jitter``, which is a network-wide
    knob rather than a per-tier one. A network itself is always built from
    a :class:`Topology` (``Network.from_topology(sim, topology)``).

    Attributes:
        base_latency: one-way propagation + stack delay in seconds.
        bandwidth: bytes per second for size-dependent transfer time.
        jitter: max uniform extra delay in seconds (0 disables jitter).
    """

    base_latency: float = 0.0002
    bandwidth: float = 1.25e9  # 10 Gbps in bytes/second
    jitter: float = 0.0


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
    """Delivers messages between named nodes on a shared simulator."""

    def __init__(
        self,
        sim: "Simulator",
        config: NetworkConfig | None = None,
        *,
        topology: Topology,
    ) -> None:
        if config is None:
            rack = topology.profiles["rack"]
            config = NetworkConfig(base_latency=rack.latency, bandwidth=rack.bandwidth)
        self.sim = sim
        self.config = config
        self.topology = topology
        self.contended = topology.contended
        self._rng = sim.rng("network")
        self._links: dict[frozenset, LinkState] = {}  # frozenset({a, b}) -> LinkState
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        # Hot-path constants and the per-(src, dst) constant delay component
        # (base latency + link extra latency), rebuilt when faults change.
        # ``_fast_latency`` / ``_inv_bandwidth`` fold in a single-tier
        # degrade; with no degrade they equal the config values exactly.
        self._fast_latency = self.config.base_latency
        self._inv_bandwidth = 1.0 / self.config.bandwidth
        self._delay_cache: dict[tuple[str, str], float] = {}
        # Contention state: active trunks, per-class share caps, degrades.
        self._flows: dict[LinkKey, _LinkFlows] = {}
        self._class_caps: dict[str, float] = {}
        self._degrade: dict[str, tuple[float, float]] = {}  # tier -> (bw factor, extra)
        #: Set to a list to record ``(time, link key, per-transfer rates)``
        #: at every re-share — the bandwidth-conservation property tests
        #: assert over this trace. ``None`` (the default) records nothing.
        self.flow_trace: list[tuple[float, LinkKey, tuple[float, ...]]] | None = None

    @classmethod
    def from_topology(
        cls,
        sim: "Simulator",
        topology: Topology,
        config: NetworkConfig | None = None,
    ) -> "Network":
        """Build a network from a declarative :class:`Topology`.

        ``config`` (optional) supplies network-wide knobs that are not
        per-tier — today just ``jitter``; its latency/bandwidth are only
        used when the topology is single-rack, where they are the rack
        profile by construction.
        """
        return cls(sim, config, topology=topology)

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
        """The mutable :class:`LinkState` of the unordered pair ``{a, b}``.

        Handing out the mutable state may precede a fault injection, so the
        precomputed per-pair delays are invalidated here.
        """
        self._delay_cache.clear()
        key = frozenset((a, b))
        if key not in self._links:
            self._links[key] = LinkState()
        return self._links[key]

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self.link(a, b).partitioned = True

    def heal_partition(self, a: str, b: str) -> None:
        self.link(a, b).partitioned = False

    def is_partitioned(self, a: str, b: str) -> bool:
        if a == b:
            return False
        key = frozenset((a, b))
        state = self._links.get(key)
        return state is not None and state.partitioned

    def set_loss(self, a: str, b: str, p: float) -> None:
        """Drop messages between ``a`` and ``b`` with probability ``p``."""
        self.link(a, b).loss = p

    def set_extra_latency(self, a: str, b: str, extra: float) -> None:
        """Add ``extra`` seconds of one-way delay between ``a`` and ``b``."""
        self.link(a, b).extra_latency = extra

    def clear_link_faults(self) -> None:
        self._links.clear()
        self._delay_cache.clear()

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
        settled at their old rates and re-shared at the new bandwidth; on
        an uncontended (single-rack) network only the ``rack`` tier exists
        and the constant-delay pricing is rescaled.
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
        # Uncontended fast-path constants (single-rack: everything is
        # "rack"-tier). Recomputed from the base config so healing restores
        # the exact original floats.
        factor, extra = self._degrade.get("rack", (1.0, 0.0))
        self._fast_latency = self.config.base_latency + extra
        self._inv_bandwidth = 1.0 / (self.config.bandwidth * factor)
        self._delay_cache.clear()
        # Contended trunks of the degraded tier re-share at the new rate.
        tier_factor, _ = self._degrade.get(tier, (1.0, 0.0))
        for flows in self._flows.values():
            if flows.tier != tier:
                continue
            self._settle(flows)
            flows.bandwidth = flows.base_bandwidth * tier_factor
            if flows.transfers:
                self._reallocate(flows)

    def tier_degrade(self, tier: str) -> tuple[float, float]:
        """The (bandwidth factor, extra latency) degrade of ``tier``."""
        return self._degrade.get(tier, (1.0, 0.0))

    def clear_tier_degrades(self) -> None:
        for tier in list(self._degrade):
            self.set_tier_degrade(tier)

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

    def _link_state(self, src: str, dst: str) -> LinkState | None:
        if src == dst:
            return None
        return self._links.get(frozenset((src, dst)))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _constant_delay(self, src: str, dst: str) -> float:
        """Precomputed size-independent delay component for ``src -> dst``
        (base latency plus the link's extra latency), cached per pair until
        the fault state changes."""
        key = (src, dst)
        cached = self._delay_cache.get(key)
        if cached is None:
            cached = self._fast_latency
            state = self._link_state(src, dst)
            if state is not None:
                cached += state.extra_latency
            self._delay_cache[key] = cached
        return cached

    def delay_for(self, src: str, dst: str, size: int = 0) -> float:
        """One-way delay in seconds for a ``size``-byte message src -> dst.

        On a contended network this is the *uncontended* delay — the
        governing tier's latency plus the transfer time at full trunk
        bandwidth — i.e. a lower bound that competing transfers stretch.
        """
        if src == dst:
            return 0.0
        if self.contended:
            latency, inv_bandwidth = self._contended_price(src, dst)
            delay = latency + size * inv_bandwidth
        else:
            delay = self._constant_delay(src, dst) + size * self._inv_bandwidth
        if self.config.jitter > 0:
            delay += self._rng.uniform(0.0, self.config.jitter)
        return delay

    def _contended_price(self, src: str, dst: str) -> tuple[float, float]:
        """(latency, 1/bandwidth) of the governing trunk, degrades applied."""
        tier, _key = self.topology.route(src, dst)
        profile = self.topology.profiles[tier]
        factor, extra = self._degrade.get(tier, (1.0, 0.0))
        latency = profile.latency + extra
        state = self._link_state(src, dst)
        if state is not None:
            latency += state.extra_latency
        return latency, 1.0 / (profile.bandwidth * factor)

    def send(
        self, src: str, dst: str, size: int = 0, traffic_class: str | None = None
    ) -> Event:
        """Returns an event that succeeds when the message has arrived.

        On a partitioned or (probabilistically) lossy link the event never
        fires — the message is gone; the sender must detect the loss with a
        timeout and retry (:func:`repro.sim.rpc.reliable_send`).

        ``traffic_class`` only matters on contended networks, where it
        selects the fair-share class the message's bytes are accounted
        against (see :meth:`set_class_cap`).
        """
        self.messages_sent += 1
        self.bytes_sent += size
        sim = self.sim
        arrived = Event(sim)
        if self.contended:
            return self._send_contended(src, dst, size, traffic_class, arrived)
        if not self._links:
            # Fault-free fast path: no link lookups, no drop bookkeeping.
            if src == dst:
                sim.schedule(0.0, arrived.succeed_tail, None)
                return arrived
            delay = self._fast_latency + size * self._inv_bandwidth
            if self.config.jitter > 0:
                delay += self._rng.uniform(0.0, self.config.jitter)
            sim.schedule(delay, arrived.succeed_tail, None)
            return arrived
        state = self._link_state(src, dst)
        if state is not None and state.partitioned:
            self.messages_dropped += 1
            return arrived
        if state is not None and state.loss > 0.0 and self._rng.random() < state.loss:
            self.messages_dropped += 1
            return arrived
        sim.schedule(self.delay_for(src, dst, size), arrived.succeed_tail, None)
        return arrived

    # ------------------------------------------------------------------
    # Contended delivery: fair-share trunks
    # ------------------------------------------------------------------
    def _send_contended(
        self, src: str, dst: str, size: int, cls: str | None, arrived: Event
    ) -> Event:
        sim = self.sim
        if src == dst:
            sim.schedule(0.0, arrived.succeed_tail, None)
            return arrived
        state = self._link_state(src, dst)
        if state is not None and state.partitioned:
            self.messages_dropped += 1
            return arrived
        if state is not None and state.loss > 0.0 and self._rng.random() < state.loss:
            self.messages_dropped += 1
            return arrived
        tier, key = self.topology.route(src, dst)
        profile = self.topology.profiles[tier]
        factor, extra = self._degrade.get(tier, (1.0, 0.0))
        latency = profile.latency + extra
        if state is not None:
            latency += state.extra_latency
        if self.config.jitter > 0:
            latency += self._rng.uniform(0.0, self.config.jitter)
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
        flows.transfers.append(_Transfer(size, latency, cls, arrived))
        self._reallocate(flows)
        return arrived

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

    def in_flight(self, src: str, dst: str) -> int:
        """The number of transfers sharing the ``src -> dst`` trunk now."""
        _tier, key = self.topology.route(src, dst)
        flows = self._flows.get(key)
        return len(flows.transfers) if flows is not None else 0

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
