"""Timestamp ordering schemes: centralized GTS and decentralized DTS.

*GTS* (§2.2 "Centralized Coordination") is a monotonically increasing
sequencer hosted on the control-plane node; every start/commit timestamp
costs a network round trip, which is why the paper finds DTS faster.

*DTS* (§2.2 "Decentralized Coordination") gives each node a Hybrid Logical
Clock — a physical clock (subject to per-node skew) fused with a logical
counter that tracks causality: every cross-node message carries the sender's
clock and advances the receiver's (``observe``), so dependent transactions
are always correctly ordered even though independent sessions on different
nodes may read slightly stale snapshots.

Both oracles expose the same generator-based interface:

    start_ts = yield from oracle.start_timestamp(node_id)
    commit_ts = yield from oracle.commit_timestamp(node_id, floor_ts)
    oracle.observe(node_id, some_remote_ts)
    oracle.carry(src_node_id, dst_node_id)  # a hop piggybacks src's clock
"""

from __future__ import annotations

# Timestamps are integers: (physical microseconds << LOGICAL_BITS) | logical.
LOGICAL_BITS = 16


def encode_hlc(physical_micros: int, logical: int = 0) -> int:
    return (physical_micros << LOGICAL_BITS) | logical


def decode_hlc(ts: int) -> tuple[int, int]:
    return ts >> LOGICAL_BITS, ts & ((1 << LOGICAL_BITS) - 1)


class HybridLogicalClock:
    """One node's HLC: monotone, causality-tracking, physically anchored."""

    def __init__(self, sim, skew: float = 0.0) -> None:
        self.sim = sim
        self.skew = skew
        self._last = 0

    def _physical(self) -> int:
        return encode_hlc(int((self.sim.now + self.skew) * 1e6))

    def now(self) -> int:
        """Advance the clock and return a fresh, strictly increasing ts."""
        candidate = max(self._physical(), self._last + 1)
        self._last = candidate
        return candidate

    def update(self, observed_ts: int) -> None:
        """Merge a timestamp observed on an incoming message (causality)."""
        if observed_ts > self._last:
            self._last = observed_ts

    def peek(self) -> int:
        return max(self._physical(), self._last)


class DtsOracle:
    """Decentralized timestamps: per-node HLCs, no network round trips."""

    name = "dts"

    def __init__(self, sim, skew_by_node=None, default_skew=0.0):
        self.sim = sim
        self._skews = dict(skew_by_node or {})
        self._default_skew = default_skew
        self._clocks = {}

    def clock(self, node_id: str) -> HybridLogicalClock:
        if node_id not in self._clocks:
            skew = self._skews.get(node_id, self._default_skew)
            self._clocks[node_id] = HybridLogicalClock(self.sim, skew=skew)
        return self._clocks[node_id]

    def start_timestamp(self, node_id):
        return self.clock(node_id).now()
        yield  # pragma: no cover - makes this a generator like GTS's

    def commit_timestamp(self, node_id, floor_ts=0):
        clock = self.clock(node_id)
        clock.update(floor_ts)
        return clock.now()
        yield  # pragma: no cover

    def observe(self, node_id: str, ts: int) -> None:
        self.clock(node_id).update(ts)

    def carry(self, src: str, dst: str) -> None:
        """A hop from ``src`` to ``dst`` piggybacks ``src``'s clock."""
        source = self._clocks.get(src) or self.clock(src)
        target = self._clocks.get(dst) or self.clock(dst)
        ts = int((self.sim.now + source.skew) * 1e6) << LOGICAL_BITS
        if source._last > ts:
            ts = source._last
        if ts > target._last:
            target._last = ts

    def local_now(self, node_id: str) -> int:
        """A fresh timestamp from the node's clock (used for prepare acks)."""
        return self.clock(node_id).now()

    def safe_horizon(self) -> int:
        """A timestamp no future snapshot can precede (vacuum horizon)."""
        if not self._clocks:
            return 0
        return min(clock.peek() for clock in self._clocks.values())


class GtsOracle:
    """Centralized sequencer on the control plane (§2.2).

    Every request pays a round trip from the asking node to the control
    plane; requests from the control plane itself are local.
    """

    name = "gts"

    def __init__(self, sim, network, control_node_id="control-plane"):
        self.sim = sim
        self.network = network
        self.control_node_id = control_node_id
        self._counter = 0
        self.requests_served = 0

    def _next(self):
        self._counter += 1
        self.requests_served += 1
        return self._counter

    def start_timestamp(self, node_id):
        yield self.network.roundtrip(node_id, self.control_node_id)
        return self._next()

    def commit_timestamp(self, node_id, floor_ts=0):
        yield self.network.roundtrip(node_id, self.control_node_id)
        # The sequencer is globally monotonic, hence always above any
        # previously handed-out floor.
        ts = self._next()
        if ts <= floor_ts:
            self._counter = floor_ts + 1
            ts = self._counter
        return ts

    def observe(self, node_id, ts):
        """GTS timestamps are globally ordered already; nothing to merge."""

    carry = observe  # nor anything to piggyback

    def local_now(self, node_id):
        """Non-blocking sequencer peek used for prepare acks."""
        return self._counter

    def safe_horizon(self):
        return self._counter
