"""Declarative cluster topology: regions → AZs → racks → nodes.

A :class:`Topology` places every node in a rack, every rack in an
availability zone (AZ) and every AZ in a region, and assigns one
:class:`LinkProfile` — a (latency, bandwidth) pair — to each *tier* of the
hierarchy. A message's cost is governed by the **highest boundary its path
crosses**:

========  =======================================  =========================
tier      when it governs a path ``src -> dst``    shared trunk (link key)
========  =======================================  =========================
rack      same rack, different nodes               the ``(src, dst)`` pair
az        same AZ, different racks                 the rack uplink pair
region    same region, different AZs               the AZ trunk pair
geo       different regions                        the region trunk pair
========  =======================================  =========================

The link-key column is the contention domain: every transfer whose path's
governing boundary is the same ordered pair of units shares that trunk's
bandwidth (see :mod:`repro.sim.network`). Within a rack the switch is
modelled as non-blocking, so each directed node pair is its own link; above
the rack, flows aggregate onto the tier trunk — exactly where cross-AZ
bandwidth becomes the scarce resource.

Nodes that are *not* named in the topology (the control plane, nodes added
by scale-out after construction) are placed in the topology's **default
rack** — the first rack declared — which keeps placement deterministic and
makes the degenerate single-rack topology accept any node name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

#: Tier names from the tightest to the widest boundary. ``rack`` is the
#: intra-rack tier (same rack, distinct nodes); ``geo`` is cross-region.
TIERS: tuple[str, ...] = ("rack", "az", "region", "geo")

#: A node's position: (region, az, rack), each a fully qualified unit name.
Placement = tuple[str, str, str]

#: A contention domain: (tier, src unit, dst unit), directed.
LinkKey = tuple[str, str, str]


@dataclass(frozen=True, slots=True)
class LinkProfile:
    """The cost model of one topology tier.

    Attributes:
        latency: one-way propagation + stack delay in seconds.
        bandwidth: bytes per second of trunk capacity shared by every
            transfer whose path is governed by this tier.
    """

    latency: float
    bandwidth: float


class Topology:
    """Node placement plus per-tier link profiles.

    Build one declaratively with :meth:`build` (regions → AZs → racks →
    nodes), or degenerately with :meth:`single` (one implicit rack — the
    flat network). ``contended`` selects the network's cost model:
    ``False`` prices each message independently at the ``rack`` profile,
    whatever tier its path crosses; ``True`` makes every link a shared
    fair-share resource priced by its governing tier. ``None`` resolves to
    contended exactly when the topology spans more than one rack.
    """

    __slots__ = (
        "profiles",
        "contended",
        "name",
        "_placements",
        "_default_placement",
        "_route_cache",
    )

    def __init__(
        self,
        placements: Mapping[str, Placement],
        profiles: Mapping[str, LinkProfile],
        contended: bool | None = None,
        name: str = "custom",
    ) -> None:
        missing = [tier for tier in TIERS if tier not in profiles]
        if missing:
            raise ValueError("topology is missing tier profiles: {}".format(missing))
        self.profiles: dict[str, LinkProfile] = {tier: profiles[tier] for tier in TIERS}
        self._placements: dict[str, Placement] = dict(placements)
        if self._placements:
            first = next(iter(self._placements.values()))
        else:
            first = ("region-1", "az-1", "rack-1")
        self._default_placement: Placement = first
        if contended is None:
            contended = not self.is_single_rack
        self.contended = bool(contended)
        self.name = name
        self._route_cache: dict[tuple[str, str], tuple[str, LinkKey]] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        regions: Mapping[str, Mapping[str, Mapping[str, Sequence[str]]]],
        profiles: Mapping[str, LinkProfile],
        contended: bool | None = None,
        name: str = "custom",
    ) -> "Topology":
        """Build from a nested spec ``{region: {az: {rack: [node, ...]}}}``.

        Unit names are qualified internally (``region/az`` for AZ units,
        ``region/az/rack`` for racks) so the same short rack name may appear
        under different AZs without colliding.
        """
        placements: dict[str, Placement] = {}
        for region, azs in regions.items():
            for az, racks in azs.items():
                az_name = "{}/{}".format(region, az)
                for rack, nodes in racks.items():
                    rack_name = "{}/{}".format(az_name, rack)
                    for node in nodes:
                        if node in placements:
                            raise ValueError(
                                "node {!r} placed twice in topology".format(node)
                            )
                        placements[node] = (region, az_name, rack_name)
        return cls(placements, profiles, contended=contended, name=name)

    @classmethod
    def single(
        cls,
        profile: LinkProfile,
        contended: bool | None = None,
        name: str = "single",
    ) -> "Topology":
        """The degenerate one-rack topology: every node (named or not) sits
        in one rack, and every message is an intra-rack message priced by
        ``profile``: the flat network."""
        profiles = {tier: profile for tier in TIERS}
        return cls({}, profiles, contended=contended, name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_single_rack(self) -> bool:
        """True when every placed node shares one rack (or none are placed)."""
        racks = {placement[2] for placement in self._placements.values()}
        return len(racks) <= 1

    def nodes(self) -> list[str]:
        """The explicitly placed node names, in declaration order."""
        return list(self._placements)

    def placement(self, node: str) -> Placement:
        """``node``'s (region, az, rack); unplaced nodes get the default."""
        return self._placements.get(node, self._default_placement)

    def tier(self, src: str, dst: str) -> str:
        """The governing tier of a ``src -> dst`` path (highest boundary)."""
        return self.route(src, dst)[0]

    def route(self, src: str, dst: str) -> tuple[str, LinkKey]:
        """``(tier, link key)`` of a path — the contention domain it uses.

        The link key is directed: the ``a -> b`` and ``b -> a`` trunks are
        independent resources (full-duplex links), matching how a migration
        copy saturates one direction only.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        src_region, src_az, src_rack = self.placement(src)
        dst_region, dst_az, dst_rack = self.placement(dst)
        if src_region != dst_region:
            result = ("geo", ("geo", src_region, dst_region))
        elif src_az != dst_az:
            result = ("region", ("region", src_az, dst_az))
        elif src_rack != dst_rack:
            result = ("az", ("az", src_rack, dst_rack))
        else:
            result = ("rack", ("rack", src, dst))
        self._route_cache[(src, dst)] = result
        return result

    def to_dict(self) -> dict:
        """JSON-safe description (experiment result payloads)."""
        return {
            "name": self.name,
            "contended": self.contended,
            "nodes": {node: list(place) for node, place in self._placements.items()},
            "profiles": {
                tier: {"latency": p.latency, "bandwidth": p.bandwidth}
                for tier, p in self.profiles.items()
            },
        }

    def __repr__(self) -> str:
        return "Topology({!r}, {} nodes, contended={})".format(
            self.name, len(self._placements), self.contended
        )


#: Preset names accepted by :func:`make_topology` (and the CLI's
#: ``--topology`` flag).
PRESETS: tuple[str, ...] = ("single", "multi_az", "geo")


def _split(items: list[str], parts: int) -> list[list[str]]:
    """Deal ``items`` into ``parts`` contiguous, near-equal groups."""
    groups: list[list[str]] = []
    base, extra = divmod(len(items), parts)
    cursor = 0
    for index in range(parts):
        count = base + (1 if index < extra else 0)
        groups.append(items[cursor : cursor + count])
        cursor += count
    return groups


def make_topology(
    preset: str,
    node_ids: Iterable[str],
    profiles: Mapping[str, LinkProfile],
    contended: bool | None = None,
) -> Topology:
    """Build a standard topology over ``node_ids``.

    - ``single`` — one rack; with the default ``contended=None`` this is the
      uncontended constant-delay network.
    - ``multi_az`` — one region, two AZs of one rack each; the node list is
      split contiguously in half (``node-1..3`` in AZ 1, ``node-4..6`` in
      AZ 2 for a six-node cluster).
    - ``geo`` — two regions of one AZ each, split the same way.
    """
    nodes = list(node_ids)
    if preset == "single":
        return Topology.build(
            {"region-1": {"az-1": {"rack-1": nodes}}},
            profiles,
            contended=contended,
            name="single",
        )
    if preset == "multi_az":
        first, second = _split(nodes, 2)
        return Topology.build(
            {"region-1": {"az-1": {"rack-1": first}, "az-2": {"rack-1": second}}},
            profiles,
            contended=contended,
            name="multi_az",
        )
    if preset == "geo":
        first, second = _split(nodes, 2)
        return Topology.build(
            {
                "region-1": {"az-1": {"rack-1": first}},
                "region-2": {"az-1": {"rack-1": second}},
            },
            profiles,
            contended=contended,
            name="geo",
        )
    raise ValueError(
        "unknown topology preset {!r}; pick one of {}".format(preset, list(PRESETS))
    )
