"""Topology model: nodes, capacitated links, and the graph around them.

A :class:`Topology` validates its nodes and links and keeps its own
adjacency: :attr:`Topology.succ` and :attr:`Topology.pred` map each
node to its neighbours and the link between them, in insertion order.
Links are directed (an access link's two directions are two links),
carry a capacity in Mbit/s and a propagation delay in milliseconds, and
can be tagged (e.g. ``"peering"``, ``"access"``) so scenarios and
controllers can find the links they care about without hard-coding IDs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple


class NodeKind(enum.Enum):
    """Role of a node in the delivery chain (Figure 1 of the paper)."""

    CLIENT = "client"
    ROUTER = "router"
    SWITCH = "switch"
    SERVER = "server"
    ORIGIN = "origin"
    PEERING = "peering"
    CACHE = "cache"
    BASE_STATION = "base_station"


@dataclass(frozen=True)
class Node:
    """A topology node.

    Attributes:
        node_id: Unique name, e.g. ``"isp.core1"``.
        kind: Its :class:`NodeKind`.
        owner: The provider that owns it (``"isp"``, ``"cdnX"``, ...);
            EONA's knob/data ownership mapping is keyed on this.
        tags: Free-form labels for scenario queries.
    """

    node_id: str
    kind: NodeKind = NodeKind.ROUTER
    owner: str = ""
    tags: FrozenSet[str] = frozenset()


@dataclass
class Link:
    """A directed, capacitated link.

    Attributes:
        link_id: Unique name, e.g. ``"peerB->isp"``.
        src: Source node id.
        dst: Destination node id.
        capacity_mbps: Capacity in Mbit/s.  May be changed at runtime
            (failures, energy saving); the fluid simulator reallocates.
        delay_ms: One-way propagation delay in milliseconds.
        owner: Provider that owns the link.
        tags: Labels such as ``"peering"`` or ``"access"``.
    """

    link_id: str
    src: str
    dst: str
    capacity_mbps: float
    delay_ms: float = 1.0
    owner: str = ""
    tags: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise ValueError(f"link {self.link_id}: capacity must be positive")
        if self.delay_ms < 0:
            raise ValueError(f"link {self.link_id}: delay must be non-negative")
        self.tags = frozenset(self.tags)

    def __hash__(self) -> int:
        return hash(self.link_id)


class Topology:
    """Validated container of nodes and links with graph queries.

    Attributes:
        succ: ``succ[src][dst]`` is the link from ``src`` to ``dst``.
        pred: ``pred[dst][src]`` is the same link, seen from ``dst``.

    Both hold every node and list neighbours in the order their first
    link was added.  A later link between the same pair replaces the
    earlier one in place, keeping its position; the earlier link stays
    in :meth:`links` but is no longer routed over.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}
        self.succ: Dict[str, Dict[str, Link]] = {}
        self.pred: Dict[str, Dict[str, Link]] = {}
        self._auto_link = itertools.count()
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every node/link addition.

        Path caches key their validity on this: capacity changes do not
        bump it (delay-weighted routes are unaffected), structural
        changes do.
        """
        return self._version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        kind: NodeKind = NodeKind.ROUTER,
        owner: str = "",
        tags: Iterable[str] = (),
    ) -> Node:
        """Add a node; raises if the id is already taken."""
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        node = Node(node_id=node_id, kind=kind, owner=owner, tags=frozenset(tags))
        self._nodes[node_id] = node
        self.succ[node_id] = {}
        self.pred[node_id] = {}
        self._version += 1
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        capacity_mbps: float,
        delay_ms: float = 1.0,
        link_id: Optional[str] = None,
        owner: str = "",
        tags: Iterable[str] = (),
    ) -> Link:
        """Add a directed link from ``src`` to ``dst``."""
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise KeyError(f"unknown node {endpoint!r}")
        if link_id is None:
            link_id = f"{src}->{dst}"
            if link_id in self._links:
                link_id = f"{src}->{dst}#{next(self._auto_link)}"
        if link_id in self._links:
            raise ValueError(f"duplicate link id {link_id!r}")
        link = Link(
            link_id=link_id,
            src=src,
            dst=dst,
            capacity_mbps=capacity_mbps,
            delay_ms=delay_ms,
            owner=owner,
            tags=frozenset(tags),
        )
        self._links[link_id] = link
        self.succ[src][dst] = link
        self.pred[dst][src] = link
        self._version += 1
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        capacity_mbps: float,
        delay_ms: float = 1.0,
        owner: str = "",
        tags: Iterable[str] = (),
    ) -> Tuple[Link, Link]:
        """Add both directions with identical parameters."""
        forward = self.add_link(a, b, capacity_mbps, delay_ms, owner=owner, tags=tags)
        backward = self.add_link(b, a, capacity_mbps, delay_ms, owner=owner, tags=tags)
        return forward, backward

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def link(self, link_id: str) -> Link:
        return self._links[link_id]

    def nodes(self, kind: Optional[NodeKind] = None, owner: Optional[str] = None) -> List[Node]:
        """All nodes, optionally filtered by kind and/or owner."""
        result = []
        for node in self._nodes.values():
            if kind is not None and node.kind is not kind:
                continue
            if owner is not None and node.owner != owner:
                continue
            result.append(node)
        return result

    def links(self, tag: Optional[str] = None, owner: Optional[str] = None) -> List[Link]:
        """All links, optionally filtered by tag and/or owner."""
        result = []
        for link in self._links.values():
            if tag is not None and tag not in link.tags:
                continue
            if owner is not None and link.owner != owner:
                continue
            result.append(link)
        return result

    def link_between(self, src: str, dst: str) -> Link:
        """The link from ``src`` to ``dst``; raises ``KeyError`` if absent."""
        try:
            return self.succ[src][dst]
        except KeyError:
            raise KeyError(f"no link {src!r}->{dst!r}") from None

    def path_links(self, node_path: List[str]) -> List[Link]:
        """Translate a node path into the list of links it traverses."""
        return [
            self.link_between(a, b) for a, b in zip(node_path, node_path[1:])
        ]

    def path_delay_ms(self, node_path: List[str]) -> float:
        """Total one-way propagation delay along ``node_path``."""
        return sum(link.delay_ms for link in self.path_links(node_path))

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links)})"
        )
