"""Path computation over a :class:`~repro.network.topology.Topology`.

The router computes delay-weighted shortest paths, k-shortest
alternatives, and waypoint-constrained paths.  Waypoint routing is how
the InfP's peering-point knob is expressed: "egress traffic for CDN X
via peering point B" is a path constrained through node B (Figure 5 of
the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.network.topology import Topology


class NoRouteError(Exception):
    """Raised when no path exists between the requested endpoints."""


class Router:
    """Computes and caches paths on a topology.

    The cache is keyed on the topology's structural version: adding
    nodes or links invalidates it automatically, while capacity changes
    (which leave delay-weighted routes untouched) do not.
    :meth:`invalidate` remains for forcing a drop by hand, and
    :attr:`cache_hits` / :attr:`cache_misses` make the cache's value
    observable in the engine counters.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cache: Dict[Tuple[str, str, Optional[str]], List[str]] = {}
        self._cached_version = topology.version
        self.cache_hits = 0
        self.cache_misses = 0

    def invalidate(self) -> None:
        """Drop all cached paths."""
        self._cache.clear()
        self._cached_version = self.topology.version

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Delay-weighted shortest node path from ``src`` to ``dst``."""
        return self._cached_path(src, dst, via=None)

    def path_via(self, src: str, dst: str, via: str) -> List[str]:
        """Shortest path constrained to pass through node ``via``.

        The two segments are computed independently; a node shared by
        both segments (other than ``via``) is tolerated because the
        topologies here are small and loop-free in practice.
        """
        return self._cached_path(src, dst, via=via)

    def k_shortest_paths(self, src: str, dst: str, k: int) -> List[List[str]]:
        """Up to ``k`` loop-free paths in increasing delay order."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k!r}")
        generator = nx.shortest_simple_paths(
            self.topology.graph, src, dst, weight="delay_ms"
        )
        paths: List[List[str]] = []
        try:
            for path in generator:
                paths.append(path)
                if len(paths) >= k:
                    break
        except nx.NetworkXNoPath as exc:
            raise NoRouteError(f"no route {src!r}->{dst!r}") from exc
        return paths

    def _cached_path(self, src: str, dst: str, via: Optional[str]) -> List[str]:
        if self._cached_version != self.topology.version:
            self.invalidate()
        key = (src, dst, via)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return list(cached)
        self.cache_misses += 1
        if via is None:
            path = self._shortest(src, dst)
        else:
            head = self._shortest(src, via)
            tail = self._shortest(via, dst)
            path = head + tail[1:]
        self._cache[key] = path
        return list(path)

    def _shortest(self, src: str, dst: str) -> List[str]:
        try:
            return nx.shortest_path(self.topology.graph, src, dst, weight="delay_ms")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NoRouteError(f"no route {src!r}->{dst!r}") from exc
