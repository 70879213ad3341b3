"""Path computation over a :class:`~repro.network.topology.Topology`.

The router computes delay-weighted shortest paths and
waypoint-constrained paths over the topology's own adjacency.  Waypoint
routing is how the InfP's peering-point knob is expressed: "egress
traffic for CDN X via peering point B" is a path constrained through
node B (Figure 5 of the paper).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

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
        """Delay-weighted shortest path by bidirectional Dijkstra.

        This follows networkx 3.6's ``bidirectional_dijkstra`` (what
        ``nx.shortest_path`` runs for a weighted source-target query)
        step for step, walking ``succ`` forward from ``src`` and
        ``pred`` backward from ``dst``: the same alternation between
        the two searches, the same heap tie-breaks and the same strict
        relaxations, so paths of tied delay resolve the same way.
        """
        succ = self.topology.succ
        if src not in succ or dst not in succ:
            raise NoRouteError(f"no route {src!r}->{dst!r}")
        if src == dst:
            return [src]
        # Index 0 is the forward search, index 1 the backward one.
        neighbors = (succ, self.topology.pred)
        dists: List[Dict[str, float]] = [{}, {}]  # final distances
        preds: List[Dict[str, Optional[str]]] = [{src: None}, {dst: None}]
        seen: List[Dict[str, float]] = [{src: 0.0}, {dst: 0.0}]
        fringe: List[List[Tuple[float, int, str]]] = [[], []]
        counter = itertools.count()
        heapq.heappush(fringe[0], (0.0, next(counter), src))
        heapq.heappush(fringe[1], (0.0, next(counter), dst))
        final_dist: Optional[float] = None
        meet: Optional[str] = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heapq.heappop(fringe[direction])
            if v in dists[direction]:
                continue  # already settled
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                # Settled from both ends: the best meeting node is final.
                assert meet is not None
                return _trace(preds[0], meet)[::-1] + _trace(preds[1], preds[1][meet])
            for w, link in neighbors[direction][v].items():
                length = dist + link.delay_ms
                # A settled node cannot improve: delays are non-negative.
                if w not in dists[direction] and (
                    w not in seen[direction] or length < seen[direction][w]
                ):
                    seen[direction][w] = length
                    heapq.heappush(fringe[direction], (length, next(counter), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        through_w = length + seen[1 - direction][w]
                        if final_dist is None or final_dist > through_w:
                            final_dist, meet = through_w, w
        raise NoRouteError(f"no route {src!r}->{dst!r}")


def _trace(preds: Dict[str, Optional[str]], node: Optional[str]) -> List[str]:
    """Follow ``preds`` from ``node`` back to its search's root."""
    path: List[str] = []
    while node is not None:
        path.append(node)
        node = preds[node]
    return path
