"""The CDN provider: request routing over edge servers.

A :class:`Cdn` owns a set of :class:`~repro.cdn.server.CdnServer`
clusters and an optional origin.  Sessions attach to a server; chunk
requests resolve to a *source* (the edge node on a cache hit, the
origin pulled through the edge on a miss).  The provider also exposes
the two pieces of information the paper proposes a CDN share over
EONA-I2A: per-server load and alternative-server hints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cdn.content import ContentCatalog, ContentItem
from repro.cdn.origin import Origin
from repro.cdn.server import CdnServer
from repro.cdn.transcoder import TranscodeJob, Transcoder


@dataclass(frozen=True)
class ServedRequest:
    """Resolution of one chunk request.

    Attributes:
        server_id: The edge server handling the request.
        src_node: Topology node the bits originate from (edge node on a
            hit, origin node on a pull-through).
        via_node: Intermediate node the flow is pinned through (the edge
            node, on a pull-through), else ``None``.
        cache_hit: Whether the edge cache held the content.
        rate_cap_mbps: Per-session server-side rate cap (degraded
            servers); ``inf`` when unconstrained.
        transcode_job: When the chunk is being derived at the edge from
            a cached higher rung, the in-flight job (the caller waits
            ``job.latency_s`` and releases the slot); else ``None``.
    """

    server_id: str
    src_node: str
    via_node: Optional[str]
    cache_hit: bool
    rate_cap_mbps: float
    transcode_job: Optional[TranscodeJob] = None


@dataclass(frozen=True)
class ServerHint:
    """One entry of the I2A alternative-server hint."""

    server_id: str
    node_id: str
    load: float
    degraded: bool


class NoServerAvailableError(Exception):
    """Raised when every server is full, off, or excluded."""


class Cdn:
    """A CDN provider.

    Args:
        name: Provider name, also used as the traffic-group label for
            flows this CDN serves (the ISP steers groups by this name).
        servers: Edge clusters.
        origin: Origin for pull-through on cache misses; when ``None``,
            misses are served from the edge anyway (cache-oblivious CDN)
            but still counted as misses.
        selection: ``"least_loaded"`` (default) or ``"first_fit"``.
        transcoder: Optional edge transcoder pool; on a chunk miss with
            a cached higher rung, chunks are derived locally instead of
            pulled through the origin (Figure 1(b)'s transcoders).
        ctx: The :class:`~repro.core.context.SimContext` this provider
            belongs to; when given, the CDN registers itself so
            context-built controllers find it without bespoke wiring.
    """

    def __init__(
        self,
        name: str,
        servers: Iterable[CdnServer],
        origin: Optional[Origin] = None,
        selection: str = "least_loaded",
        transcoder: Optional[Transcoder] = None,
        ctx=None,
    ):
        if selection not in ("least_loaded", "first_fit"):
            raise ValueError(f"unknown selection policy {selection!r}")
        self.name = name
        self.servers: Dict[str, CdnServer] = {s.server_id: s for s in servers}
        if not self.servers:
            raise ValueError(f"cdn {name}: needs at least one server")
        self.origin = origin
        self.selection = selection
        self.transcoder = transcoder
        self._assignments: Dict[str, str] = {}  # session -> server_id
        if ctx is not None:
            ctx.register_cdn(self)

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def attach(
        self,
        session_id: str,
        exclude: Iterable[str] = (),
        server_id: Optional[str] = None,
    ) -> CdnServer:
        """Assign a session to a server and return it.

        Args:
            session_id: Session key; re-attaching moves the session.
            exclude: Server ids to avoid (e.g. one the player found bad).
            server_id: Pin to a specific server (EONA server hints).
        """
        self.detach(session_id)
        if server_id is not None:
            server = self.servers[server_id]
            if not server.available:
                raise NoServerAvailableError(f"{server_id} unavailable")
        else:
            server = self._pick_server(set(exclude))
        server.assign(session_id)
        self._assignments[session_id] = server.server_id
        return server

    def detach(self, session_id: str) -> None:
        """Release a session's server.  Idempotent."""
        server_id = self._assignments.pop(session_id, None)
        if server_id is not None:
            self.servers[server_id].release(session_id)

    def server_of(self, session_id: str) -> Optional[CdnServer]:
        server_id = self._assignments.get(session_id)
        return self.servers[server_id] if server_id else None

    @property
    def active_sessions(self) -> int:
        return len(self._assignments)

    @property
    def mean_load(self) -> float:
        powered = [s for s in self.servers.values() if s.powered_on]
        if not powered:
            return 1.0
        return sum(s.active_sessions for s in powered) / sum(
            s.capacity_sessions for s in powered
        )

    def has_capacity(self) -> bool:
        return any(s.available for s in self.servers.values())

    def power_off_server(self, server_id: str) -> int:
        """Power a server down, evicting its sessions; returns how many."""
        server = self.servers[server_id]
        displaced = server.power_off()
        for session_id in displaced:
            self._assignments.pop(session_id, None)
        return len(displaced)

    # ------------------------------------------------------------------
    # content serving
    # ------------------------------------------------------------------
    def serve_chunk(
        self,
        session_id: str,
        content: ContentItem,
        chunk_key: Optional[str] = None,
        chunk_mbit: Optional[float] = None,
        fallback_keys: Iterable[str] = (),
        media_duration_s: float = 0.0,
    ) -> ServedRequest:
        """Resolve where one chunk for ``session_id`` comes from.

        Caching is chunk-granular when the caller passes ``chunk_key``
        (e.g. ``"video-3#12@1.5"``): a cold cache misses on *every*
        chunk until each one has been pulled through -- the real cost of
        landing on a cold CDN.  A whole-item entry (from
        :meth:`warm_caches`) short-circuits to a hit for all chunks.

        With an edge transcoder configured, a miss whose ``fallback_keys``
        (higher-rung variants of the same chunk, best first) include a
        cached entry is derived locally instead of pulled through the
        origin; the returned request carries the in-flight
        ``transcode_job``.  The caller starts the actual transfer.
        """
        server = self.server_of(session_id)
        if server is None:
            raise KeyError(f"session {session_id!r} is not attached to {self.name}")
        rate_cap = (
            server.degraded_rate_mbps
            if server.degraded_rate_mbps is not None
            else math.inf
        )
        if chunk_key is not None and content.content_id not in server.cache:
            hit = server.cache.lookup(chunk_key)
            miss_key = chunk_key
            miss_mbit = chunk_mbit if chunk_mbit is not None else content.size_mbit
        else:
            hit = server.cache.lookup(content.content_id)
            miss_key = content.content_id
            miss_mbit = content.size_mbit
        if hit or self.origin is None:
            return ServedRequest(
                server_id=server.server_id,
                src_node=server.node_id,
                via_node=None,
                cache_hit=hit,
                rate_cap_mbps=rate_cap,
            )
        if self.transcoder is not None and media_duration_s > 0:
            job = self._try_transcode(server, fallback_keys, media_duration_s)
            if job is not None:
                server.cache.insert(miss_key, miss_mbit)
                return ServedRequest(
                    server_id=server.server_id,
                    src_node=server.node_id,
                    via_node=None,
                    cache_hit=False,
                    rate_cap_mbps=rate_cap,
                    transcode_job=job,
                )
        server.cache.insert(miss_key, miss_mbit)
        self.origin.record_fetch(miss_mbit)
        return ServedRequest(
            server_id=server.server_id,
            src_node=self.origin.node_id,
            via_node=server.node_id,
            cache_hit=False,
            rate_cap_mbps=rate_cap,
        )

    def _try_transcode(
        self,
        server: CdnServer,
        fallback_keys: Iterable[str],
        media_duration_s: float,
    ) -> Optional[TranscodeJob]:
        for fallback in fallback_keys:
            if fallback in server.cache:
                return self.transcoder.try_start(media_duration_s)
        return None

    def warm_caches(self, catalog: ContentCatalog, top_fraction: float = 1.0) -> None:
        """Pre-load the most popular ``top_fraction`` of the catalog."""
        if not 0 <= top_fraction <= 1:
            raise ValueError(f"top_fraction out of range: {top_fraction!r}")
        n_warm = int(len(catalog) * top_fraction)
        for server in self.servers.values():
            for rank in range(n_warm):
                item = catalog.by_rank(rank)
                server.cache.insert(item.content_id, item.size_mbit)

    # ------------------------------------------------------------------
    # I2A-exportable state
    # ------------------------------------------------------------------
    def server_hints(self, exclude: Iterable[str] = ()) -> List[ServerHint]:
        """Alternative-server hints, best (least loaded, healthy) first."""
        excluded = set(exclude)
        hints = [
            ServerHint(
                server_id=s.server_id,
                node_id=s.node_id,
                load=s.load,
                degraded=s.degraded,
            )
            for s in self.servers.values()
            if s.available and s.server_id not in excluded
        ]
        hints.sort(key=lambda h: (h.degraded, h.load))
        return hints

    def cache_hit_rate(self) -> float:
        requests = sum(s.cache.stats.requests for s in self.servers.values())
        if requests == 0:
            return 0.0
        hits = sum(s.cache.stats.hits for s in self.servers.values())
        return hits / requests

    # ------------------------------------------------------------------
    def _pick_server(self, excluded: set) -> CdnServer:
        candidates = [
            s
            for s in self.servers.values()
            if s.available and s.server_id not in excluded
        ]
        if not candidates:
            raise NoServerAvailableError(
                f"cdn {self.name}: no server available (excluded={sorted(excluded)})"
            )
        if self.selection == "least_loaded":
            return min(candidates, key=lambda s: s.load)
        return candidates[0]
