"""The InfP's SDN controller.

The controller owns a switch per InfP-owned router, installs path
rules (a FlowMod per on-path switch), and resolves data-plane paths by
walking flow tables hop by hop -- falling back to shortest-path
forwarding at nodes with no matching rule, like a hybrid SDN/IGP
deployment.  Applications (the TE app, the EONA InfP control logic)
program traffic groups through it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.network.fluidsim import FluidNetwork
from repro.network.routing import NoRouteError
from repro.obs.trace import TRACER
from repro.sdn.messages import FlowMod, FlowModCommand, Match
from repro.sdn.switch import Switch


class ForwardingLoopError(Exception):
    """Raised when flow-table walking revisits a node."""


class SdnController:
    """Installs and resolves forwarding state on InfP switches.

    Args:
        network: The fluid network (provides topology and routing).
        owner: Only nodes with this owner get a switch; other providers'
            nodes stay outside the controller's domain, reflecting the
            federated setting the paper insists on.
    """

    def __init__(self, network: FluidNetwork, owner: str = ""):
        self.network = network
        self.owner = owner
        self.switches: Dict[str, Switch] = {}
        for node in network.topology.nodes(owner=owner if owner else None):
            self.switches[node.node_id] = Switch(
                switch_id=f"sw.{node.node_id}", node_id=node.node_id, network=network
            )
        self.flow_mods_sent = 0
        #: Cause ID of the control decision driving the next installs
        #: (set by the owning control logic, e.g. the EONA InfP's
        #: demand-informed TE round); traced ``infp-reroute`` events
        #: carry it as ``parent``.  Purely observational.
        self.pending_parent: Optional[int] = None

    # ------------------------------------------------------------------
    # programming
    # ------------------------------------------------------------------
    def install_path(
        self,
        node_path: List[str],
        match: Match,
        priority: int = 0,
        cookie: str = "",
    ) -> int:
        """Install forwarding for ``match`` along ``node_path``.

        Only nodes the controller owns receive rules; the rest of the
        path relies on default forwarding.  Returns the number of
        FlowMods sent.
        """
        sent = 0
        for node, next_hop in zip(node_path, node_path[1:]):
            switch = self.switches.get(node)
            if switch is None:
                continue
            switch.handle_flow_mod(
                FlowMod(
                    command=FlowModCommand.ADD,
                    match=match,
                    next_hop=next_hop,
                    priority=priority,
                    cookie=cookie,
                )
            )
            sent += 1
        self.flow_mods_sent += sent
        if TRACER.enabled:
            extra: Dict[str, object] = (
                {} if self.pending_parent is None else {"parent": self.pending_parent}
            )
            TRACER.emit(
                "infp-reroute",
                cause=TRACER.new_cause(),
                owner=self.owner,
                path=list(node_path),
                group=match.group,
                cookie=cookie,
                priority=priority,
                rules_sent=sent,
                **extra,
            )
        return sent

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every rule installed under ``cookie``."""
        removed = 0
        for switch in self.switches.values():
            removed += switch.table.remove_by_cookie(cookie)
        return removed

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_path(self, src: str, dst: str, group: str = "") -> List[str]:
        """Walk flow tables from ``src`` to ``dst`` for ``group`` traffic.

        At nodes without a switch or matching rule, forwarding falls
        back to the next hop of the delay-shortest path.  Raises
        :class:`ForwardingLoopError` on a loop (a misprogrammed table).
        """
        path = [src]
        visited: Set[str] = {src}
        current = src
        while current != dst:
            next_hop = self._next_hop(current, src, dst, group)
            if next_hop in visited:
                raise ForwardingLoopError(
                    f"loop at {next_hop!r} resolving {src!r}->{dst!r} group={group!r}"
                )
            path.append(next_hop)
            visited.add(next_hop)
            current = next_hop
        return path

    def _next_hop(self, current: str, src: str, dst: str, group: str) -> str:
        switch = self.switches.get(current)
        if switch is not None:
            hop = switch.next_hop(src, dst, group)
            if hop is not None:
                return hop
        try:
            shortest = self.network.router.shortest_path(current, dst)
        except NoRouteError:
            raise
        return shortest[1]
