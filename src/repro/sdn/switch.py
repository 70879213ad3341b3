"""A switch: one topology node with a flow table and port counters."""

from __future__ import annotations

from typing import List, Optional

from repro.network.fluidsim import FluidNetwork
from repro.network.linkstats import LinkStats
from repro.sdn.flowtable import FlowTable, TableEntry
from repro.sdn.messages import (
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    PortStats,
    StatsReply,
)


class Switch:
    """Data-plane element attached to a topology node.

    Forwarding state lives in the flow table; counters are read from the
    fluid network's per-link statistics, the same way a hardware switch
    exposes port counters that an OpenFlow controller polls.
    """

    def __init__(self, switch_id: str, node_id: str, network: FluidNetwork):
        self.switch_id = switch_id
        self.node_id = node_id
        self.network = network
        self.table = FlowTable()
        self._removed_log: List[FlowRemoved] = []
        # Stats of this node's outgoing links in topology order, rebuilt
        # when the topology's structure changes (as Router's cache is).
        self._ports: List[LinkStats] = []
        self._ports_version = -1

    def handle_flow_mod(self, mod: FlowMod) -> None:
        """Apply a FlowMod from the controller."""
        if mod.command in (FlowModCommand.ADD, FlowModCommand.MODIFY):
            if mod.next_hop is None:
                raise ValueError("ADD/MODIFY FlowMod requires a next_hop")
            self._validate_next_hop(mod.next_hop)
            self.table.install(
                TableEntry(
                    match=mod.match,
                    next_hop=mod.next_hop,
                    priority=mod.priority,
                    cookie=mod.cookie,
                )
            )
        elif mod.command is FlowModCommand.DELETE:
            if self.table.remove(mod.match):
                self._removed_log.append(
                    FlowRemoved(match=mod.match, cookie=mod.cookie, switch_id=self.switch_id)
                )
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown FlowMod command {mod.command!r}")

    def next_hop(self, src: str, dst: str, group: str) -> Optional[str]:
        """Where this switch forwards the given traffic, or ``None``."""
        entry = self.table.lookup(src, dst, group)
        return entry.next_hop if entry else None

    def stats_reply(self, now: float) -> StatsReply:
        """Current counters for every outgoing link of this node."""
        ports = tuple(
            PortStats(
                link_id=stats.link_id,
                load_mbps=stats.current_load_mbps,
                capacity_mbps=stats.capacity_mbps,
                mbit_carried=stats.mbit_carried,
            )
            for stats in self._outgoing()
        )
        return StatsReply(switch_id=self.switch_id, time=now, ports=ports)

    def _outgoing(self) -> List[LinkStats]:
        topology = self.network.topology
        if self._ports_version != topology.version:
            link_stats = self.network.link_stats
            self._ports = [
                link_stats[link.link_id]
                for link in topology.links()
                if link.src == self.node_id
            ]
            self._ports_version = topology.version
        return self._ports

    def drain_removed(self) -> List[FlowRemoved]:
        """FlowRemoved notifications since the last drain."""
        log, self._removed_log = self._removed_log, []
        return log

    def _validate_next_hop(self, next_hop: str) -> None:
        try:
            self.network.topology.link_between(self.node_id, next_hop)
        except KeyError as exc:
            raise ValueError(
                f"switch {self.switch_id}: no link {self.node_id!r}->{next_hop!r}"
            ) from exc
