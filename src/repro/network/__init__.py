"""Flow-level network substrate.

Models a provider topology as nodes and capacitated links, and traffic
as fluid flows that share link bandwidth max-min fairly.  Transfers are
simulated at flow granularity: whenever the set of flows (or a link
capacity) changes, rates are recomputed and completion events are
rescheduled.  This is the level of abstraction at which EONA's
motivating scenarios play out -- congestion at access links and peering
points, not per-packet behaviour.
"""

from repro.network.topology import Link, Node, NodeKind, Topology
from repro.network.flows import Flow, FlowState
from repro.network.maxmin import max_min_allocation
from repro.network.allocator import AllocationEngine, EngineCounters, SolveResult
from repro.network.routing import Router
from repro.network.fluidsim import FluidNetwork, Transfer
from repro.network.linkstats import CongestionDetector, LinkStats

__all__ = [
    "AllocationEngine",
    "CongestionDetector",
    "EngineCounters",
    "Flow",
    "FlowState",
    "FluidNetwork",
    "Link",
    "LinkStats",
    "Node",
    "NodeKind",
    "Router",
    "SolveResult",
    "Topology",
    "Transfer",
    "max_min_allocation",
]
