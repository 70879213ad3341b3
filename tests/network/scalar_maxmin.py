"""The scalar progressive filler, kept as a test oracle.

This is the dict-and-loop weighted max-min filler the fluid network
used before the allocator moved onto an engine-owned flow table of
arrays (:func:`repro.network.maxmin.water_fill`).  It performs the same
floating-point operations in the same order, one flow and one link at a
time, so ``tests/network/test_invariants.py`` asserts that the array
solver's rates equal its rates with ``==``.  It is not used by ``src/``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from repro.network.flows import Flow
from repro.network.topology import Link

_EPS = 1e-9


def scalar_max_min_allocation(flows: Iterable[Flow]) -> Dict[str, float]:
    """Weighted max-min fair rates for ``flows``, one scalar at a time.

    Same contract as :func:`repro.network.maxmin.max_min_allocation`:
    done flows are skipped, empty-path flows get their demand, and the
    flow objects are not mutated.
    """
    flow_list = [f for f in flows if not f.done]
    rates: Dict[str, float] = {}

    active: List[Flow] = []
    for flow in flow_list:
        if not flow.path:
            rates[flow.flow_id] = flow.demand_mbps if math.isfinite(flow.demand_mbps) else math.inf
        else:
            active.append(flow)

    # Per-link bookkeeping over the links actually used.  ``link_weight``
    # is the total weight of unfrozen flows crossing the link, so the
    # per-unit-weight increment consumes ``delta * link_weight`` of it.
    link_capacity: Dict[str, float] = {}
    link_objects: Dict[str, Link] = {}
    link_weight: Dict[str, float] = {}
    for flow in active:
        for link in flow.path:
            link_objects[link.link_id] = link
            link_capacity.setdefault(link.link_id, link.capacity_mbps)
            link_weight[link.link_id] = link_weight.get(link.link_id, 0.0) + flow.weight

    level: Dict[str, float] = {f.flow_id: 0.0 for f in active}
    remaining: Dict[str, float] = dict(link_capacity)

    while active:
        # Largest uniform per-weight increment before a link saturates...
        delta = math.inf
        for link_id, weight_sum in link_weight.items():
            if weight_sum > _EPS:
                delta = min(delta, remaining[link_id] / weight_sum)
        # ...or a flow hits its demand cap.
        for flow in active:
            headroom = (flow.demand_mbps - level[flow.flow_id]) / flow.weight
            delta = min(delta, headroom)

        if not math.isfinite(delta):
            # Only infinite-demand flows on unconstrained links remain;
            # this cannot happen for capacitated paths, so guard anyway.
            for flow in active:
                rates[flow.flow_id] = math.inf
            break

        delta = max(delta, 0.0)
        for flow in active:
            level[flow.flow_id] += delta * flow.weight
        for link_id, weight_sum in link_weight.items():
            remaining[link_id] -= delta * weight_sum

        saturated = {
            link_id
            for link_id, cap in remaining.items()
            if cap <= _EPS and link_weight[link_id] > _EPS
        }

        still_active: List[Flow] = []
        for flow in active:
            at_demand = level[flow.flow_id] >= flow.demand_mbps - _EPS
            on_saturated = any(link.link_id in saturated for link in flow.path)
            if at_demand or on_saturated:
                rates[flow.flow_id] = min(level[flow.flow_id], flow.demand_mbps)
                for link in flow.path:
                    link_weight[link.link_id] -= flow.weight
            else:
                still_active.append(flow)
        if len(still_active) == len(active):
            # Numerical stall guard: freeze everything at current level.
            for flow in active:
                rates[flow.flow_id] = min(level[flow.flow_id], flow.demand_mbps)
            break
        active = still_active

    return rates
