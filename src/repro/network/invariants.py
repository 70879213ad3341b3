"""An independent checker for weighted max-min fair allocations.

:func:`max_min_violations` knows nothing about how an allocation was
computed; it checks the three conditions that define one, given the
flows (paths, weights, demands) and their rates:

* every rate is non-negative;
* no link carries more than its capacity;
* every flow below its demand has a bottleneck: a saturated link on
  its path on which its per-weight rate is the largest.

Together with feasibility these conditions characterise the unique
weighted max-min fair allocation, so the checker is an oracle for
:func:`repro.network.maxmin.water_fill` that shares none of its code.

Comparisons allow :data:`TOLERANCE` absolute plus the same relative
slack: the solver freezes flows within an absolute ``1e-9`` of their
demand or of a link's capacity, and its float sums round at the scale
of the values.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set

from repro.network.flows import Flow

#: Slack of every comparison (absolute, plus the same relative).
TOLERANCE = 1e-9


def _slack(scale: float) -> float:
    return TOLERANCE + TOLERANCE * abs(scale)


def max_min_violations(flows: Sequence[Flow], rates: Mapping[str, float]) -> List[str]:
    """Every way ``rates`` fails to be the weighted max-min allocation.

    Args:
        flows: The allocated flows (done flows are skipped).
        rates: ``flow_id -> rate`` for every flow in ``flows``.

    Returns:
        One message per violated condition; empty when ``rates`` is the
        allocation.
    """
    active = [flow for flow in flows if not flow.done]
    problems: List[str] = []
    loads: Dict[str, float] = {}
    capacity: Dict[str, float] = {}
    members: Dict[str, List[Flow]] = {}
    for flow in active:
        rate = rates[flow.flow_id]
        if not rate >= 0:
            problems.append(f"{flow.flow_id}: negative rate {rate!r}")
        for link in flow.path:
            loads[link.link_id] = loads.get(link.link_id, 0.0) + rate
            capacity[link.link_id] = link.capacity_mbps
            members.setdefault(link.link_id, []).append(flow)

    saturated: Set[str] = set()
    for link_id, load in loads.items():
        cap = capacity[link_id]
        if load > cap + _slack(cap):
            problems.append(f"link {link_id}: load {load!r} over capacity {cap!r}")
        if load >= cap - _slack(cap):
            saturated.add(link_id)

    for flow in active:
        rate = rates[flow.flow_id]
        demand = flow.demand_mbps
        if rate > demand + _slack(demand):
            problems.append(f"{flow.flow_id}: rate {rate!r} over demand {demand!r}")
        if rate >= demand or rate >= demand - _slack(demand):
            continue
        per_weight = rate / flow.weight
        if not any(
            per_weight
            >= max(rates[other.flow_id] / other.weight for other in members[link.link_id])
            - _slack(per_weight)
            for link in flow.path
            if link.link_id in saturated
        ):
            problems.append(
                f"{flow.flow_id}: rate {rate!r} below demand {demand!r} "
                "with no saturated link where its per-weight rate is maximal"
            )
    return problems
