"""Weighted max-min fair bandwidth allocation with per-flow demand caps.

The allocator implements progressive filling: a per-unit-weight water
level rises uniformly, so every unfrozen flow's rate grows at
``weight`` times the level, until either a link saturates (its flows
freeze at the water level) or a flow reaches its demand cap (it freezes
at its demand).  The result is the unique weighted max-min fair
allocation subject to demands, the allocation used by the fluid
simulator whenever the flow set changes.  With all weights at the
default 1.0 the arithmetic reduces exactly to the classic unweighted
filling, which the equivalence property tests pin.

:func:`water_fill` is the one solver.  It runs over a flow table of
arrays (the layout :class:`~repro.network.allocator.AllocationEngine`
keeps alive across solves); :func:`max_min_allocation` builds such a
table once from :class:`Flow` objects for stateless callers.

Every operation is either elementwise float64 arithmetic or a minimum,
both exact, or a sequential sum in a fixed order (``np.bincount`` adds
its weights in input order from zero, ``np.subtract.at`` visits its
indices in order; ``np.sum`` adds pairwise and is never used).  So the
rates are a pure function of the table's contents and row order, bit
for bit, and do not depend on how the links are numbered.  Reductions
call the ufunc's ``reduce`` directly, skipping the Python wrappers
behind ``ndarray.min``/``ndarray.any``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np
import numpy.typing as npt

from repro.network.flows import Flow

_EPS = 1e-9

_min_of = np.minimum.reduce
_any_of = np.logical_or.reduce

#: Link index of the padding column in a path matrix.  Its capacity is
#: ``inf``, so it never bounds the water level and never saturates.
NO_LINK = 0


def water_fill(
    weight: npt.NDArray[np.float64],
    demand: npt.NDArray[np.float64],
    paths: npt.NDArray[np.intp],
    capacity: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Weighted max-min fair rates of a flow table (uncapped).

    Args:
        weight: Fair-share weight per flow (row).
        demand: Rate cap per flow (``inf`` = unconstrained).
        paths: ``(flows, width)`` link indices, each row a flow's path in
            order, padded on the right with :data:`NO_LINK`.  A row whose
            first entry is :data:`NO_LINK` has an empty path: the flow
            crosses no shared resource and gets its demand.
        capacity: Capacity per link index; ``capacity[NO_LINK]`` is
            ``inf``.

    Returns:
        The rate of every row.  The link weights are summed, and frozen
        flows' weights subtracted, sequentially in row-then-path order.
    """
    rates = demand.copy()
    active = (paths[:, 0] != NO_LINK).nonzero()[0]
    if not active.size:
        return rates
    width = paths.shape[1]
    act_weight = weight[active]
    act_demand = demand[active]
    act_paths = paths[active]
    # ``link_weight`` is the total weight of unfrozen flows crossing each
    # link, so a per-unit-weight increment ``delta`` consumes
    # ``delta * link_weight`` of its remaining capacity.
    link_weight = np.bincount(
        act_paths.ravel(),
        weights=np.repeat(act_weight, width),
        minlength=capacity.shape[0],
    )
    remaining = capacity.copy()
    level = np.zeros(active.size)
    ceiling = act_demand - _EPS

    while True:
        # Largest uniform per-weight increment before a link saturates,
        # or a flow hits its demand cap.
        loaded = (link_weight > _EPS).nonzero()[0]
        delta = min(
            float(_min_of(remaining[loaded] / link_weight[loaded], initial=math.inf)),
            float(_min_of((act_demand - level) / act_weight)),
        )
        if not math.isfinite(delta):
            # Only infinite-demand flows on unconstrained links remain;
            # this cannot happen for capacitated paths, so guard anyway.
            rates[active] = math.inf
            break

        delta = max(delta, 0.0)
        level += delta * act_weight
        remaining -= delta * link_weight

        frozen = level >= ceiling
        full = loaded[remaining[loaded] <= _EPS]
        if full.size:
            saturated = np.zeros(remaining.shape[0], dtype=np.bool_)
            saturated[full] = True
            frozen |= _any_of(saturated[act_paths], axis=1)
        done = frozen.nonzero()[0]
        if not done.size or done.size == active.size:
            # Every flow froze -- or none did, a numerical stall: freeze
            # everything at the current level.
            rates[active] = np.minimum(level, act_demand)
            break
        rates[active[done]] = np.minimum(level[done], act_demand[done])
        np.subtract.at(
            link_weight,
            act_paths[done].ravel(),
            np.repeat(act_weight[done], width),
        )
        keep = (~frozen).nonzero()[0]
        active = active[keep]
        act_weight = act_weight[keep]
        act_demand = act_demand[keep]
        ceiling = ceiling[keep]
        act_paths = act_paths[keep]
        level = level[keep]
    return rates


def max_min_allocation(flows: Iterable[Flow]) -> Dict[str, float]:
    """Compute weighted max-min fair rates for ``flows``.

    Link capacities are read from each flow's path links.  Flows with an
    empty path are granted their full demand (they traverse no shared
    resource).  Flow objects are *not* mutated; the caller applies the
    returned mapping ``flow_id -> rate_mbps``.

    The allocation satisfies (:mod:`repro.network.invariants` checks the
    first three, which imply the fourth):

    * feasibility -- no link's capacity is exceeded;
    * demand caps -- no flow exceeds its demand;
    * max-min optimality -- a flow below its demand is bottlenecked on
      some saturated link where its per-weight rate is maximal;
    * weighted fairness -- two flows sharing a bottleneck and below
      demand receive rates proportional to their weights.
    """
    flow_list = [f for f in flows if not f.done]
    link_index: Dict[str, int] = {}
    capacity: List[float] = [math.inf]
    width = max([len(f.path) for f in flow_list], default=0) or 1
    paths = np.full((len(flow_list), width), NO_LINK, dtype=np.intp)
    for row, flow in enumerate(flow_list):
        for column, link in enumerate(flow.path):
            index = link_index.get(link.link_id)
            if index is None:
                index = link_index[link.link_id] = len(capacity)
                capacity.append(link.capacity_mbps)
            paths[row, column] = index
    rates = water_fill(
        np.array([f.weight for f in flow_list], dtype=np.float64),
        np.array([f.demand_mbps for f in flow_list], dtype=np.float64),
        paths,
        np.array(capacity, dtype=np.float64),
    )
    return dict(zip([f.flow_id for f in flow_list], rates.tolist()))
