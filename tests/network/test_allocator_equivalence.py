"""Property test: the engine matches from-scratch max-min, exactly.

This test drives the engine through long seeded-random churn sequences —
flow starts, finishes, demand and weight changes, capacity changes, and
reroutes — and after every step compares every active flow's applied
rate with ``==`` against a from-scratch :func:`max_min_allocation` over
the full flow set, capped at :data:`MAX_RATE_MBPS`.  The engine solves
its flows in registration order, and so does the reference.
"""

import math
import random

import pytest

from repro.network.allocator import MAX_RATE_MBPS, AllocationEngine
from repro.network.flows import Flow
from repro.network.maxmin import max_min_allocation
from repro.network.topology import Link

def _make_links(rng, n_links):
    return [
        Link(
            link_id=f"l{i}",
            src=f"n{i}",
            dst=f"n{i+1}",
            capacity_mbps=rng.uniform(1.0, 100.0),
        )
        for i in range(n_links)
    ]


def _random_path(rng, links):
    count = rng.randint(1, min(4, len(links)))
    return rng.sample(links, count)


def _assert_rates_match(engine, flows):
    """Engine's applied rates == from-scratch solve over all flows."""
    raw = max_min_allocation(flows)
    rates = engine.rates
    for flow in flows:
        expected = min(raw[flow.flow_id], MAX_RATE_MBPS)
        actual = rates[flow.flow_id]
        assert actual == expected, (
            f"flow {flow.flow_id}: engine={actual} scratch={expected}"
        )


def _churn(seed, steps=120, n_links=8):
    rng = random.Random(seed)
    links = _make_links(rng, n_links)
    engine = AllocationEngine()
    flows = {}
    counter = 0
    weighted_steps = 0
    for _ in range(steps):
        ops = ["add", "add", "remove", "demand", "weight", "capacity", "reroute"]
        op = rng.choice(ops)
        if op == "add" or not flows:
            counter += 1
            demand = math.inf if rng.random() < 0.5 else rng.uniform(0.5, 50.0)
            flow = Flow(
                flow_id=f"f{counter}",
                src="a",
                dst="b",
                path=_random_path(rng, links),
                demand_mbps=demand,
            )
            flows[flow.flow_id] = flow
            engine.add_flow(flow)
        elif op == "remove":
            flow = flows.pop(rng.choice(sorted(flows)))
            engine.remove_flow(flow)
        elif op == "demand":
            flow = flows[rng.choice(sorted(flows))]
            flow.demand_mbps = (
                math.inf if rng.random() < 0.3 else rng.uniform(0.5, 50.0)
            )
            engine.invalidate()
        elif op == "weight":
            flow = flows[rng.choice(sorted(flows))]
            flow.weight = rng.uniform(0.25, 8.0)
            engine.invalidate()
        elif op == "capacity":
            link = rng.choice(links)
            link.capacity_mbps = rng.uniform(1.0, 100.0)
            engine.invalidate()
        elif op == "reroute":
            flow = flows[rng.choice(sorted(flows))]
            engine.set_path(flow, _random_path(rng, links))
        engine.solve()
        engine.check_consistency(flows.values())
        _assert_rates_match(engine, list(flows.values()))
        weighted_steps += any(flow.weight != 1.0 for flow in flows.values())
    return engine, weighted_steps


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_incremental_matches_scratch_under_churn(seed):
    engine, weighted_steps = _churn(seed)
    counters = engine.counters
    assert counters.full_solves == counters.solve_calls == 120
    # The sequences must actually exercise weighted sharing.
    assert weighted_steps > 0
