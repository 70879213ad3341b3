"""Property test: the incremental engine matches from-scratch max-min.

The engine's correctness argument is that max-min allocation decomposes
over connected components of the flow–link graph, so re-solving only
the dirty component is exact.  This test drives the engine through long
seeded-random churn sequences — flow starts, finishes, demand changes,
capacity changes, and reroutes — and after every step compares every
active flow's applied rate against a from-scratch
:func:`max_min_allocation` over the full flow set, to 1e-6.
"""

import math
import random

import pytest

from repro.network.allocator import AllocationEngine, EngineConfig
from repro.network.flows import Flow
from repro.network.maxmin import max_min_allocation
from repro.network.topology import Link

TOL = 1e-6


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
    cap = engine.config.max_rate_mbps
    for flow in flows:
        expected = min(raw.get(flow.flow_id, 0.0), cap)
        actual = engine.rates.get(flow.flow_id, 0.0)
        assert actual == pytest.approx(expected, abs=TOL), (
            f"flow {flow.flow_id}: engine={actual} scratch={expected}"
        )


def _churn(seed, steps=120, n_links=8, config=None):
    rng = random.Random(seed)
    links = _make_links(rng, n_links)
    engine = AllocationEngine(config or EngineConfig())
    flows = {}
    counter = 0
    for _ in range(steps):
        ops = ["add", "add", "remove", "demand", "capacity", "reroute"]
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
            engine.update_demand(flow)
        elif op == "capacity":
            link = rng.choice(links)
            link.capacity_mbps = rng.uniform(1.0, 100.0)
            engine.update_capacity(link.link_id)
        elif op == "reroute":
            flow = flows[rng.choice(sorted(flows))]
            engine.set_path(flow, _random_path(rng, links))
        engine.solve()
        engine.check_consistency(flows.values())
        _assert_rates_match(engine, list(flows.values()))
    return engine


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_incremental_matches_scratch_under_churn(seed):
    engine = _churn(seed)
    # The sequences must actually exercise the incremental path for the
    # equivalence claim to mean anything.
    assert engine.counters.incremental_solves > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_low_fallback_threshold_still_exact(seed):
    # An aggressive threshold keeps almost every solve incremental.
    _churn(seed, config=EngineConfig(full_solve_fraction=0.95))


@pytest.mark.parametrize("seed", [0, 1])
def test_non_incremental_baseline_matches_scratch(seed):
    engine = _churn(seed, steps=60, config=EngineConfig(full_solve_fraction=0.0))
    assert engine.counters.incremental_solves == 0
