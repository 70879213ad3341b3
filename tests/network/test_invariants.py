"""The max-min invariant oracle, and the array solver against the scalar one.

Random topologies carry weighted, demand-capped flow sets.  On each,
the allocation of :func:`max_min_allocation` (the engine's array
solver) must pass :func:`max_min_violations`, and every rate must equal
the scalar filler's (:mod:`tests.network.scalar_maxmin`) with ``==``:
the two perform the same float operations in the same order.  A seeded
churn holds the :class:`AllocationEngine`'s persistent table to the
same scalar filler after every solve.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.allocator import MAX_RATE_MBPS, AllocationEngine
from repro.network.flows import Flow
from repro.network.invariants import max_min_violations
from repro.network.maxmin import max_min_allocation
from repro.network.topology import Link
from tests.network.scalar_maxmin import scalar_max_min_allocation


@st.composite
def _weighted_network(draw):
    n_links = draw(st.integers(min_value=1, max_value=8))
    links = [
        Link(
            link_id=f"l{i}",
            src=f"n{i}",
            dst=f"n{i + 1}",
            capacity_mbps=draw(st.floats(min_value=0.5, max_value=1000.0)),
        )
        for i in range(n_links)
    ]
    flows = []
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        path = draw(
            st.lists(
                st.sampled_from(links), min_size=0, max_size=min(4, n_links), unique=True
            )
        )
        demand = draw(
            st.one_of(st.just(math.inf), st.floats(min_value=0.1, max_value=200.0))
        )
        weight = draw(
            st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=50.0))
        )
        flows.append(
            Flow(f"f{i}", "a", "b", path, demand_mbps=demand, weight=weight)
        )
    return links, flows


@settings(max_examples=300, deadline=None)
@given(_weighted_network())
def test_array_solver_passes_the_oracle(network):
    _, flows = network
    rates = max_min_allocation(flows)
    assert max_min_violations(flows, rates) == []


@settings(max_examples=300, deadline=None)
@given(_weighted_network())
def test_array_solver_equals_scalar_filler(network):
    _, flows = network
    rates = max_min_allocation(flows)
    expected = scalar_max_min_allocation(flows)
    assert rates.keys() == expected.keys()
    for flow_id, rate in expected.items():
        assert rates[flow_id] == rate, (flow_id, rates[flow_id], rate)


def _engine_churn(seed, steps=400, n_links=12):
    """Seeded churn over one engine; every solve is checked against
    the scalar filler.

    The link pool is drawn from lazily, so links enter the engine's
    link index mid-run; early paths are short and later ones long, so
    the path matrix widens under live rows; removals pick any row, so
    the rows after it shift up; and adds outnumber removals, so the
    table grows past its initial row capacity.
    """
    rng = random.Random(seed)
    links = [
        Link(f"l{i}", f"n{i}", f"n{i + 1}", capacity_mbps=rng.uniform(1.0, 100.0))
        for i in range(n_links)
    ]
    engine = AllocationEngine()
    flows = {}
    counter = 0
    peak_width = 0

    def path(step):
        pool = links[: 2 + step * n_links // steps]
        width = rng.randint(0, min(1 + 6 * step // steps, len(pool)))
        return rng.sample(pool, width)

    for step in range(steps):
        op = rng.choice(["add", "add", "add", "remove", "demand", "weight",
                         "capacity", "reroute"])
        if op == "add" or not flows:
            counter += 1
            flow = Flow(
                f"f{counter}",
                "a",
                "b",
                path(step),
                demand_mbps=math.inf if rng.random() < 0.4 else rng.uniform(0.5, 50.0),
                weight=1.0 if rng.random() < 0.5 else rng.uniform(0.25, 8.0),
            )
            flows[flow.flow_id] = flow
            engine.add_flow(flow)
        elif op == "remove":
            engine.remove_flow(flows.pop(rng.choice(sorted(flows))))
        elif op == "demand":
            flows[rng.choice(sorted(flows))].demand_mbps = rng.uniform(0.5, 50.0)
            engine.invalidate()
        elif op == "weight":
            flows[rng.choice(sorted(flows))].weight = rng.uniform(0.25, 8.0)
            engine.invalidate()
        elif op == "capacity":
            rng.choice(links).capacity_mbps = rng.uniform(1.0, 100.0)
            engine.invalidate()
        else:
            engine.set_path(flows[rng.choice(sorted(flows))], path(step))
        engine.solve()
        expected = scalar_max_min_allocation(flows.values())
        rates = engine.rates
        assert rates.keys() == expected.keys()
        for flow_id, rate in expected.items():
            assert rates[flow_id] == min(rate, MAX_RATE_MBPS), (step, op, flow_id)
        peak_width = max(peak_width, max((len(f.path) for f in flows.values()), default=0))
    return engine, peak_width


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_table_equals_scalar_filler_under_churn(seed):
    engine, peak_width = _engine_churn(seed)
    # The run must reach the states the docstring names.
    assert engine.counters.flows_active_peak > 16
    assert peak_width >= 5


class TestOracleRejects:
    def _shared(self):
        link = Link("l", "a", "b", capacity_mbps=10.0)
        flows = [
            Flow("heavy", "a", "b", [link], weight=3.0),
            Flow("light", "a", "b", [link]),
        ]
        return flows, max_min_allocation(flows)

    def test_accepts_the_allocation(self):
        flows, rates = self._shared()
        assert rates == {"heavy": 7.5, "light": 2.5}
        assert max_min_violations(flows, rates) == []

    def test_negative_rate(self):
        flows, rates = self._shared()
        rates["light"] = -1.0
        assert any("negative" in p for p in max_min_violations(flows, rates))

    def test_over_capacity(self):
        flows, rates = self._shared()
        rates["light"] += 1e-6
        assert any("over capacity" in p for p in max_min_violations(flows, rates))

    def test_unsaturated_link(self):
        flows, rates = self._shared()
        rates = {flow_id: rate / 2 for flow_id, rate in rates.items()}
        problems = max_min_violations(flows, rates)
        assert len(problems) == 2
        assert all("no saturated link" in p for p in problems)

    def test_unfair_split(self):
        # The link is full, but "heavy" gets less per unit of weight than
        # "light": its rate is not maximal on its only bottleneck.
        flows, _ = self._shared()
        problems = max_min_violations(flows, {"heavy": 5.0, "light": 5.0})
        assert problems and all("heavy" in p for p in problems)

    def test_over_demand(self):
        link = Link("l", "a", "b", capacity_mbps=10.0)
        flow = Flow("f", "a", "b", [link], demand_mbps=2.0)
        assert any(
            "over demand" in p for p in max_min_violations([flow], {"f": 3.0})
        )
