"""Unit tests for the stateful incremental allocation engine."""

import math

import pytest

from repro.network.allocator import AllocationEngine, EngineConfig
from repro.network.flows import Flow
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import Link, NodeKind, Topology
from repro.simkernel.kernel import Simulator

EPS = 1e-6


def _link(link_id, capacity):
    return Link(link_id=link_id, src="a", dst="b", capacity_mbps=capacity)


def _flow(flow_id, path, demand=math.inf):
    return Flow(flow_id=flow_id, src="a", dst="b", path=path, demand_mbps=demand)


class TestBookkeeping:
    def test_single_link_fair_share(self):
        engine = AllocationEngine()
        link = _link("l", 9.0)
        flows = [_flow(f"f{i}", [link]) for i in range(3)]
        for flow in flows:
            engine.add_flow(flow)
        result = engine.solve()
        assert all(abs(result.rates[f.flow_id] - 3.0) < EPS for f in flows)
        assert abs(engine.link_loads["l"] - 9.0) < EPS
        assert "l" in result.changed_links
        engine.check_consistency(flows)

    def test_remove_flow_drains_load_and_reports_link(self):
        engine = AllocationEngine()
        link = _link("l", 10.0)
        f1, f2 = _flow("f1", [link]), _flow("f2", [link])
        engine.add_flow(f1)
        engine.add_flow(f2)
        engine.solve()
        engine.remove_flow(f1)
        result = engine.solve()
        assert "l" in result.changed_links
        assert abs(result.rates["f2"] - 10.0) < EPS
        assert abs(engine.link_loads["l"] - 10.0) < EPS
        engine.check_consistency([f2])

    def test_remove_is_idempotent(self):
        engine = AllocationEngine()
        flow = _flow("f", [_link("l", 5.0)])
        engine.add_flow(flow)
        engine.remove_flow(flow)
        engine.remove_flow(flow)
        assert engine.active_flow_count() == 0

    def test_duplicate_add_rejected(self):
        engine = AllocationEngine()
        flow = _flow("f", [_link("l", 5.0)])
        engine.add_flow(flow)
        with pytest.raises(ValueError):
            engine.add_flow(flow)

    def test_set_path_moves_load_between_links(self):
        engine = AllocationEngine()
        old, new = _link("old", 10.0), _link("new", 10.0)
        flow = _flow("f", [old])
        engine.add_flow(flow)
        engine.solve()
        assert abs(engine.link_loads["old"] - 10.0) < EPS
        engine.set_path(flow, [new])
        result = engine.solve()
        assert flow.path == [new]
        assert {"old", "new"} <= result.changed_links
        assert abs(engine.link_loads["old"]) < EPS
        assert abs(engine.link_loads["new"] - 10.0) < EPS
        engine.check_consistency([flow])

    def test_drained_link_load_is_exactly_zero(self):
        engine = AllocationEngine()
        link = _link("l", 10.0)
        flows = [_flow(f"f{i}", [link], demand=3.3) for i in range(3)]
        for flow in flows:
            engine.add_flow(flow)
            engine.solve()
        for flow in flows:
            engine.remove_flow(flow)
        result = engine.solve()
        assert engine.link_loads["l"] == 0.0
        assert "l" in result.changed_links

    def test_demand_change_reallocates(self):
        engine = AllocationEngine()
        link = _link("l", 10.0)
        small, big = _flow("small", [link], demand=5.0), _flow("big", [link])
        engine.add_flow(small)
        engine.add_flow(big)
        engine.solve()
        small.demand_mbps = 1.0
        engine.update_demand(small)
        result = engine.solve()
        assert abs(result.rates["small"] - 1.0) < EPS
        assert abs(result.rates["big"] - 9.0) < EPS

    def test_capacity_change_reallocates(self):
        engine = AllocationEngine()
        link = _link("l", 10.0)
        flow = _flow("f", [link])
        engine.add_flow(flow)
        engine.solve()
        link.capacity_mbps = 4.0
        engine.update_capacity("l")
        result = engine.solve()
        assert abs(result.rates["f"] - 4.0) < EPS

    def test_max_rate_cap_applies(self):
        engine = AllocationEngine(EngineConfig(max_rate_mbps=2.5))
        flow = _flow("f", [_link("l", 100.0)])
        engine.add_flow(flow)
        result = engine.solve()
        assert abs(result.rates["f"] - 2.5) < EPS


class TestSolveModes:
    def test_noop_when_nothing_dirty(self):
        engine = AllocationEngine()
        flow = _flow("f", [_link("l", 5.0)])
        engine.add_flow(flow)
        engine.solve()
        result = engine.solve()
        assert result.mode == "noop"
        assert engine.counters.noop_solves == 1

    def test_disjoint_component_not_touched(self):
        engine = AllocationEngine(EngineConfig(full_solve_fraction=0.9))
        left = [_flow(f"L{i}", [_link("ll", 10.0)]) for i in range(2)]
        right = [_flow(f"R{i}", [_link("rl", 10.0)]) for i in range(2)]
        for flow in left + right:
            engine.add_flow(flow)
        engine.solve()  # full: everything dirty on first solve
        left[0].demand_mbps = 1.0
        engine.update_demand(left[0])
        result = engine.solve()
        assert result.mode == "incremental"
        # Only the left component's flows were re-solved.
        assert set(result.rates) == {"L0", "L1"}
        assert "rl" not in result.changed_links

    def test_full_solve_fallback_when_component_spans_network(self):
        engine = AllocationEngine(EngineConfig(full_solve_fraction=0.6))
        shared = _link("shared", 10.0)
        flows = [_flow(f"f{i}", [shared]) for i in range(4)]
        for flow in flows:
            engine.add_flow(flow)
        engine.solve()
        flows[0].demand_mbps = 1.0
        engine.update_demand(flows[0])
        result = engine.solve()
        # All four flows share one link: the component is the whole
        # network, so the engine falls back to a full solve.
        assert result.mode == "full"

    def test_incremental_disabled_forces_full(self):
        engine = AllocationEngine(EngineConfig(full_solve_fraction=0.0))
        left = _flow("L", [_link("ll", 10.0)])
        right = _flow("R", [_link("rl", 10.0)])
        engine.add_flow(left)
        engine.add_flow(right)
        engine.solve()
        left.demand_mbps = 1.0
        engine.update_demand(left)
        result = engine.solve()
        assert result.mode == "full"
        assert engine.counters.incremental_solves == 0
        assert engine.counters.full_solves == 2

    def test_counters_accumulate(self):
        engine = AllocationEngine()
        link = _link("l", 10.0)
        flows = [_flow(f"f{i}", [link]) for i in range(3)]
        for flow in flows:
            engine.add_flow(flow)
            engine.solve()
        counters = engine.counters.as_dict()
        assert counters["solve_calls"] == 3
        assert counters["flows_active_peak"] == 3
        assert counters["flows_touched"] == 1 + 2 + 3
        assert (
            counters["full_solves"]
            + counters["incremental_solves"]
            + counters["noop_solves"]
            == counters["solve_calls"]
        )


class TestNetworkIntegration:
    def _network(self):
        sim = Simulator(seed=7)
        topo = Topology("t")
        topo.add_node("a", NodeKind.SERVER)
        topo.add_node("b", NodeKind.CLIENT)
        topo.add_link("a", "b", 10.0, delay_ms=1)
        return sim, FluidNetwork(sim, topo)

    def test_allocation_counters_exposed(self):
        sim, net = self._network()
        net.start_transfer("a", "b", size_mbit=10.0)
        sim.run(until=10.0)
        counters = net.allocation_counters()
        for key in (
            "solve_calls",
            "full_solves",
            "incremental_solves",
            "noop_solves",
            "flows_touched",
            "flows_active_peak",
            "router_cache_hits",
            "router_cache_misses",
        ):
            assert key in counters
        assert counters["solve_calls"] >= 1
        assert counters["flows_active_peak"] >= 1
        assert net.completed_transfers == 1

    def test_router_cache_invalidated_by_topology_growth(self):
        sim, net = self._network()
        net.start_transfer("a", "b", size_mbit=1.0)
        net.start_transfer("a", "b", size_mbit=1.0)
        assert net.router.cache_hits >= 1
        # Structural change: the cached shortest paths may be stale.
        net.topology.add_node("c", NodeKind.ROUTER)
        net.topology.add_link("b", "c", 10.0, delay_ms=1)
        hits_before = net.router.cache_hits
        net.start_transfer("a", "b", size_mbit=1.0)
        assert net.router.cache_misses >= 2  # recomputed after invalidation
        assert net.router.cache_hits == hits_before
