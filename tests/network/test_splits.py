"""Weighted traffic splits in the fluid network and the TE app."""

import pytest

from repro.network.fluidsim import FluidNetwork, _SplitState
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator


def _dual_path(sim):
    topo = Topology()
    topo.add_node("src", NodeKind.SERVER)
    topo.add_node("p1", NodeKind.PEERING)
    topo.add_node("p2", NodeKind.PEERING)
    topo.add_node("dst", NodeKind.CLIENT)
    topo.add_link("src", "p1", 100.0, delay_ms=1.0)
    topo.add_link("src", "p2", 100.0, delay_ms=9.0)
    topo.add_link("p1", "dst", 100.0, delay_ms=1.0)
    topo.add_link("p2", "dst", 100.0, delay_ms=9.0)
    return FluidNetwork(sim, topo)


def _via_of(transfer):
    return transfer.flow.path[0].dst


class TestSplitState:
    def test_even_split_alternates(self):
        state = _SplitState({"a": 0.5, "b": 0.5})
        draws = [state.next_via() for _ in range(10)]
        assert draws.count("a") == 5
        assert draws.count("b") == 5

    def test_weighted_split_tracks_weights(self):
        state = _SplitState({"a": 0.75, "b": 0.25})
        draws = [state.next_via() for _ in range(40)]
        assert draws.count("a") == 30
        assert draws.count("b") == 10

    def test_deterministic(self):
        first = [_SplitState({"a": 0.6, "b": 0.4}).next_via() for _ in range(1)]
        second = [_SplitState({"a": 0.6, "b": 0.4}).next_via() for _ in range(1)]
        assert first == second

    def test_equal_weight_ties_break_to_smallest_via(self):
        # Ties go to the lexicographically smallest via name, regardless
        # of dict insertion order.
        state = _SplitState({"b": 0.5, "a": 0.5})
        assert state.next_via() == "a"
        assert state.next_via() == "b"
        assert state.next_via() == "a"
        assert state.next_via() == "b"

    def test_assignment_independent_of_insertion_order(self):
        forward = _SplitState({"a": 0.5, "b": 0.5})
        backward = _SplitState({"b": 0.5, "a": 0.5})
        assert [forward.next_via() for _ in range(12)] == [
            backward.next_via() for _ in range(12)
        ]

    def test_three_way_tie_cycles_alphabetically(self):
        state = _SplitState({"c": 1 / 3, "a": 1 / 3, "b": 1 / 3})
        draws = [state.next_via() for _ in range(6)]
        assert draws == ["a", "b", "c", "a", "b", "c"]


class TestNetworkSplits:
    def test_new_flows_follow_weights(self, sim):
        net = _dual_path(sim)
        net.set_split_policy("g", {"p1": 0.5, "p2": 0.5})
        transfers = [
            net.start_transfer("src", "dst", 10.0, owner="g") for _ in range(8)
        ]
        vias = [_via_of(t) for t in transfers]
        assert vias.count("p1") == 4
        assert vias.count("p2") == 4

    def test_active_flows_rebalanced(self, sim):
        net = _dual_path(sim)
        transfers = [
            net.start_transfer("src", "dst", 1000.0, owner="g") for _ in range(6)
        ]
        assert all(_via_of(t) == "p1" for t in transfers)  # shortest path
        net.set_split_policy("g", {"p1": 0.5, "p2": 0.5})
        vias = [_via_of(t) for t in transfers]
        assert vias.count("p1") == 3
        assert vias.count("p2") == 3

    def test_split_policy_query(self, sim):
        net = _dual_path(sim)
        assert net.split_policy("g") is None
        net.set_split_policy("g", {"p1": 3.0, "p2": 1.0})
        assert net.split_policy("g") == {"p1": 0.75, "p2": 0.25}

    def test_via_policy_clears_split(self, sim):
        net = _dual_path(sim)
        net.set_split_policy("g", {"p1": 0.5, "p2": 0.5})
        net.set_via_policy("g", "p2")
        assert net.split_policy("g") is None
        transfer = net.start_transfer("src", "dst", 10.0, owner="g")
        assert _via_of(transfer) == "p2"

    def test_invalid_weights(self, sim):
        net = _dual_path(sim)
        with pytest.raises(ValueError):
            net.set_split_policy("g", {})
        with pytest.raises(ValueError):
            net.set_split_policy("g", {"p1": -1.0, "p2": 2.0})
        with pytest.raises(ValueError):
            net.set_split_policy("g", {"p1": 0.0})
        nan, inf = float("nan"), float("inf")
        for weights in ({"p1": nan, "p2": 1.0}, {"p1": inf, "p2": 1.0}, {"p1": nan}):
            with pytest.raises(ValueError):
                net.set_split_policy("g", weights)
        assert net.split_policy("g") is None


class TestTeSplits:
    def _te_world(self):
        sim = Simulator(seed=0)
        topo = Topology()
        topo.add_node("cdn", NodeKind.SERVER, owner="cdn")
        topo.add_node("B", NodeKind.PEERING, owner="isp")
        topo.add_node("C", NodeKind.PEERING, owner="isp")
        topo.add_node("core", NodeKind.ROUTER, owner="isp")
        topo.add_node("client", NodeKind.CLIENT, owner="isp")
        topo.add_link("cdn", "B", 1000.0, delay_ms=1.0)
        topo.add_link("cdn", "C", 1000.0, delay_ms=5.0)
        topo.add_link("B", "core", 10.0, tags=("peering",))
        topo.add_link("C", "core", 10.0, tags=("peering",))
        topo.add_link("core", "client", 1000.0)
        net = FluidNetwork(sim, topo)
        from repro.sdn.controller import SdnController
        from repro.sdn.stats import StatsService
        from repro.sdn.te import EgressGroup, TrafficEngineeringApp

        controller = SdnController(net, owner="isp")
        stats = StatsService(sim, controller, period=2.0)
        group = EgressGroup(
            name="cdn", remote="cdn", candidates=["B", "C"],
            egress_links={"B": "B->core", "C": "C->core"},
        )
        return sim, net, controller, stats, group, TrafficEngineeringApp

    def test_policy_may_return_split(self):
        sim, net, controller, stats, group, TE = self._te_world()
        te = TE(
            sim, net, controller, stats, [group], period=10.0,
            policy=lambda app, g: {"B": 0.5, "C": 0.5},
        )
        sim.run(until=15.0)
        assert group.split == {"B": 0.5, "C": 0.5}
        assert net.split_policy("cdn") == {"B": 0.5, "C": 0.5}
        assert te.switch_count("cdn") == 1  # logged as one decision

    def test_split_with_non_candidate_rejected(self):
        sim, net, controller, stats, group, TE = self._te_world()
        TE(
            sim, net, controller, stats, [group], period=10.0,
            policy=lambda app, g: {"B": 0.5, "nonsense": 0.5},
        )
        with pytest.raises(ValueError):
            sim.run(until=15.0)

    def test_single_selection_clears_split(self):
        sim, net, controller, stats, group, TE = self._te_world()
        answers = [{"B": 0.5, "C": 0.5}, "C"]

        def policy(app, g):
            return answers[0] if app.sim.now < 15.0 else answers[1]

        TE(sim, net, controller, stats, [group], period=10.0, policy=policy)
        sim.run(until=25.0)
        assert group.split is None
        assert group.selection == "C"
        assert net.split_policy("cdn") is None
