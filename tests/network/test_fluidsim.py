"""Fluid network end-to-end: transfers, sharing, rerouting, policies."""

import math
import random

import pytest

from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator


class TestSingleTransfer:
    def test_completion_time_is_size_over_bottleneck(self, sim, net):
        done = []
        net.start_transfer(
            "server", "client", size_mbit=10.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.run()
        assert done == [pytest.approx(2.0)]  # bottleneck r1->r2 = 5 Mbps

    def test_zero_size_completes_immediately(self, sim, net):
        done = []
        net.start_transfer(
            "server", "client", size_mbit=0.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.run()
        assert done == [0.0]

    def test_demand_cap_slows_transfer(self, sim, net):
        done = []
        net.start_transfer(
            "server", "client", size_mbit=10.0, demand_mbps=1.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.run()
        assert done == [pytest.approx(10.0)]

    def test_mean_throughput(self, sim, net):
        transfers = []
        net.start_transfer(
            "server", "client", size_mbit=10.0,
            on_complete=transfers.append,
        )
        sim.run()
        assert transfers[0].mean_throughput_mbps() == pytest.approx(5.0)


class TestSharing:
    def test_two_transfers_share_fairly(self, sim, net):
        done = []
        for name in ("a", "b"):
            net.start_transfer(
                "server", "client", size_mbit=5.0,
                on_complete=lambda t, n=name: done.append((n, sim.now)),
            )
        sim.run()
        # Each gets 2.5 Mbps; both finish at t=2.
        assert [t for _, t in done] == [pytest.approx(2.0)] * 2

    def test_rates_rebalance_when_flow_completes(self, sim, net):
        done = []
        net.start_transfer(
            "server", "client", size_mbit=2.5,
            on_complete=lambda t: done.append(("small", sim.now)),
        )
        net.start_transfer(
            "server", "client", size_mbit=7.5,
            on_complete=lambda t: done.append(("big", sim.now)),
        )
        sim.run()
        # Shared until t=1 (2.5 each); big then gets 5 Mbps for 5 Mbit.
        assert done[0] == ("small", pytest.approx(1.0))
        assert done[1] == ("big", pytest.approx(2.0))

    def test_later_arrival_steals_bandwidth(self, sim, net):
        done = []
        net.start_transfer(
            "server", "client", size_mbit=10.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.schedule(1.0, lambda: net.start_transfer("server", "client", 100.0))
        sim.run(until=10.0)
        # First flow: 5 Mbit in the first second, then 2.5 Mbps.
        assert done == [pytest.approx(3.0)]


class TestControls:
    def test_abort_stops_flow(self, sim, net):
        done = []
        transfer = net.start_transfer(
            "server", "client", size_mbit=10.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.schedule(0.5, lambda: net.abort(transfer))
        sim.run(until=10.0)
        assert done == []
        assert transfer.done

    def test_abort_idempotent(self, sim, net):
        transfer = net.start_transfer("server", "client", size_mbit=1.0)
        net.abort(transfer)
        net.abort(transfer)
        assert transfer.done

    def test_set_demand_midflight(self, sim, net):
        done = []
        transfer = net.start_transfer(
            "server", "client", size_mbit=10.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.schedule(1.0, lambda: net.set_demand(transfer, 1.0))
        sim.run()
        # 5 Mbit in first second, remaining 5 Mbit at 1 Mbps.
        assert done == [pytest.approx(6.0)]

    def test_capacity_change_reallocates(self, sim, net):
        done = []
        net.start_transfer(
            "server", "client", size_mbit=10.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.schedule(1.0, lambda: net.set_link_capacity("r1->r2", 1.0))
        sim.run()
        assert done == [pytest.approx(6.0)]

    def test_invalid_capacity_rejected(self, net):
        for capacity in (0.0, math.nan):
            with pytest.raises(ValueError):
                net.set_link_capacity("r1->r2", capacity)
        transfer = net.start_stream("server", "client", demand_mbps=1.0)
        for demand in (0.0, math.nan):
            with pytest.raises(ValueError):
                net.set_demand(transfer, demand)
            with pytest.raises(ValueError):
                net.update_streams([(transfer, demand, None)])
        assert transfer.flow.demand_mbps == 1.0

    def test_negative_capacity_rejected(self, net):
        with pytest.raises(ValueError, match="capacity must be positive"):
            net.set_link_capacity("r1->r2", -5.0)
        # The failed call must not have touched the link.
        assert net.topology.link("r1->r2").capacity_mbps == 5.0


class TestViaPolicy:
    def _dual_path_net(self, sim):
        topo = Topology()
        topo.add_node("src", NodeKind.SERVER)
        topo.add_node("p1", NodeKind.PEERING)
        topo.add_node("p2", NodeKind.PEERING)
        topo.add_node("dst", NodeKind.CLIENT)
        topo.add_link("src", "p1", 10.0, delay_ms=1.0)
        topo.add_link("src", "p2", 10.0, delay_ms=9.0)
        topo.add_link("p1", "dst", 10.0, delay_ms=1.0)
        topo.add_link("p2", "dst", 10.0, delay_ms=9.0)
        return FluidNetwork(sim, topo)

    def test_policy_steers_new_flows(self, sim):
        net = self._dual_path_net(sim)
        net.set_via_policy("groupA", "p2")
        transfer = net.start_transfer("src", "dst", 10.0, owner="groupA")
        assert any(link.src == "p2" for link in transfer.flow.path)

    def test_policy_reroutes_active_flows(self, sim):
        net = self._dual_path_net(sim)
        transfer = net.start_transfer("src", "dst", 10.0, owner="groupA")
        assert any(link.src == "p1" for link in transfer.flow.path)
        net.set_via_policy("groupA", "p2")
        assert any(link.src == "p2" for link in transfer.flow.path)

    def test_explicit_via_wins_over_policy(self, sim):
        net = self._dual_path_net(sim)
        net.set_via_policy("groupA", "p2")
        transfer = net.start_transfer("src", "dst", 10.0, owner="groupA", via="p1")
        assert any(link.src == "p1" for link in transfer.flow.path)

    def test_clear_policy(self, sim):
        net = self._dual_path_net(sim)
        net.set_via_policy("groupA", "p2")
        net.set_via_policy("groupA", None)
        transfer = net.start_transfer("src", "dst", 10.0, owner="groupA")
        assert any(link.src == "p1" for link in transfer.flow.path)

    def test_transfers_by_owner(self, sim):
        net = self._dual_path_net(sim)
        net.start_transfer("src", "dst", 10.0, owner="groupA")
        net.start_transfer("src", "dst", 10.0, owner="groupB")
        assert len(net.transfers_by_owner("groupA")) == 1


class TestAccounting:
    def test_link_utilization_integral(self, sim, net):
        net.start_transfer("server", "client", size_mbit=10.0)
        sim.run(until=4.0)
        net.sync()
        stats = net.link_stats["r1->r2"]
        # Link ran at 5/5 = 100% for 2 s out of 4 s observed.
        assert stats.mean_utilization == pytest.approx(0.5)

    def test_completed_counter(self, sim, net):
        for _ in range(3):
            net.start_transfer("server", "client", size_mbit=1.0)
        sim.run()
        assert net.completed_transfers == 3

    def test_rtt_helper(self, net):
        # No reverse links in the line topology: rtt requires both ways.
        import pytest as _pytest
        from repro.network.routing import NoRouteError

        with _pytest.raises(NoRouteError):
            net.path_rtt_ms("server", "client")


def _multi_path_net(sim):
    """Two sources, three peering points, two sinks: every pair has 3 paths."""
    topo = Topology("mesh")
    for src in ("s1", "s2"):
        topo.add_node(src, NodeKind.SERVER)
    for via in ("p1", "p2", "p3"):
        topo.add_node(via, NodeKind.PEERING)
    for dst in ("d1", "d2"):
        topo.add_node(dst, NodeKind.CLIENT)
    for i, via in enumerate(("p1", "p2", "p3")):
        for src in ("s1", "s2"):
            topo.add_link(src, via, 7.0 + 3.0 * i, delay_ms=1.0 + i)
        for dst in ("d1", "d2"):
            topo.add_link(via, dst, 11.0 - 2.0 * i, delay_ms=1.0 + i)
    return FluidNetwork(sim, topo)


def _assert_exact_loads(net):
    """Every link's load is the sorted-id sum of its members' rates, to the bit."""
    members = {}
    for flow in sorted(net.active_flows(), key=lambda flow: flow.flow_id):
        for link in flow.path:
            members.setdefault(link.link_id, []).append(flow.rate_mbps)
    for link in net.topology.links():
        expected = sum(members.get(link.link_id, []))
        assert net.engine.link_loads.get(link.link_id, 0.0) == expected, link.link_id
        assert net.link_stats[link.link_id].current_load_mbps == expected, link.link_id


@pytest.mark.parametrize("seed", range(8))
def test_link_loads_exact_under_churn(seed):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    net = _multi_path_net(sim)
    transfers = []
    completions = []

    def on_complete(transfer):
        completions.append(transfer)
        _assert_exact_loads(net)

    def live():
        return [t for t in transfers if not t.done]

    def demand():
        return math.inf if rng.random() < 0.3 else rng.uniform(0.5, 9.0)

    for _ in range(150):
        op = rng.choice(
            ["transfer", "transfer", "stream", "demand", "weight", "abort",
             "capacity", "via", "batch", "advance", "advance"]
        )
        src, dst = rng.choice(("s1", "s2")), rng.choice(("d1", "d2"))
        owner = rng.choice(("A", "B"))
        if op == "transfer" or not live():
            transfers.append(net.start_transfer(
                src, dst, rng.uniform(0.0, 20.0), on_complete=on_complete,
                demand_mbps=demand(), owner=owner,
            ))
        elif op == "stream":
            transfers.append(net.start_stream(
                src, dst, rng.uniform(0.5, 9.0), owner=owner,
                weight=rng.choice((1.0, 2.5, 40.0)),
            ))
        elif op == "demand":
            net.set_demand(rng.choice(live()), demand())
        elif op == "weight":
            net.set_weight(rng.choice(live()), rng.uniform(0.5, 30.0))
        elif op == "abort":
            net.abort(rng.choice(live()))
        elif op == "capacity":
            link = rng.choice(list(net.topology.links()))
            net.set_link_capacity(link.link_id, rng.uniform(1.0, 15.0))
        elif op == "via":
            net.set_via_policy(owner, rng.choice(("p1", "p2", "p3", None)))
        elif op == "batch":
            picked = rng.sample(live(), min(3, len(live())))
            net.update_streams(
                (t, rng.uniform(0.5, 9.0), rng.choice((None, 3.0))) for t in picked
            )
        else:
            sim.run(until=sim.now + rng.uniform(0.1, 3.0))
        _assert_exact_loads(net)
    sim.run(until=sim.now + 100.0)
    _assert_exact_loads(net)
    assert completions
