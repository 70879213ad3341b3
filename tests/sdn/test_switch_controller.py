"""Switch FlowMod handling and controller path install/resolve."""

import pytest

from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.sdn.controller import ForwardingLoopError, SdnController
from repro.sdn.messages import FlowMod, FlowModCommand, Match
from repro.simkernel.kernel import Simulator


@pytest.fixture
def world():
    sim = Simulator(seed=0)
    topo = Topology()
    topo.add_node("cdn", NodeKind.SERVER, owner="cdn")
    topo.add_node("pB", NodeKind.PEERING, owner="isp")
    topo.add_node("pC", NodeKind.PEERING, owner="isp")
    topo.add_node("core", NodeKind.ROUTER, owner="isp")
    topo.add_node("client", NodeKind.CLIENT, owner="isp")
    topo.add_link("cdn", "pB", 10.0, delay_ms=1.0)
    topo.add_link("cdn", "pC", 10.0, delay_ms=5.0)
    topo.add_link("pB", "core", 10.0, delay_ms=1.0)
    topo.add_link("pC", "core", 10.0, delay_ms=1.0)
    topo.add_link("core", "client", 10.0, delay_ms=1.0)
    network = FluidNetwork(sim, topo)
    controller = SdnController(network, owner="isp")
    return sim, network, controller


class TestSwitch:
    def test_flow_mod_add_and_delete(self, world):
        _, network, controller = world
        switch = controller.switches["pB"]
        switch.handle_flow_mod(
            FlowMod(FlowModCommand.ADD, Match(group="g"), next_hop="core")
        )
        assert switch.next_hop("x", "y", "g") == "core"
        switch.handle_flow_mod(
            FlowMod(FlowModCommand.DELETE, Match(group="g"))
        )
        assert switch.next_hop("x", "y", "g") is None
        assert len(switch.drain_removed()) == 1

    def test_add_requires_next_hop(self, world):
        _, _, controller = world
        switch = controller.switches["pB"]
        with pytest.raises(ValueError):
            switch.handle_flow_mod(FlowMod(FlowModCommand.ADD, Match()))

    def test_invalid_next_hop_rejected(self, world):
        _, _, controller = world
        switch = controller.switches["pB"]
        with pytest.raises(ValueError):
            switch.handle_flow_mod(
                FlowMod(FlowModCommand.ADD, Match(), next_hop="client")
            )

    def test_stats_reply_reports_outgoing_links(self, world):
        sim, network, controller = world
        network.start_transfer("cdn", "client", 100.0, via="pB")
        reply = controller.switches["pB"].stats_reply(sim.now)
        port = reply.port("pB->core")
        assert port is not None
        assert port.load_mbps > 0

    def test_stats_reply_ports_follow_topology_order(self, world):
        sim, network, controller = world
        for _ in range(2):  # the second pass reads the cached ports
            for switch in controller.switches.values():
                expected = [
                    link.link_id
                    for link in network.topology.links()
                    if link.src == switch.node_id
                ]
                ports = switch.stats_reply(sim.now).ports
                assert [port.link_id for port in ports] == expected
        network.start_transfer("cdn", "client", 100.0, via="pC")
        # The start is still pending in this instant: the reply settles it.
        port = controller.switches["pC"].stats_reply(sim.now).port("pC->core")
        assert port.load_mbps == 10.0
        assert type(port.mbit_carried) is float


class TestController:
    def test_only_owner_nodes_get_switches(self, world):
        _, _, controller = world
        assert set(controller.switches) == {"pB", "pC", "core", "client"}

    def test_install_path_skips_foreign_nodes(self, world):
        _, _, controller = world
        sent = controller.install_path(
            ["cdn", "pC", "core"], Match(group="g"), cookie="te:g"
        )
        assert sent == 1  # only pC is isp-owned with a next hop

    def test_resolve_follows_installed_rules(self, world):
        _, _, controller = world
        # Default path goes via pB (lower delay); steer core-bound
        # traffic for group "g" through pC at the cdn... cdn has no
        # switch, so steer at resolution start: install on pC and check
        # fallback+rule mix by resolving from pC.
        controller.install_path(["pC", "core", "client"], Match(group="g"))
        path = controller.resolve_path("pC", "client", "g")
        assert path == ["pC", "core", "client"]

    def test_resolve_falls_back_to_shortest(self, world):
        _, _, controller = world
        assert controller.resolve_path("cdn", "client", "any") == [
            "cdn", "pB", "core", "client",
        ]

    def test_loop_detection(self, world):
        _, _, controller = world
        switch_core = controller.switches["core"]
        switch_b = controller.switches["pB"]
        # core -> pB? no such link; build loop pB->core, core->client ok.
        # Force a loop by sending core traffic back toward pB's neighbor.
        # core has no link back to pB, so simulate via client: no
        # outgoing links from client at all -> install nothing; instead
        # create a two-node loop between pB and core via bad rules:
        topo = controller.network.topology
        topo.add_link("core", "pB", 10.0, delay_ms=1.0)
        switch_core.handle_flow_mod(
            FlowMod(FlowModCommand.ADD, Match(group="g"), next_hop="pB")
        )
        switch_b.handle_flow_mod(
            FlowMod(FlowModCommand.ADD, Match(group="g"), next_hop="core")
        )
        with pytest.raises(ForwardingLoopError):
            controller.resolve_path("pB", "client", "g")

    def test_remove_by_cookie(self, world):
        _, _, controller = world
        controller.install_path(["pB", "core", "client"], Match(group="g"), cookie="c1")
        removed = controller.remove_by_cookie("c1")
        assert removed == 2
