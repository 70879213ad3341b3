"""Modes and the global-controller oracle."""

from repro.baselines.modes import Mode
from repro.baselines.oracle import OracleAppP, oracle_te_policy
from repro.cdn.content import ContentCatalog
from repro.cdn.provider import Cdn
from repro.cdn.server import CdnServer
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator
from repro.video.abr import RateBasedAbr
from repro.video.ladder import DEFAULT_LADDER
from repro.video.player import AdaptivePlayer


class TestModes:
    def test_interface_presence_flags(self):
        assert Mode.EONA.has_i2a and Mode.EONA.has_a2i
        assert Mode.I2A_ONLY.has_i2a and not Mode.I2A_ONLY.has_a2i
        assert Mode.A2I_ONLY.has_a2i and not Mode.A2I_ONLY.has_i2a
        assert not Mode.STATUS_QUO.has_i2a and not Mode.STATUS_QUO.has_a2i


def _world():
    sim = Simulator(seed=2)
    topo = Topology()
    topo.add_node("x1", NodeKind.SERVER)
    topo.add_node("x2", NodeKind.SERVER)
    topo.add_node("core", NodeKind.ROUTER)
    topo.add_node("client", NodeKind.CLIENT)
    topo.add_link("x1", "core", 100.0)
    topo.add_link("x2", "core", 100.0)
    access = topo.add_link("core", "client", 10.0, tags=("access",))
    net = FluidNetwork(sim, topo)
    cdn = Cdn(
        "cdnX",
        [
            CdnServer("x1", "x1", 100, degraded_rate_mbps=0.3),
            CdnServer("x2", "x2", 100),
        ],
    )
    catalog = ContentCatalog(n_items=2, duration_s=40.0)
    return sim, net, cdn, catalog, access.link_id


class TestOracleAppP:
    def test_assigns_to_healthy_server(self):
        sim, net, cdn, catalog, access = _world()
        policy = OracleAppP(sim, [cdn], network=net)
        player = AdaptivePlayer(
            sim, net, "s0", "client", catalog.by_rank(0),
            DEFAULT_LADDER, RateBasedAbr(), policy,
        )
        player.start()
        assert cdn.server_of("s0").server_id == "x2"
        sim.run(until=200.0)
        assert player.qoe().buffering_ratio < 0.01

    def test_caps_fleet_at_sustainable_rung(self):
        sim, net, cdn, catalog, access = _world()
        policy = OracleAppP(sim, [cdn], network=net, access_links=[access])
        players = []
        for index in range(4):
            player = AdaptivePlayer(
                sim, net, f"s{index}", "client", catalog.by_rank(0),
                DEFAULT_LADDER, RateBasedAbr(), policy,
            )
            players.append(player)
            player.start()
        # 4 sessions over a 10 Mbps access: 0.95*10/4 = 2.375 -> rung 1.5.
        assert policy.rate_cap_mbps(players[0]) == 1.5

    def test_cap_relaxes_with_population(self):
        sim, net, cdn, catalog, access = _world()
        policy = OracleAppP(sim, [cdn], network=net, access_links=[access])
        player = AdaptivePlayer(
            sim, net, "solo", "client", catalog.by_rank(0),
            DEFAULT_LADDER, RateBasedAbr(), policy,
        )
        player.start()
        assert policy.rate_cap_mbps(player) == 6.0


class TestOracleTePolicy:
    def test_places_by_true_demand(self):
        sim = Simulator(seed=0)
        topo = Topology()
        topo.add_node("cdnX", NodeKind.SERVER, owner="cdnX")
        topo.add_node("B", NodeKind.PEERING, owner="isp")
        topo.add_node("C", NodeKind.PEERING, owner="isp")
        topo.add_node("core", NodeKind.ROUTER, owner="isp")
        topo.add_node("client", NodeKind.CLIENT, owner="isp")
        topo.add_link("cdnX", "B", 1000.0, delay_ms=1.0)
        topo.add_link("cdnX", "C", 1000.0, delay_ms=5.0)
        topo.add_link("B", "core", 10.0, tags=("peering",))
        topo.add_link("C", "core", 100.0, tags=("peering",))
        topo.add_link("core", "client", 1000.0)
        net = FluidNetwork(sim, topo)

        from repro.sdn.controller import SdnController
        from repro.sdn.stats import StatsService
        from repro.sdn.te import EgressGroup, TrafficEngineeringApp

        controller = SdnController(net, owner="isp")
        stats = StatsService(sim, controller, period=2.0)
        group = EgressGroup(
            name="cdnX", remote="cdnX", candidates=["B", "C"],
            egress_links={"B": "B->core", "C": "C->core"}, preferred="B",
        )
        te = TrafficEngineeringApp(
            sim, net, controller, stats, [group], period=10.0,
            policy=oracle_te_policy(net),
        )
        net.start_stream("cdnX", "client", demand_mbps=30.0, owner="cdnX")
        sim.run(until=300.0)
        assert te.selection("cdnX") == "C"
        assert te.switch_count("cdnX") <= 1
