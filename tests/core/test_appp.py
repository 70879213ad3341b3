"""AppP control logic: status quo coarseness vs. EONA's knob selection."""

import math

from repro.cdn.content import ContentCatalog
from repro.cdn.provider import Cdn
from repro.cdn.server import CdnServer
from repro.core.appp import EonaAppP, StatusQuoAppP
from repro.core.infp import make_cdn_i2a
from repro.core.interfaces import LookingGlass
from repro.core.registry import OptInRegistry
from repro.core.schemas import CongestionSignal
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator
from repro.video.abr import RateBasedAbr
from repro.video.ladder import DEFAULT_LADDER
from repro.video.player import AdaptivePlayer


def _world(degraded_rate=0.3):
    """Two CDNs; CDN X has one degraded and one healthy server."""
    sim = Simulator(seed=5)
    topo = Topology()
    topo.add_node("x1", NodeKind.SERVER)
    topo.add_node("x2", NodeKind.SERVER)
    topo.add_node("y1", NodeKind.SERVER)
    topo.add_node("core", NodeKind.ROUTER)
    topo.add_node("client", NodeKind.CLIENT)
    for server_node in ("x1", "x2", "y1"):
        topo.add_link(server_node, "core", 100.0)
    topo.add_link("core", "client", 50.0)
    net = FluidNetwork(sim, topo)
    cdn_x = Cdn(
        "cdnX",
        [
            CdnServer("x1", "x1", 100, degraded_rate_mbps=degraded_rate),
            CdnServer("x2", "x2", 100),
        ],
        selection="first_fit",
    )
    cdn_y = Cdn("cdnY", [CdnServer("y1", "y1", 100)])
    catalog = ContentCatalog(n_items=3, duration_s=60.0)
    return sim, net, cdn_x, cdn_y, catalog


def _play(sim, net, policy, catalog, session_id="s0"):
    player = AdaptivePlayer(
        sim,
        net,
        session_id=session_id,
        client_node="client",
        content=catalog.by_rank(0),
        ladder=DEFAULT_LADDER,
        abr=RateBasedAbr(),
        policy=policy,
    )
    player.start()
    return player


class TestStatusQuo:
    def test_switches_whole_cdn_on_degradation(self):
        sim, net, cdn_x, cdn_y, catalog = _world()
        policy = StatusQuoAppP(sim, [cdn_x, cdn_y])
        player = _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        qoe = player.qoe()
        assert qoe.cdn_switches >= 1
        assert qoe.server_switches == 0
        assert player.cdn is cdn_y

    def test_healthy_session_left_alone(self):
        sim, net, cdn_x, cdn_y, catalog = _world(degraded_rate=None)
        policy = StatusQuoAppP(sim, [cdn_x, cdn_y])
        player = _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        assert player.qoe().cdn_switches == 0

    def test_telemetry_emitted_on_end(self):
        sim, net, cdn_x, cdn_y, catalog = _world(degraded_rate=None)
        policy = StatusQuoAppP(sim, [cdn_x, cdn_y])
        _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        assert policy.collector.ingested == 1
        assert len(policy.finished_qoe) == 1

    def test_demand_estimate_tracks_active_sessions(self):
        sim, net, cdn_x, cdn_y, catalog = _world(degraded_rate=None)
        policy = StatusQuoAppP(sim, [cdn_x, cdn_y])
        _play(sim, net, policy, catalog)
        sim.run(until=30.0)
        demand = policy.demand_estimate()
        assert demand.for_cdn("cdnX") > 0.0
        sim.run(until=600.0)
        assert policy.demand_estimate().for_cdn("cdnX") == 0.0


class TestEonaServerHints:
    def test_intra_cdn_switch_instead_of_cdn_switch(self):
        sim, net, cdn_x, cdn_y, catalog = _world()
        registry = OptInRegistry()
        cdn_i2a = {"cdnX": make_cdn_i2a(sim, cdn_x, registry)}
        registry.grant("cdnX", "appp")
        policy = EonaAppP(sim, [cdn_x, cdn_y], cdn_i2a=cdn_i2a, name="appp")
        player = _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        qoe = player.qoe()
        assert qoe.server_switches >= 1
        assert qoe.cdn_switches == 0
        assert player.cdn is cdn_x

    def test_without_grant_falls_back_to_cdn_switch(self):
        sim, net, cdn_x, cdn_y, catalog = _world()
        registry = OptInRegistry()
        cdn_i2a = {"cdnX": make_cdn_i2a(sim, cdn_x, registry)}
        # No grant issued.
        policy = EonaAppP(sim, [cdn_x, cdn_y], cdn_i2a=cdn_i2a, name="appp")
        player = _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        assert player.qoe().cdn_switches >= 1


class _FakeIspGlass(LookingGlass):
    """An ISP I2A glass reporting access congestion on demand."""

    def __init__(self, sim, registry, congested_flag):
        super().__init__(sim, "isp", registry)
        self.register(
            "congestion",
            lambda: [
                CongestionSignal(
                    time=sim.now,
                    scope="access",
                    congested=congested_flag["value"],
                    severity=0.99 if congested_flag["value"] else 0.1,
                )
            ],
        )


class TestEonaCongestionResponse:
    def test_access_congestion_caps_bitrate_not_cdn(self):
        sim, net, cdn_x, cdn_y, catalog = _world()
        registry = OptInRegistry()
        registry.grant("isp", "appp")
        flag = {"value": True}
        glass = _FakeIspGlass(sim, registry, flag)
        policy = EonaAppP(
            sim, [cdn_x, cdn_y], isp_i2a=glass, name="appp",
            global_cap_period_s=0.0,
        )
        player = _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        qoe = player.qoe()
        assert qoe.cdn_switches == 0
        assert policy.bitrate_downshifts >= 1

    def test_cap_lifted_when_congestion_clears(self):
        sim, net, cdn_x, cdn_y, catalog = _world(degraded_rate=None)
        registry = OptInRegistry()
        registry.grant("isp", "appp")
        flag = {"value": True}
        glass = _FakeIspGlass(sim, registry, flag)
        policy = EonaAppP(
            sim, [cdn_x, cdn_y], isp_i2a=glass, name="appp",
            global_cap_period_s=5.0,
        )
        player = _play(sim, net, policy, catalog)
        sim.schedule(30.0, lambda: flag.__setitem__("value", False))
        sim.run(until=600.0)
        policy.stop()
        assert math.isinf(policy.global_cap_mbps)

    def test_governor_steps_fleet_cap_down_while_congested(self):
        sim, net, cdn_x, cdn_y, catalog = _world(degraded_rate=None)
        registry = OptInRegistry()
        registry.grant("isp", "appp")
        flag = {"value": True}
        glass = _FakeIspGlass(sim, registry, flag)
        policy = EonaAppP(
            sim, [cdn_x, cdn_y], isp_i2a=glass, name="appp",
            global_cap_period_s=5.0,
        )
        player = _play(sim, net, policy, catalog)
        sim.run(until=40.0)
        policy.stop()
        assert policy.global_cap_mbps <= DEFAULT_LADDER.bitrates_mbps[1]


class TestA2IExport:
    def test_qoe_aggregates_flow_through_glass(self):
        sim, net, cdn_x, cdn_y, catalog = _world(degraded_rate=None)
        registry = OptInRegistry()
        policy = StatusQuoAppP(sim, [cdn_x, cdn_y], name="appp", isp="isp1")
        glass = policy.make_a2i(registry, refresh_period_s=0.0)
        registry.grant("appp", "isp")
        _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        result = glass.query("isp", "qoe_by_cdn")
        assert len(result.payload) == 1
        row = result.payload[0]
        assert row["cdn"] == "cdnX"
        assert row["sessions"] == 1

    def test_k_anonymity_suppresses_small_groups(self):
        sim, net, cdn_x, cdn_y, catalog = _world(degraded_rate=None)
        registry = OptInRegistry()
        policy = StatusQuoAppP(sim, [cdn_x, cdn_y], name="appp")
        glass = policy.make_a2i(registry, refresh_period_s=0.0, k_anonymity=5)
        registry.grant("appp", "isp")
        _play(sim, net, policy, catalog)
        sim.run(until=600.0)
        assert glass.query("isp", "qoe_by_cdn").payload == []
