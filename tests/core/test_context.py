"""SimContext assembly and context-accepting constructors."""

import pytest

from repro.cdn.provider import Cdn
from repro.cdn.server import CdnServer
from repro.core.appp import StatusQuoAppP
from repro.core.context import SimContext, build_context, resolve_sim_network
from repro.core.infp import EonaInfP, StatusQuoInfP
from repro.network.allocator import EngineConfig
from repro.network.topology import NodeKind, Topology


def _topo():
    topo = Topology("ctx")
    topo.add_node("cdn1", NodeKind.SERVER, owner="cdn1")
    topo.add_node("client", NodeKind.CLIENT, owner="isp")
    topo.add_link("cdn1", "client", 10.0, delay_ms=1, owner="isp")
    return topo


class TestBuildContext:
    def test_wires_the_quartet_together(self):
        ctx = build_context(topology=_topo(), seed=3)
        assert ctx.network.sim is ctx.sim
        assert ctx.network.topology is ctx.topology
        assert ctx.rng is ctx.sim.rng
        assert ctx.now == 0.0

    def test_engine_config_reaches_the_network(self):
        config = EngineConfig(max_rate_mbps=7.0, full_solve_fraction=0.0)
        ctx = build_context(topology=_topo(), engine_config=config)
        assert ctx.network.engine.config is config
        assert ctx.network.max_rate_mbps == 7.0

    def test_fresh_topology_when_omitted(self):
        ctx = build_context(name="empty")
        assert ctx.topology.name == "empty"

    def test_run_and_counters_passthrough(self):
        ctx = build_context(topology=_topo())
        ctx.network.start_transfer("cdn1", "client", size_mbit=5.0)
        ctx.run(until=10.0)
        counters = ctx.allocation_counters()
        assert counters["solve_calls"] >= 1


class TestCdnRegistration:
    def test_cdn_self_registers(self):
        ctx = build_context(topology=_topo())
        cdn = Cdn("cdn1", [CdnServer("cdn1.s1", "cdn1", capacity_sessions=100)], ctx=ctx)
        assert ctx.cdns == [cdn]

    def test_registration_is_idempotent(self):
        ctx = build_context(topology=_topo())
        cdn = Cdn("cdn1", [CdnServer("cdn1.s1", "cdn1", capacity_sessions=100)], ctx=ctx)
        ctx.register_cdn(cdn)
        assert ctx.cdns == [cdn]


class TestContextConstructors:
    def test_appp_takes_cdns_from_context(self):
        ctx = build_context(topology=_topo())
        cdn = Cdn("cdn1", [CdnServer("cdn1.s1", "cdn1", capacity_sessions=100)], ctx=ctx)
        policy = StatusQuoAppP(ctx, name="appp")
        assert policy.cdns == [cdn]
        assert policy.sim is ctx.sim

    def test_infp_takes_network_from_context(self):
        ctx = build_context(topology=_topo())
        infp = StatusQuoInfP(ctx, stats_period_s=5.0)
        assert infp.network is ctx.network
        infp.stop()

    def test_eona_infp_takes_registry_from_context(self):
        ctx = build_context(topology=_topo())
        infp = EonaInfP(ctx, stats_period_s=5.0)
        assert infp.registry is ctx.registry
        infp.stop()

    def test_resolve_requires_network_without_context(self):
        ctx = build_context(topology=_topo())
        sim, network = resolve_sim_network(ctx, None)
        assert (sim, network) == (ctx.sim, ctx.network)
        with pytest.raises(TypeError):
            resolve_sim_network(ctx.sim, None)
