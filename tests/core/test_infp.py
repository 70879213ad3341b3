"""InfP control logic: demand-aware TE, I2A export, energy manager."""

import pytest

from repro.cdn.provider import Cdn
from repro.cdn.server import CdnServer
from repro.core.infp import EnergyManager, EonaInfP, StatusQuoInfP, make_cdn_i2a
from repro.core.registry import AccessDeniedError, OptInRegistry
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.sdn.te import EgressGroup
from repro.simkernel.kernel import Simulator


def _fig5_world():
    sim = Simulator(seed=0)
    topo = Topology()
    topo.add_node("cdnX", NodeKind.SERVER, owner="cdnX")
    topo.add_node("B", NodeKind.PEERING, owner="isp")
    topo.add_node("C", NodeKind.PEERING, owner="isp")
    topo.add_node("core", NodeKind.ROUTER, owner="isp")
    topo.add_node("client", NodeKind.CLIENT, owner="isp")
    topo.add_link("cdnX", "B", 1000.0, delay_ms=1.0)
    topo.add_link("cdnX", "C", 1000.0, delay_ms=5.0)
    topo.add_link("B", "core", 10.0, delay_ms=1.0, tags=("peering",))
    topo.add_link("C", "core", 100.0, delay_ms=1.0, tags=("peering",))
    topo.add_link("core", "client", 1000.0, delay_ms=1.0, tags=("access",))
    network = FluidNetwork(sim, topo)
    group = EgressGroup(
        name="cdnX",
        remote="cdnX",
        candidates=["B", "C"],
        egress_links={"B": "B->core", "C": "C->core"},
        preferred="B",
    )
    return sim, network, group


class _FixedDemandGlass:
    """Stands in for an AppP A2I glass with a constant demand answer."""

    def __init__(self, demand):
        self.demand = demand
        self.queries = 0

    def query(self, requester, query, **params):
        from repro.core.interfaces import QueryResult

        self.queries += 1
        if query != "demand_estimate":
            raise AccessDeniedError(query)
        return QueryResult(
            query=query,
            payload={"time": 0.0, "demand_mbps": dict(self.demand)},
            age_s=0.0,
        )


class TestDemandAwareTe:
    def test_moves_to_big_peering_when_demand_exceeds_preferred(self):
        sim, network, group = _fig5_world()
        registry = OptInRegistry()
        glass = _FixedDemandGlass({"cdnX": 30.0})
        infp = EonaInfP(
            sim, network, [group], registry=registry, appp_a2i=glass,
            te_period_s=10.0, stats_period_s=2.0,
        )
        sim.run(until=25.0)
        assert infp.te.selection("cdnX") == "C"
        assert glass.queries >= 1
        infp.stop()

    def test_stays_on_preferred_when_demand_fits(self):
        sim, network, group = _fig5_world()
        registry = OptInRegistry()
        glass = _FixedDemandGlass({"cdnX": 5.0})
        infp = EonaInfP(
            sim, network, [group], registry=registry, appp_a2i=glass,
            te_period_s=10.0, stats_period_s=2.0,
        )
        sim.run(until=50.0)
        assert infp.te.selection("cdnX") == "B"
        assert infp.te.switch_count("cdnX") == 0
        infp.stop()

    def test_converges_and_stays_unlike_greedy(self):
        sim, network, group = _fig5_world()
        registry = OptInRegistry()
        glass = _FixedDemandGlass({"cdnX": 30.0})
        infp = EonaInfP(
            sim, network, [group], registry=registry, appp_a2i=glass,
            te_period_s=10.0, stats_period_s=2.0,
        )
        network.start_stream("cdnX", "client", demand_mbps=30.0, owner="cdnX")
        sim.run(until=300.0)
        assert infp.te.switch_count("cdnX") <= 1
        infp.stop()

    def test_multiple_appps_demands_summed(self):
        sim, network, group = _fig5_world()
        registry = OptInRegistry()
        glasses = [
            _FixedDemandGlass({"cdnX": 6.0}),
            _FixedDemandGlass({"cdnX": 6.0}),
        ]
        infp = EonaInfP(
            sim, network, [group], registry=registry, appp_a2i=glasses,
            te_period_s=10.0, stats_period_s=2.0,
        )
        sim.run(until=25.0)
        # 12 Mbit/s * 1.1 margin exceeds B's 10 -> must use C.
        assert infp.te.selection("cdnX") == "C"
        infp.stop()


class TestI2AExport:
    def _infp(self):
        sim, network, group = _fig5_world()
        registry = OptInRegistry()
        infp = EonaInfP(
            sim, network, [group], registry=registry,
            te_period_s=10.0, stats_period_s=2.0, i2a_refresh_s=0.0,
            access_links=["core->client"],
        )
        registry.grant("isp", "appp")
        return sim, network, infp

    def test_peering_points_reflect_topology(self):
        sim, network, infp = self._infp()
        result = infp.i2a.query("appp", "peering_points")
        by_node = {p["peering_node"]: p for p in result.payload}
        assert by_node["B"]["capacity_mbps"] == 10.0
        assert by_node["C"]["capacity_mbps"] == 100.0
        infp.stop()

    def test_peering_decisions_reflect_selection(self):
        sim, network, infp = self._infp()
        result = infp.i2a.query("appp", "peering_decisions")
        assert result.payload[0]["selected_peering"] == "B"
        infp.stop()

    def test_congestion_attribution_by_segment(self):
        sim, network, infp = self._infp()
        # Demand exceeds even the big peering, so wherever TE places the
        # group, the peering segment saturates while access has headroom.
        network.start_stream("cdnX", "client", demand_mbps=150.0, owner="cdnX")
        sim.run(until=60.0)
        signals = {s["scope"]: s for s in infp.i2a.query("appp", "congestion").payload}
        assert signals["peering"]["congested"]
        assert not signals["access"]["congested"]
        infp.stop()

    def test_denied_without_grant(self):
        sim, network, group = _fig5_world()
        registry = OptInRegistry()
        infp = EonaInfP(sim, network, [group], registry=registry)
        with pytest.raises(AccessDeniedError):
            infp.i2a.query("stranger", "congestion")
        infp.stop()

    def test_cdn_i2a_exports_hints(self):
        sim, network, _ = _fig5_world()
        registry = OptInRegistry()
        cdn = Cdn("cdnX", [CdnServer("s1", "cdnX", 10)])
        glass = make_cdn_i2a(sim, cdn, registry, refresh_period_s=0.0)
        registry.grant("cdnX", "appp")
        hints = glass.query("appp", "server_hints").payload
        assert hints[0]["server_id"] == "s1"
        load = glass.query("appp", "mean_load").payload
        assert load["mean_load"] == 0.0


class TestEnergyManager:
    def _cdn(self, n=4):
        return Cdn("cdn", [CdnServer(f"s{i}", f"n{i}", 10) for i in range(n)])

    def test_conservative_never_sheds(self, sim):
        cdn = self._cdn()
        manager = EnergyManager(sim, cdn, period_s=10.0, policy="conservative")
        sim.run(until=100.0)
        manager.stop()
        assert manager.servers_on == 4
        assert manager.server_seconds_on == pytest.approx(400.0)

    def test_schedule_follows_forecast(self, sim):
        cdn = self._cdn()
        manager = EnergyManager(
            sim, cdn, period_s=10.0, policy="schedule",
            schedule=lambda t: 0.5,
        )
        sim.run(until=50.0)
        assert manager.servers_on == 2

    def test_schedule_requires_function(self, sim):
        with pytest.raises(ValueError):
            EnergyManager(sim, self._cdn(), policy="schedule")

    def test_eona_sheds_while_qoe_healthy(self, sim):
        cdn = self._cdn()
        manager = EnergyManager(
            sim, cdn, period_s=10.0, policy="eona",
            qoe_fetch=lambda: 0.0,
            demand_fetch=lambda: 12.0,
            server_capacity_mbps=10.0,
            headroom=1.0,
        )
        sim.run(until=200.0)
        # demand 12 / capacity 10 -> 2 servers needed.
        assert manager.servers_on == 2

    def test_eona_restores_on_qoe_degradation(self, sim):
        cdn = self._cdn()
        qoe = {"value": 0.0}
        manager = EnergyManager(
            sim, cdn, period_s=10.0, policy="eona",
            qoe_fetch=lambda: qoe["value"],
            demand_fetch=lambda: 5.0,
            server_capacity_mbps=10.0,
            qoe_threshold=0.01,
        )
        sim.run(until=200.0)
        shed_to = manager.servers_on
        qoe["value"] = 0.2
        sim.run(until=250.0)
        assert manager.servers_on > shed_to

    def test_min_on_respected(self, sim):
        cdn = self._cdn(n=2)
        manager = EnergyManager(
            sim, cdn, period_s=10.0, policy="eona",
            qoe_fetch=lambda: 0.0,
            demand_fetch=lambda: 0.0,
            server_capacity_mbps=10.0,
            min_on=1,
        )
        sim.run(until=200.0)
        assert manager.servers_on == 1

    def test_power_off_evicts_sessions_from_cdn(self, sim):
        cdn = self._cdn(n=2)
        cdn.attach("a", server_id="s0")
        manager = EnergyManager(
            sim, cdn, period_s=10.0, policy="schedule",
            schedule=lambda t: 0.5, min_on=1,
        )
        sim.run(until=15.0)
        # One server off; if it was s0, the session was evicted.
        assert manager.servers_on == 1
        if not cdn.servers["s0"].powered_on:
            assert cdn.server_of("a") is None

    def test_energy_accounting_integrates(self, sim):
        cdn = self._cdn(n=2)
        manager = EnergyManager(
            sim, cdn, period_s=10.0, policy="schedule", schedule=lambda t: 0.5,
        )
        sim.run(until=100.0)
        manager.stop()
        # 2 servers for the first 10 s, then 1 server for 90 s.
        assert manager.server_seconds_on == pytest.approx(110.0)

    def test_invalid_policy(self, sim):
        with pytest.raises(ValueError):
            EnergyManager(sim, self._cdn(), policy="nonsense")


class TestStatusQuoInfP:
    def test_wires_te_with_greedy_policy(self):
        sim, network, group = _fig5_world()
        infp = StatusQuoInfP(sim, network, [group], te_period_s=10.0,
                             stats_period_s=2.0)
        network.start_stream("cdnX", "client", demand_mbps=30.0, owner="cdnX")
        sim.run(until=300.0)
        # Greedy + preference oscillates.
        assert infp.te.switch_count("cdnX") >= 4
        infp.stop()
