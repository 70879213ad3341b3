"""Graceful degradation: dead or lying glasses must not break EONA loops."""

from repro.cdn.provider import Cdn
from repro.cdn.server import CdnServer
from repro.core.appp import EonaAppP
from repro.core.context import build_context
from repro.core.infp import EonaInfP
from repro.core.interfaces import LookingGlass
from repro.core.registry import OptInRegistry
from repro.faults import FaultInjector, PlanBuilder
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.sdn.te import EgressGroup
from repro.simkernel.kernel import Simulator


def _appp_world():
    """One CDN plus an ISP I2A glass the AppP polls every 5s."""
    sim = Simulator(seed=9)
    topo = Topology()
    topo.add_node("x1", NodeKind.SERVER)
    topo.add_node("core", NodeKind.ROUTER)
    topo.add_node("client", NodeKind.CLIENT)
    topo.add_link("x1", "core", 100.0)
    topo.add_link("core", "client", 50.0)
    FluidNetwork(sim, topo)
    cdn = Cdn("cdnX", [CdnServer("x1", "x1", 100)])
    registry = OptInRegistry()
    registry.grant("isp", "appp")
    glass = LookingGlass(sim, "isp", registry)
    glass.register("congestion", lambda: [])
    return sim, cdn, glass


def _policy(sim, cdn, glass, **kwargs):
    kwargs.setdefault("glass_error_threshold", 2)
    kwargs.setdefault("reengage_ticks", 2)
    return EonaAppP(sim, [cdn], isp_i2a=glass, **kwargs)


class TestAppPFallback:
    def test_outage_trips_fallback_and_recovery_reengages(self):
        sim, cdn, glass = _appp_world()
        policy = _policy(sim, cdn, glass)
        sim.schedule_at(10.0, glass.set_available, False)
        sim.schedule_at(40.0, glass.set_available, True)
        sim.run(until=30.0)
        # Governor ticks at 15, 20, ... -> threshold (2) reached by 20s.
        assert policy.fallback_active
        assert policy.fallback_activations == 1
        assert policy.glass_errors >= 2
        sim.run(until=60.0)
        assert not policy.fallback_active
        assert policy.fallback_reengagements == 1

    def test_loop_survives_and_does_not_oscillate_on_flapping_glass(self):
        sim, cdn, glass = _appp_world()
        policy = _policy(sim, cdn, glass, reengage_ticks=3)
        # Down 10s of every 20s: single good probes between outages must
        # not re-engage (3 consecutive successes needed).
        for start in range(10, 200, 20):
            sim.schedule_at(float(start), glass.set_available, False)
            sim.schedule_at(float(start) + 10.0, glass.set_available, True)
        sim.run(until=205.0)
        assert policy.fallback_activations == 1
        assert policy.fallback_reengagements == 0
        sim.run(until=260.0)  # glass stays up: now it may re-engage
        assert policy.fallback_reengagements == 1

    def test_disabled_fallback_counts_errors_but_never_trips(self):
        sim, cdn, glass = _appp_world()
        policy = _policy(sim, cdn, glass, fallback_enabled=False)
        glass.set_available(False)
        sim.run(until=100.0)
        assert policy.glass_errors > 2
        assert not policy.fallback_active
        assert policy.fallback_activations == 0

    def test_access_denied_is_not_a_fault(self):
        sim, cdn, glass = _appp_world()
        policy = _policy(sim, cdn, glass)
        glass.registry = OptInRegistry()  # all grants revoked
        sim.run(until=100.0)
        assert policy.glass_errors == 0
        assert not policy.fallback_active

    def test_over_stale_answers_count_as_failures(self):
        sim, cdn, glass = _appp_world()
        glass.register("congestion", lambda: [], refresh_period_s=5.0)
        policy = _policy(sim, cdn, glass, stale_tolerance_s=15.0)
        sim.schedule_at(10.0, glass.set_fault_mode, "freeze")
        sim.run(until=60.0)
        # Frozen at ~10s; by 25s+ the snapshot age exceeds 15s.
        assert policy.glass_errors >= 2
        assert policy.fallback_active
        sim.schedule_at(61.0, glass.set_fault_mode, None)
        sim.run(until=90.0)
        assert not policy.fallback_active
        assert policy.fallback_reengagements == 1

    def test_fallback_lifts_caps(self):
        sim, cdn, glass = _appp_world()
        policy = _policy(sim, cdn, glass)
        policy.global_cap_mbps = 0.3
        glass.set_available(False)
        sim.run(until=30.0)
        assert policy.fallback_active
        assert policy.global_cap_mbps == float("inf")


class TestInfPFallback:
    def _world(self):
        topo = Topology("infp")
        topo.add_node("cdn1", NodeKind.SERVER, owner="cdn1")
        topo.add_node("core", NodeKind.ROUTER, owner="isp")
        topo.add_node("client", NodeKind.CLIENT, owner="isp")
        topo.add_link("cdn1", "core", 100.0, tags=("peering",))
        topo.add_link("core", "client", 50.0, tags=("access",))
        return build_context(topology=topo, seed=4)

    def _a2i(self, ctx, fail=True):
        glass = LookingGlass(ctx.sim, "appp", ctx.registry)

        def demand():
            if fail:
                raise RuntimeError("a2i backend crashed")
            return {"demand_mbps": {"cdn1": 10.0}}

        glass.register("demand_estimate", demand)
        ctx.registry.grant("appp", "isp")
        return glass

    def test_a2i_failures_trip_fallback_without_crashing_te(self):
        ctx = self._world()
        glass = self._a2i(ctx, fail=True)
        group = EgressGroup(
            name="cdn1", remote="cdn1", candidates=["cdn1"],
            egress_links={"cdn1": "cdn1->core"},
        )
        infp = EonaInfP(
            ctx,
            groups=[group],
            appp_a2i=glass,
            access_links=["core->client"],
            te_period_s=30.0,
            glass_error_threshold=2,
        )
        ctx.sim.run(until=200.0)  # several TE rounds, every query raising
        assert infp.glass_errors >= 2
        assert infp.fallback_active
        assert infp.fallback_activations == 1
        infp.stop()

    def _infp(self, ctx, glass, **kwargs):
        group = EgressGroup(
            name="cdn1", remote="cdn1", candidates=["cdn1"],
            egress_links={"cdn1": "cdn1->core"},
        )
        kwargs.setdefault("glass_error_threshold", 2)
        return EonaInfP(
            ctx,
            groups=[group],
            appp_a2i=glass,
            access_links=["core->client"],
            te_period_s=30.0,
            **kwargs,
        )

    def test_outage_trips_fallback_and_recovery_reengages(self):
        ctx = self._world()
        glass = self._a2i(ctx, fail=False)
        infp = self._infp(ctx, glass, reengage_ticks=2)
        # TE rounds at 30, 60, ...: dark for the rounds at 60 and 90.
        ctx.sim.schedule_at(45.0, glass.set_available, False)
        ctx.sim.schedule_at(100.0, glass.set_available, True)
        ctx.sim.run(until=95.0)
        assert infp.fallback_active
        assert infp.fallback_activations == 1
        ctx.sim.run(until=200.0)  # probes at 120 and 150 re-engage
        assert not infp.fallback_active
        assert infp.fallback_reengagements == 1
        assert infp.fallback_activations == 1
        infp.stop()

    def test_disabled_fallback_counts_errors_but_never_trips(self):
        ctx = self._world()
        glass = self._a2i(ctx, fail=True)
        infp = self._infp(ctx, glass, fallback_enabled=False)
        ctx.sim.run(until=200.0)
        assert infp.glass_errors > 2
        assert not infp.fallback_active
        assert infp.fallback_activations == 0
        infp.stop()

    def test_access_denied_is_not_a_fault(self):
        ctx = self._world()
        glass = self._a2i(ctx, fail=True)
        glass.registry = OptInRegistry()  # the grant to the ISP is gone
        infp = self._infp(ctx, glass)
        ctx.sim.run(until=200.0)
        assert infp.glass_errors == 0
        assert not infp.fallback_active
        infp.stop()

    def test_over_stale_answers_count_as_failures(self):
        ctx = self._world()
        glass = self._a2i(ctx, fail=False)
        glass.register(
            "demand_estimate",
            lambda: {"demand_mbps": {"cdn1": 10.0}},
            refresh_period_s=1000.0,
        )
        infp = self._infp(ctx, glass, stale_tolerance_s=15.0)
        ctx.sim.run(until=200.0)
        # The snapshot taken at the first round (30s) is over 15s old
        # at every later one.
        assert infp.glass_errors >= 2
        assert infp.fallback_active
        assert infp.fallback_activations == 1
        infp.stop()

    def test_provider_restart_wipes_soft_state(self):
        ctx = self._world()
        infp = EonaInfP(ctx, access_links=["core->client"], stats_period_s=2.0)
        injector = FaultInjector(ctx)
        injector.register_provider("isp", infp.reset_soft_state)
        injector.install(
            PlanBuilder("p").restart_provider("isp", at=19.0).build()
        )
        probes = []
        ctx.sim.schedule_at(
            18.5, lambda: probes.append(len(infp.stats.samples_for("core->client")))
        )
        ctx.sim.schedule_at(
            19.5, lambda: probes.append(len(infp.stats.samples_for("core->client")))
        )
        ctx.sim.run(until=30.0)
        assert probes[0] > 0       # history accumulated before the restart
        assert probes[1] == 0      # wiped at 19s; rebuilds from the 20s poll
        assert injector.counters()["faults.provider_restart"] == 1
        infp.stop()
