"""Attribute-scoped fleet governance (MultiIspEonaAppP, E12's machinery)."""

import math

import pytest

from repro.core.appp import EonaAppP, MultiIspEonaAppP
from repro.core.interfaces import LookingGlass
from repro.core.registry import OptInRegistry
from repro.core.schemas import CongestionSignal
from repro.cdn.content import ContentCatalog
from repro.cdn.provider import Cdn
from repro.cdn.server import CdnServer
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator
from repro.simkernel.processes import PeriodicProcess
from repro.video.abr import RateBasedAbr
from repro.video.ladder import DEFAULT_LADDER
from repro.video.player import AdaptivePlayer


def _flag_glass(sim, registry, owner, flag):
    glass = LookingGlass(sim, owner, registry)
    glass.register(
        "congestion",
        lambda: [
            CongestionSignal(
                time=sim.now, scope="access",
                congested=flag["value"], severity=0.99 if flag["value"] else 0.1,
            )
        ],
    )
    registry.grant(owner, "appp")
    return glass


@pytest.fixture
def world():
    sim = Simulator(seed=4)
    topo = Topology()
    topo.add_node("srv", NodeKind.SERVER)
    topo.add_node("c1", NodeKind.CLIENT)
    topo.add_node("c2", NodeKind.CLIENT)
    topo.add_link("srv", "c1", 100.0)
    topo.add_link("srv", "c2", 100.0)
    net = FluidNetwork(sim, topo)
    cdn = Cdn("cdn", [CdnServer("s", "srv", 100)])
    catalog = ContentCatalog(n_items=2, duration_s=60.0)
    registry = OptInRegistry()
    flags = {"isp1": {"value": False}, "isp2": {"value": False}}
    glasses = {
        isp: _flag_glass(sim, registry, isp, flag) for isp, flag in flags.items()
    }
    return sim, net, cdn, catalog, glasses, flags


def _policy(sim, cdn, glasses, scoped):
    return MultiIspEonaAppP(
        sim,
        [cdn],
        isp_i2a_map=glasses,
        isp_of=lambda player: "isp1" if player.client_node == "c1" else "isp2",
        scoped=scoped,
        name="appp",
        global_cap_period_s=5.0,
    )


def _player(sim, net, policy, catalog, session_id, client):
    player = AdaptivePlayer(
        sim, net, session_id, client, catalog.by_rank(0),
        DEFAULT_LADDER, RateBasedAbr(), policy,
    )
    player.start()
    return player


class TestScoping:
    def test_scoped_caps_only_congested_isp(self, world):
        sim, net, cdn, catalog, glasses, flags = world
        policy = _policy(sim, cdn, glasses, scoped=True)
        p1 = _player(sim, net, policy, catalog, "a", "c1")
        p2 = _player(sim, net, policy, catalog, "b", "c2")
        flags["isp1"]["value"] = True
        sim.run(until=30.0)
        assert math.isfinite(policy.scope_cap("isp1"))
        assert math.isinf(policy.scope_cap("isp2"))
        assert policy.rate_cap_mbps(p1) < policy.rate_cap_mbps(p2)
        policy.stop()

    def test_unscoped_caps_everyone(self, world):
        sim, net, cdn, catalog, glasses, flags = world
        policy = _policy(sim, cdn, glasses, scoped=False)
        _player(sim, net, policy, catalog, "a", "c1")
        _player(sim, net, policy, catalog, "b", "c2")
        flags["isp1"]["value"] = True
        sim.run(until=30.0)
        assert math.isfinite(policy.scope_cap("isp1"))
        assert math.isfinite(policy.scope_cap("isp2"))
        policy.stop()

    def test_cap_recovers_after_clear(self, world):
        sim, net, cdn, catalog, glasses, flags = world
        policy = _policy(sim, cdn, glasses, scoped=True)
        _player(sim, net, policy, catalog, "a", "c1")
        flags["isp1"]["value"] = True
        sim.run(until=20.0)
        flags["isp1"]["value"] = False
        sim.run(until=200.0)
        assert math.isinf(policy.scope_cap("isp1"))
        policy.stop()

    def test_no_congestion_no_caps(self, world):
        sim, net, cdn, catalog, glasses, flags = world
        policy = _policy(sim, cdn, glasses, scoped=True)
        _player(sim, net, policy, catalog, "a", "c1")
        sim.run(until=60.0)
        assert math.isinf(policy.scope_cap("isp1"))
        assert math.isinf(policy.scope_cap("isp2"))
        assert policy.bitrate_downshifts == 0
        policy.stop()

    def test_needs_at_least_one_glass(self, world):
        sim, net, cdn, catalog, glasses, flags = world
        with pytest.raises(ValueError):
            MultiIspEonaAppP(
                sim, [cdn], isp_i2a_map={}, isp_of=lambda p: "x", name="appp"
            )


def _one_isp_run(make_policy, read_cap):
    """4 players on a 20 Mbps access link; congested 10-60 s and 100-140 s."""
    sim = Simulator(seed=4)
    topo = Topology()
    topo.add_node("srv", NodeKind.SERVER)
    topo.add_node("c1", NodeKind.CLIENT)
    topo.add_link("srv", "c1", 20.0)
    net = FluidNetwork(sim, topo)
    cdn = Cdn("cdn", [CdnServer("s", "srv", 100)])
    catalog = ContentCatalog(n_items=2, duration_s=300.0)
    flag = {"value": False}
    glass = _flag_glass(sim, OptInRegistry(), "isp1", flag)
    for at, value in ((10.0, True), (60.0, False), (100.0, True), (140.0, False)):
        sim.schedule_at(at, flag.__setitem__, "value", value)
    policy = make_policy(sim, cdn, glass)
    players = [
        _player(sim, net, policy, catalog, f"s{i}", "c1") for i in range(4)
    ]
    caps = []
    PeriodicProcess(sim, 1.0, lambda: caps.append(read_cap(policy)))
    sim.run(until=200.0)
    policy.stop()
    return caps, policy, [player.qoe() for player in players]


class TestOneGovernor:
    def test_one_isp_scope_governor_is_the_fleet_governor(self):
        fleet_caps, fleet, fleet_qoe = _one_isp_run(
            lambda sim, cdn, glass: EonaAppP(
                sim, [cdn], isp_i2a=glass, name="appp", global_cap_period_s=5.0
            ),
            lambda policy: policy.global_cap_mbps,
        )
        scope_caps, scoped, scoped_qoe = _one_isp_run(
            lambda sim, cdn, glass: MultiIspEonaAppP(
                sim,
                [cdn],
                isp_i2a_map={"isp1": glass},
                isp_of=lambda player: "isp1",
                name="appp",
                global_cap_period_s=5.0,
            ),
            lambda policy: policy.scope_cap("isp1"),
        )
        assert any(math.isfinite(cap) for cap in fleet_caps)
        assert scope_caps == fleet_caps
        assert scoped.bitrate_downshifts == fleet.bitrate_downshifts > 0
        assert scoped.i2a_queries == fleet.i2a_queries
        assert scoped_qoe == fleet_qoe
