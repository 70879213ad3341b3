"""Typed bundles: declared views of a compiled scenario world.

The seven worlds that used to be hand-coded builders in
``workloads/scenarios.py`` are committed specs under
``scenarios/library/``; each also has a typed dataclass here, which is
what the experiments consume.  A bundle holds no logic: every field
declares in its metadata where its value comes from in the generic
:class:`~repro.scenarios.engine.ScenarioWorld`, and :func:`build_scenario`
fills any bundle by one walk over ``dataclasses.fields``.  The six
handles every bundle carries are declared once, on :class:`_Bundle`.
The same-seed trace-equivalence tests in ``tests/scenarios`` pin each
world byte-identical to the builder it replaced.

:func:`build_scenario` is the single public constructor::

    scenario = build_scenario("flash-crowd", seed=3,
                              params={"n_clients": 50})

Names without a bundle return the raw :class:`ScenarioWorld`, which is
how the fleet workloads (live-event, gaming, iot-beacons,
diurnal-regions) are consumed.
"""

from __future__ import annotations

import dataclasses
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.cdn.content import ContentCatalog
from repro.cdn.provider import Cdn
from repro.core.context import SimContext
from repro.core.registry import OptInRegistry
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import Topology
from repro.scenarios.engine import ScenarioWorld, compile_scenario
from repro.scenarios.loader import load_library_spec
from repro.sdn.te import EgressGroup
from repro.simkernel.kernel import Simulator
from repro.web.browser import Browser
from repro.web.radio import RadioModel

__all__ = [
    "FlashCrowdScenario",
    "OscillationScenario",
    "CoarseControlScenario",
    "EnergyScenario",
    "CdnFaultScenario",
    "TwoIspScenario",
    "CellularWebScenario",
    "build_scenario",
]


def _field(source: Callable[[ScenarioWorld], Any]) -> Any:
    """A bundle field whose value is ``source(world)``."""
    return dataclasses.field(metadata={"source": source})


def _group(name: str) -> Any:
    """The node ids of topology group ``name``."""
    return _field(lambda world: world.group_nodes(name))


def _link(ref: str) -> Any:
    """The link id behind alias ``ref``."""
    return _field(lambda world: world.link_id(ref))


def _cdn(name: str) -> Any:
    """The CDN declared as ``name``."""
    return _field(lambda world: world.cdns[name])


def _param(name: str) -> Any:
    """The value parameter ``name`` was compiled with."""
    return _field(lambda world: world.params[name])


def _attr(path: str) -> Any:
    """The world attribute at dotted ``path``."""
    return _field(operator.attrgetter(path))


@dataclass
class _Bundle:
    """The handles every bundle carries."""

    sim: Simulator = _attr("sim")
    topology: Topology = _attr("topology")
    network: FluidNetwork = _attr("network")
    registry: OptInRegistry = _attr("ctx.registry")
    ctx: SimContext = _attr("ctx")
    world: ScenarioWorld = _field(lambda world: world)


# Figure 3: flash crowd behind a congested access network
@dataclass
class FlashCrowdScenario(_Bundle):
    """World for E2: two healthy CDNs, one narrow access segment."""

    cdns: List[Cdn] = _attr("cdn_list")
    catalog: ContentCatalog = _attr("catalog")
    client_nodes: List[str] = _group("clients")
    access_link: str = _link("access")


# Figure 5: the CDN-switching / peering-selection oscillator
@dataclass
class OscillationScenario(_Bundle):
    """World for E4: CDN X via peerings B or C; CDN Y via C only."""

    cdn_x: Cdn = _cdn("cdnX")
    cdn_y: Cdn = _cdn("cdnY")
    catalog: ContentCatalog = _attr("catalog")
    client_nodes: List[str] = _group("clients")
    groups: List[EgressGroup] = _field(lambda world: list(world.egress))
    peering_b_link: str = _link("peering_b")
    peering_c_link: str = _link("peering_c")

    @property
    def cdns(self) -> List[Cdn]:
        return [self.cdn_x, self.cdn_y]


# §2 "coarse control": one bad server inside a warm CDN
@dataclass
class CoarseControlScenario(_Bundle):
    """World for E1: warm CDN X with one degraded server, cold CDN Y."""

    cdn_x: Cdn = _cdn("cdnX")
    cdn_y: Cdn = _cdn("cdnY")
    catalog: ContentCatalog = _attr("catalog")
    client_nodes: List[str] = _group("clients")

    @property
    def cdns(self) -> List[Cdn]:
        return [self.cdn_x, self.cdn_y]


# §2 "configuration changes": server energy saving
def _server_uplinks(world: ScenarioWorld) -> Dict[str, str]:
    """CDN server id -> the uplink of the edge node that hosts it."""
    edges = zip(world.group_nodes("edges"), world.group_links("edges"))
    return {f"cdn.{node}": link for node, link in edges}


@dataclass
class EnergyScenario(_Bundle):
    """World for E5: one CDN with several clusters, diurnal demand."""

    cdn: Cdn = _cdn("cdn")
    catalog: ContentCatalog = _attr("catalog")
    client_nodes: List[str] = _group("clients")
    server_uplinks: Dict[str, str] = _field(_server_uplinks)


# Control-plane scenario: a CDN degrades mid-run (C3-style steering)
@dataclass
class CdnFaultScenario(_Bundle):
    """World for E13: two CDNs, one suffers a mid-run capacity fault.

    The fault is declared in the spec (``faults:`` section) and armed by
    a :class:`~repro.faults.injector.FaultInjector` at build time; build
    with ``install_faults=False`` for the never-faulted twin.
    """

    cdns: List[Cdn] = _attr("cdn_list")
    catalog: ContentCatalog = _attr("catalog")
    client_nodes: List[str] = _group("clients")
    cdn1_uplink: str = _link("uplink1")
    fault_at_s: float = _param("fault_at_s")
    recover_at_s: float = _param("recover_at_s")


# §3 attributes: one AppP serving clients across two access ISPs
@dataclass
class TwoIspScenario(_Bundle):
    """World for E12: identical CDNs, two ISPs, one congested."""

    cdns: List[Cdn] = _attr("cdn_list")
    catalog: ContentCatalog = _attr("catalog")
    clients_isp1: List[str] = _group("isp1-clients")
    clients_isp2: List[str] = _group("isp2-clients")
    access_link_isp1: str = _link("isp1-access")
    access_link_isp2: str = _link("isp2-access")

    def isp_of_client(self, client_node: str) -> str:
        return "isp1" if client_node in set(self.clients_isp1) else "isp2"


# Figure 4: web browsing over a cellular access network
@dataclass
class CellularWebScenario(_Bundle):
    """World for E3: per-client radio-modulated access links."""

    client_nodes: List[str] = _group("ues")
    access_links: List[str] = _field(lambda world: world.group_links("ues"))
    radios: List[RadioModel] = _field(lambda world: list(world.radios))
    browsers: List[Browser] = _field(lambda world: list(world.browsers))
    server_node: str = _field(lambda world: world.web_server or "web")
    rng: random.Random = _field(lambda world: world.sim.rng.get("pages"))


_BUNDLES: Dict[str, type] = {
    "flash-crowd": FlashCrowdScenario,
    "oscillation": OscillationScenario,
    "coarse-control": CoarseControlScenario,
    "energy": EnergyScenario,
    "cdn-fault": CdnFaultScenario,
    "two-isp": TwoIspScenario,
    "cellular-web": CellularWebScenario,
}


def build_scenario(
    name: str,
    seed: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    install_faults: bool = True,
) -> Any:
    """Build a library scenario: load, compile, fill its bundle.

    Returns the scenario's typed bundle, every field filled from its
    declared ``source``, or the generic :class:`ScenarioWorld` when the
    name has no bundle.
    """
    spec = load_library_spec(name)
    world = compile_scenario(spec, seed=seed, params=params, install_faults=install_faults)
    bundle = _BUNDLES.get(name)
    if bundle is None:
        return world
    return bundle(
        **{slot.name: slot.metadata["source"](world) for slot in dataclasses.fields(bundle)}
    )
