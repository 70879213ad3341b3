"""Compiled-world fence: every library spec compiles to a pinned world.

The equivalence tests pin the seven migrated worlds against their
legacy builders through traces; this fence covers all library specs,
the fleet workloads included, at the level of what
:func:`~repro.scenarios.compile_scenario` hands back.  Each world is
reduced to a canonical text form -- topology construction calls in
order, groups, aliases, catalog, CDN servers, egress groups, resolved
populations, phase times and compiled fault plans -- whose sha256 is
pinned at default params and at one override set per spec.  Values are
rendered with ``repr`` so an int that turns into a float is a change.

On a mismatch the test prints the canonical form, so a deliberate
change can be reviewed before its digest is updated.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Mapping, Optional

import pytest

from repro.network.topology import Topology
from repro.scenarios import compile_scenario, library_names, load_library_spec
from repro.scenarios import engine as scenario_engine
from repro.scenarios.schema import GroupDirective

#: One override set per library spec; each touches a group count and a
#: bound-checked number, and some pass ints where the spec has floats.
OVERRIDES: Dict[str, Dict[str, Any]] = {
    "cdn-fault": {"n_clients": 5, "fault_at_s": 50.0, "degraded_mbps": 3},
    "cellular-web": {"n_clients": 3, "radio_tick_s": 0.5},
    "coarse-control": {"degraded_rate_mbps": 0.1, "catalog_items": 7},
    "diurnal-regions": {"n_clients_per_region": 4, "day_s": 300.0, "east_peak_at_s": 20.0},
    "energy": {"n_servers": 3, "server_capacity_sessions": 9},
    "flash-crowd": {"n_clients": 7, "access_capacity_mbps": 30},
    "gaming": {"n_players": 4, "access_capacity_mbps": 90.0},
    "iot-beacons": {"n_devices": 8, "rate_per_device_s": 0.2},
    "live-event": {"n_clients": 6, "onset_s": 30.0, "fault_at_s": 100.0},
    "oscillation": {"n_clients": 5, "peering_b_mbps": 40.0},
    "two-isp": {"n_clients_per_isp": 3, "isp2_access_mbps": 250},
}

#: sha256 of :func:`canonical_world` per (spec, params).
DIGESTS: Dict[str, str] = {
    "cdn-fault-defaults": "ca1559cabde1e561f5535b855d62c809bca238ccf509fea875f2f4363d32af46",
    "cdn-fault-overrides": "d37c65021239c6c9f4d9b617d9c388a32d8a8a4074b87a6cf0b4604dfef86b17",
    "cellular-web-defaults": "41c2cea60d11e7ee42ac224a6e8c1f0443c99276710295616873f6dbb906a0ba",
    "cellular-web-overrides": "0bae09e4b3578505c60924987639a39df07a26e805bfccb83974cc2bec104780",
    "coarse-control-defaults": "848c9cf310af9d003189ab2f56cc3df4e6119ed7f9ddeb5c567dbba93d7c0b98",
    "coarse-control-overrides": "92be42bf2306bc94fe9ff121cd1cb316424260f104454b5037ad6f638507ab11",
    "diurnal-regions-defaults": "72c86257e1ccd2da1097206db23c579e6d2916bed13088c7a66ff61550b26081",
    "diurnal-regions-overrides": "2532f6482d1097ad09186b329d44d30f714b530d5590b24c0992a74a3d75ebf7",
    "energy-defaults": "bb02ef7b3cf495a0119bff11b3273b4c3fedef2f7141cede8725e2ecd7b7407b",
    "energy-overrides": "c36d58dc58e66bb88699b333c4b4f60451be47230cdc6921033465b143802160",
    "flash-crowd-defaults": "6bf73db7bae628395801433d13dbf3a9dd46ed752eed771933efd22aea94a929",
    "flash-crowd-overrides": "7f9b2cab83b6d4c38877b680df20fbe75622d840cb56ee090a9c475e244bcad0",
    "gaming-defaults": "0f33c068d9bf8b95515902a23d98f117edaa5d2c6c056a82b061d5f7ac72691c",
    "gaming-overrides": "055cd258f027231962d92abb2ebbbfb161c3158d88ef3b5a14810bd814ed2590",
    "iot-beacons-defaults": "2d3380ecd55eba5f96071bb1e42b5acfa2156452a9a43b6d296dd7b24130dd7e",
    "iot-beacons-overrides": "88ec2a7e19cb71191d2a744e50c163562349c1f96a0f482a84d212f9562af758",
    "live-event-defaults": "1b2096f8b8a5181e1fa580707c5075e6743a68de8fd48e51ff9cd5aff3e1dd62",
    "live-event-overrides": "dee72f5083bf8412ad0b628caa43a6e289992b15edf0f80b3c5971997b438605",
    "oscillation-defaults": "b16c91c9487e1c5947d7ea46c4c09f91ecc7ca629c3f4af96813b345c8230abf",
    "oscillation-overrides": "c5c59504d6198b715cd6b9c2efc9e8c767e73918cc8a5e9b74a8b57a264a0ab6",
    "two-isp-defaults": "079e4427ad5fc4cd6bc015d1450371f8307093ff7e88666f90a5687f7fabd234",
    "two-isp-overrides": "978e9ce10a3ba893a4e9b3b4c764459ea8af7fe401905f60896e0863b5967a26",
}


def canonical_world(
    name: str, params: Optional[Mapping[str, Any]], monkeypatch: pytest.MonkeyPatch
) -> str:
    """Compile ``name`` and render everything it built as stable text."""
    calls: List[Any] = []
    phases: List[Any] = []
    add_node, add_link = Topology.add_node, Topology.add_link

    def record_node(self, *args, **kwargs):
        calls.append(("node", args, sorted(kwargs.items())))
        return add_node(self, *args, **kwargs)

    def record_link(self, *args, **kwargs):
        calls.append(("link", args, sorted(kwargs.items())))
        return add_link(self, *args, **kwargs)

    monkeypatch.setattr(Topology, "add_node", record_node)
    monkeypatch.setattr(Topology, "add_link", record_link)
    monkeypatch.setattr(
        scenario_engine,
        "trace_phases",
        lambda sim, scenario, transitions: phases.append(
            (scenario, sorted(transitions.items()))
        ),
    )
    spec = load_library_spec(name)
    world = compile_scenario(spec, seed=0, params=params)
    monkeypatch.undo()

    lines: List[str] = [f"params {sorted(world.params.items())!r}"]
    lines += [f"topology {call!r}" for call in calls]
    for directive in spec.topology.build:
        if isinstance(directive, GroupDirective):
            lines.append(
                f"group {directive.name!r} {world.group_nodes(directive.name)!r}"
                f" {world.group_links(directive.name)!r}"
            )
        elif getattr(directive, "alias", ""):
            lines.append(f"alias {directive.alias!r} {world.link_id(directive.alias)!r}")
    if world.catalog is not None:
        items = list(world.catalog)
        lines.append(
            f"catalog {len(items)!r} {world.catalog.zipf_alpha!r}"
            f" {items[0]!r} {items[-1]!r}"
        )
    for cdn_name, cdn in world.cdns.items():
        origin = cdn.origin.node_id if cdn.origin is not None else None
        lines.append(f"cdn {cdn_name!r} origin={origin!r}")
        for server in cdn.servers.values():
            warm = [
                item.content_id
                for item in (world.catalog or [])
                if item.content_id in server.cache
            ]
            lines.append(
                f"  server {server.server_id!r} {server.node_id!r}"
                f" {server.capacity_sessions!r} {server.cache.capacity_mbit!r}"
                f" {server.degraded_rate_mbps!r} warm={warm!r}"
            )
    for group in world.egress:
        lines.append(
            f"egress {group.name!r} {group.remote!r} {group.candidates!r}"
            f" {sorted(group.egress_links.items())!r} {group.preferred!r}"
        )
    lines.append(f"web {world.web_server!r} radios={len(world.radios)!r}")
    for browser in world.browsers:
        lines.append(f"  browser {browser.client_node!r} {browser.server_node!r}")
    for population in world.populations.values():
        lines.append(
            f"population {population.name!r} {population.group!r}"
            f" {population.process!r} {population.mode!r} {population.nodes!r}"
            f" {sorted(population.rate.items())!r} {population.until_s!r}"
            f" {population.max_sessions!r}"
        )
    lines += [f"phases {entry!r}" for entry in phases]
    for plan in world.fault_plans:
        lines.append(f"fault {plan.name!r} {plan.description!r}")
        for event in plan.events:
            lines.append(
                f"  {event.time_s!r} {event.kind!r} {event.target!r}"
                f" {sorted(event.params.items())!r}"
            )
    lines.append(f"injector {world.injector is not None!r}")
    return "\n".join(lines) + "\n"


CASES = [
    pytest.param(name, params, id=f"{name}-{tag}")
    for name in library_names()
    for tag, params in (("defaults", None), ("overrides", OVERRIDES.get(name)))
]


def test_every_library_spec_has_an_override_set():
    assert sorted(OVERRIDES) == library_names()


@pytest.mark.parametrize("name, params", CASES)
def test_compiled_world_matches_pinned_digest(name, params, monkeypatch):
    text = canonical_world(name, params, monkeypatch)
    key = f"{name}-{'overrides' if params else 'defaults'}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != DIGESTS.get(key):
        print(f"canonical form of {key}:\n{text}")
    assert digest == DIGESTS.get(key), f"{key}: compiled world changed"
