"""The scenario engine: compile a validated spec into a live world.

``compile_scenario`` replays the spec's ordered build list into a
:class:`~repro.network.topology.Topology`, assembles the context via
:func:`~repro.core.context.build_context`, then layers on content, CDNs
(registered into the context in declaration order -- the AppP's default
preference order), egress groups, web clients/radios, phase-timeline
trace events, fault plans (installed through a
:class:`~repro.faults.injector.FaultInjector`), and session populations.

Construction order is the determinism contract: the engine performs the
same side-effecting calls, in the same order, as a hand-coded builder
would -- which is what the byte-identical trace-equivalence gate in
``tests/scenarios`` verifies against the legacy builders this subsystem
replaced.  Nothing here draws randomness at compile time; populations
compile to *descriptions* (rate functions + launch kwargs) and only
consume their RNG streams once an experiment launches them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.cdn.content import ContentCatalog
from repro.cdn.origin import Origin
from repro.cdn.provider import Cdn
from repro.cdn.server import CdnServer
from repro.core.context import SimContext, build_context
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.obs.trace import TRACER
from repro.scenarios.schema import (
    CdnSpec,
    NodeDirective,
    ScenarioError,
    ScenarioSpec,
    TopologyPlan,
)
from repro.sdn.te import EgressGroup
from repro.simkernel.kernel import Simulator
from repro.web.browser import Browser
from repro.web.radio import RadioModel
from repro.workloads.arrivals import RateFn, diurnal_rate, flash_crowd_rate

__all__ = ["Population", "ScenarioWorld", "compile_scenario", "trace_phases"]


def trace_phases(
    sim: Simulator, scenario: str, transitions: Dict[str, float]
) -> None:
    """Schedule ``phase-transition`` trace events for a scenario's arc.

    Called by experiments whose phase structure lives in arrival-rate
    shapes rather than scheduled topology changes (e.g. the flash
    crowd's onset/peak/decay).  Only schedules anything when tracing is
    already enabled, so untraced runs keep an event history identical
    to a build that never called this -- the determinism contract.
    """
    if not TRACER.enabled:
        return

    def emit_phase(phase: str) -> None:
        if TRACER.enabled:
            TRACER.emit("phase-transition", scenario=scenario, phase=phase)

    for phase in sorted(transitions, key=lambda name: (transitions[name], name)):
        sim.schedule_at(transitions[phase], emit_phase, phase)


@dataclass
class Population:
    """A compiled session population: pure description, no RNG drawn.

    ``launch_kwargs()`` hands :func:`~repro.experiments.common.
    launch_video_sessions` its arrival-process arguments; cohort-mode
    populations instead expose :meth:`device_rates` for the vectorized
    path (BatchedPoissonArrivals / CohortEngine).
    """

    name: str
    group: str
    process: str
    mode: str
    nodes: List[str]
    rate: Dict[str, float]
    until_s: Optional[float] = None
    max_sessions: Optional[int] = None

    def rate_fn(self) -> Optional[RateFn]:
        """The non-homogeneous rate profile; ``None`` for plain Poisson."""
        if self.process == "flash-crowd":
            return flash_crowd_rate(
                base_per_s=self.rate["base_per_s"],
                peak_per_s=self.rate["peak_per_s"],
                onset_s=self.rate["onset_s"],
                ramp_s=self.rate["ramp_s"],
                duration_s=self.rate["duration_s"],
            )
        if self.process == "diurnal":
            return diurnal_rate(
                mean_per_s=self.rate["mean_per_s"],
                amplitude=self.rate.get("amplitude", 0.8),
                period_s=self.rate.get("period_s", 86_400.0),
                peak_at_s=self.rate.get("peak_at_s", 72_000.0),
            )
        return None

    def peak_rate_per_s(self) -> float:
        """An upper envelope of the rate profile (thinning bound)."""
        if self.process == "flash-crowd":
            return self.rate["peak_per_s"]
        if self.process == "diurnal":
            return self.rate["mean_per_s"] * (1 + self.rate.get("amplitude", 0.8))
        return self.rate["rate_per_s"]

    def launch_kwargs(self, **overrides: Any) -> Dict[str, Any]:
        """Arrival-process kwargs for ``launch_video_sessions``."""
        if self.mode == "cohort":
            raise ScenarioError(
                f"population {self.name!r} is cohort-mode; use device_rates()"
            )
        kwargs: Dict[str, Any] = {"client_nodes": list(self.nodes)}
        profile = self.rate_fn()
        if profile is None:
            kwargs["rate_per_s"] = self.rate["rate_per_s"]
        else:
            kwargs["rate_fn"] = profile
            kwargs["max_rate_per_s"] = self.peak_rate_per_s()
        if self.until_s is not None:
            kwargs["until"] = self.until_s
        if self.max_sessions is not None:
            kwargs["max_sessions"] = self.max_sessions
        kwargs.update(overrides)
        return kwargs

    def device_rates(self) -> List[float]:
        """Per-member arrival rates (cohort mode's batched-Poisson input)."""
        if self.mode != "cohort":
            raise ScenarioError(
                f"population {self.name!r} is not cohort-mode; use launch_kwargs()"
            )
        return [self.rate["rate_per_device_s"]] * len(self.nodes)


@dataclass
class ScenarioWorld:
    """Everything a compiled scenario produced, keyed for lookup.

    The generic face of the subsystem: experiments either consume this
    directly (the fleet workloads do) or through a typed bundle whose
    fields each declare their source in this world
    (:mod:`repro.scenarios.bundles`, the migrated legacy scenarios).
    ``spec`` is the resolved spec (every ``$param`` substituted) and
    ``plan`` its expanded topology, which answers group and link
    lookups.
    """

    spec: ScenarioSpec
    plan: TopologyPlan
    ctx: SimContext
    catalog: Optional[ContentCatalog] = None
    cdns: Dict[str, Cdn] = field(default_factory=dict)
    egress: List[EgressGroup] = field(default_factory=list)
    radios: List[RadioModel] = field(default_factory=list)
    browsers: List[Browser] = field(default_factory=list)
    web_server: Optional[str] = None
    populations: Dict[str, Population] = field(default_factory=dict)
    fault_plans: List[FaultPlan] = field(default_factory=list)
    injector: Optional[FaultInjector] = None

    @property
    def params(self) -> Dict[str, Any]:
        """The parameter values this world was compiled with."""
        return self.spec.params

    @property
    def sim(self) -> Simulator:
        return self.ctx.sim

    @property
    def topology(self) -> Topology:
        return self.ctx.topology

    @property
    def network(self) -> FluidNetwork:
        return self.ctx.network

    @property
    def cdn_list(self) -> List[Cdn]:
        return list(self.cdns.values())

    def link_id(self, ref: str) -> str:
        """Resolve a link alias (or pass through a canonical id)."""
        return self.plan.resolve_link(ref, f"scenario {self.spec.name!r}")

    def group_nodes(self, name: str) -> List[str]:
        return list(self.plan.group(name, f"scenario {self.spec.name!r}").nodes)

    def group_links(self, name: str) -> List[str]:
        return list(self.plan.group(name, f"scenario {self.spec.name!r}").links)

    def population(self, name: str) -> Population:
        if name not in self.populations:
            raise ScenarioError(
                f"unknown population {name!r}"
                f" (known: {', '.join(sorted(self.populations)) or 'none'})"
            )
        return self.populations[name]


def _servers(cdn_spec: CdnSpec, plan: TopologyPlan) -> List[CdnServer]:
    """A resolved CDN's servers, group-declared ones expanded per member."""
    servers: List[CdnServer] = []
    for server in cdn_spec.servers:
        if server.group:
            placements = [
                (server.id_format.format(node=node, index=index), node)
                for index, node in enumerate(plan.groups[server.group].nodes)
            ]
        else:
            placements = [(server.server_id, server.node)]
        for server_id, node in placements:
            servers.append(
                CdnServer(
                    server_id,
                    node,
                    capacity_sessions=server.capacity_sessions,
                    cache_mbit=server.cache_mbit,
                    degraded_rate_mbps=server.degraded_rate_mbps,
                )
            )
    return servers


def compile_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    install_faults: bool = True,
) -> ScenarioWorld:
    """Compile a spec into a running world.

    Args:
        spec: A validated scenario spec.
        seed: Root seed for the context's RNG streams.
        params: Overrides for the spec's declared ``params``.
        install_faults: Arm the spec's fault plans through a
            :class:`FaultInjector` (disable to build the never-faulted
            twin of the same world).

    The spec's phase timeline is always scheduled as
    ``phase-transition`` trace events through :func:`trace_phases`,
    which schedules nothing unless tracing is enabled.
    """
    spec, plan = spec.resolve(params)

    topo = Topology(plan.name)
    for step in plan.steps:
        if isinstance(step, NodeDirective):
            topo.add_node(step.node_id, NodeKind(step.kind), owner=step.owner, tags=step.tags)
        else:
            topo.add_link(
                step.src,
                step.dst,
                step.capacity_mbps,
                delay_ms=step.delay_ms,
                owner=step.owner,
                tags=step.tags,
            )

    ctx = build_context(topology=topo, seed=seed)
    world = ScenarioWorld(spec=spec, plan=plan, ctx=ctx)

    if spec.catalog is not None:
        world.catalog = ContentCatalog(
            n_items=spec.catalog.items,
            duration_s=spec.catalog.duration_s,
            zipf_alpha=spec.catalog.zipf_alpha,
        )

    for cdn_spec in spec.cdns:
        cdn = Cdn(
            cdn_spec.name,
            _servers(cdn_spec, plan),
            origin=Origin(cdn_spec.origin) if cdn_spec.origin else None,
            ctx=ctx,
        )
        if cdn_spec.warm_top_fraction is not None:
            cdn.warm_caches(world.catalog, top_fraction=cdn_spec.warm_top_fraction)
        world.cdns[cdn_spec.name] = cdn

    for index, egress_spec in enumerate(spec.egress):
        world.egress.append(
            EgressGroup(
                name=egress_spec.name,
                remote=egress_spec.remote,
                candidates=list(egress_spec.candidates),
                egress_links={
                    peer: plan.resolve_link(ref, f"scenario.egress[{index}].links[{peer}]")
                    for peer, ref in egress_spec.links.items()
                },
                preferred=egress_spec.preferred or None,
            )
        )

    if spec.web is not None:
        world.web_server = spec.web.server_node
        clients = world.group_nodes(spec.web.clients)
        links = world.group_links(spec.web.clients)
        if spec.web.radio_tick_s is not None:
            for index, (node, link_id) in enumerate(zip(clients, links)):
                rng = ctx.sim.rng.get(f"{spec.web.radio_stream}:{index}")
                radio = RadioModel(
                    ctx.sim, ctx.network, link_id, rng, tick_s=spec.web.radio_tick_s
                )
                world.radios.append(radio)
                world.browsers.append(
                    Browser(
                        ctx.sim,
                        ctx.network,
                        client_node=node,
                        server_node=spec.web.server_node,
                        radio=radio,
                    )
                )
        else:
            for node in clients:
                world.browsers.append(
                    Browser(
                        ctx.sim,
                        ctx.network,
                        client_node=node,
                        server_node=spec.web.server_node,
                    )
                )

    if spec.phases:
        trace_phases(ctx.sim, spec.name, {phase.name: phase.at_s for phase in spec.phases})

    world.fault_plans = spec.fault_plans(plan)
    if install_faults and world.fault_plans:
        world.injector = FaultInjector(ctx)
        for fault_plan in world.fault_plans:
            world.injector.install(fault_plan)

    for population_spec in spec.populations:
        world.populations[population_spec.name] = Population(
            name=population_spec.name,
            group=population_spec.group,
            process=population_spec.process,
            mode=population_spec.mode,
            nodes=world.group_nodes(population_spec.group),
            rate=dict(population_spec.rate),
            until_s=population_spec.until_s,
            max_sessions=population_spec.max_sessions,
        )

    return world
