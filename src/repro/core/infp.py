"""Infrastructure-provider control logic: status quo vs. EONA-enhanced.

* :class:`StatusQuoInfP` wires the SDN substrate together with the
  greedy reactive TE policy -- the ISP that only sees its own link
  counters and flees congestion after the fact (one half of the
  Figure 5 oscillator).
* :class:`EonaInfP` replaces the TE policy with demand-aware placement
  driven by A2I demand estimates, and exports the I2A looking glass
  (congestion attribution, peering points, peering decisions) that the
  EONA AppP consumes.
* :class:`EnergyManager` is the §2 "configuration changes" scenario:
  powering edge clusters down off-peak, either blindly by schedule or
  closed-loop on A2I QoE feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cdn.provider import Cdn
from repro.core.context import SimContext, resolve_sim_network
from repro.core.fallback import GlassFallback
from repro.core.interfaces import LookingGlass, QueryResult
from repro.core.registry import OptInRegistry
from repro.obs.trace import TRACER
from repro.core.schemas import CongestionSignal, PeeringDecision, PeeringPointInfo
from repro.network.fluidsim import FluidNetwork
from repro.sdn.controller import SdnController
from repro.sdn.stats import StatsService
from repro.sdn.te import EgressGroup, TrafficEngineeringApp, greedy_reactive_policy
from repro.simkernel.kernel import Simulator
from repro.simkernel.processes import PeriodicProcess


class StatusQuoInfP:
    """Today's ISP: SDN knobs, network-level eyes only.

    Args:
        sim: Simulator, or a :class:`SimContext` (in which case
            ``network`` may be omitted and defaults to the context's).
        network: Fluid network.
        groups: Steerable traffic groups (one per CDN, typically).
        owner: Node owner string identifying the ISP's domain.
        stats_period_s: Link-stats polling period.
        te_period_s: TE control period (tens of minutes in practice;
            scaled down for simulation).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Optional[FluidNetwork] = None,
        groups: Optional[List[EgressGroup]] = None,
        owner: str = "isp",
        stats_period_s: float = 5.0,
        te_period_s: float = 60.0,
        congestion_threshold: float = 0.9,
    ):
        sim, network = resolve_sim_network(sim, network)
        self.sim = sim
        self.network = network
        groups = groups if groups is not None else []
        self.name = owner
        self.controller = SdnController(network, owner=owner)
        self.stats = StatsService(
            sim,
            self.controller,
            period=stats_period_s,
            congestion_threshold=congestion_threshold,
        )
        self.te = TrafficEngineeringApp(
            sim,
            network,
            self.controller,
            self.stats,
            groups,
            period=te_period_s,
            policy=self._policy(),
            congestion_threshold=congestion_threshold,
        )

    def _policy(self):
        return greedy_reactive_policy

    def stop(self) -> None:
        self.stats.stop()
        self.te.stop()

    def reset_soft_state(self) -> None:
        """Wipe soft state, as a provider restart would (fault seam).

        Collected link statistics and congestion-detector smoothing are
        lost; programmed network state (via/split policies) survives,
        as installed dataplane rules do across a controller restart.
        """
        self.stats.reset()


class EonaInfP(StatusQuoInfP, GlassFallback):
    """EONA-enhanced ISP: demand-aware TE plus the I2A export.

    A TE round in which no A2I glass returned a demand estimate and at
    least one query raised or was stale is one failure of the
    :class:`~repro.core.fallback.GlassFallback` streak; in fallback the
    TE policy runs on measured loads (the status-quo information base).

    Args:
        appp_a2i: The AppP's A2I looking glass (queried for demand and
            QoE), or a list of glasses when the ISP serves several
            AppPs (their demand estimates are summed per CDN);
            ``None`` degrades the TE policy to measured loads.
        registry: Opt-in registry the I2A glass enforces; defaults to
            the context's registry when constructed from a
            :class:`SimContext`.
        access_links: Link ids making up the access segment (for the
            Figure 3 congestion-attribution signal).
        i2a_refresh_s: Snapshot period of I2A answers (staleness knob).
        use_splits: Allow the TE plan to split a group across several
            peering points when no single one fits its demand (§4's
            "traffic splits across the peering points" knob).
        fallback_enabled, glass_error_threshold, reengage_ticks,
            stale_tolerance_s: See :class:`GlassFallback`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Optional[FluidNetwork] = None,
        groups: Optional[List[EgressGroup]] = None,
        registry: Optional[OptInRegistry] = None,
        appp_a2i: Optional[LookingGlass] = None,
        access_links: Optional[List[str]] = None,
        i2a_refresh_s: float = 10.0,
        use_splits: bool = False,
        fallback_enabled: bool = True,
        glass_error_threshold: int = 2,
        reengage_ticks: int = 2,
        stale_tolerance_s: float = math.inf,
        **kwargs,
    ):
        if registry is None:
            if not isinstance(sim, SimContext):
                raise ValueError("EonaInfP needs a registry (or a SimContext)")
            registry = sim.registry
        self.use_splits = use_splits
        self.registry = registry
        if appp_a2i is None:
            self.appp_a2i_list: List[LookingGlass] = []
        elif isinstance(appp_a2i, list):
            self.appp_a2i_list = list(appp_a2i)
        else:
            self.appp_a2i_list = [appp_a2i]
        self.appp_a2i = self.appp_a2i_list[0] if self.appp_a2i_list else None
        self.access_links = access_links or []
        self._plan_time = -1.0
        self._plan: Dict[str, str] = {}
        GlassFallback.__init__(
            self,
            fallback_enabled,
            glass_error_threshold,
            reengage_ticks,
            stale_tolerance_s,
        )
        # Cause ID of the last successfully served A2I demand query;
        # the TE rounds it informs stamp it onto the controller so the
        # resulting ``infp-reroute`` events carry it as ``parent``.
        self._last_demand_cause: Optional[int] = None
        super().__init__(sim, network, groups, **kwargs)
        self.i2a = self._make_i2a(i2a_refresh_s)

    def _policy(self):
        return self._demand_aware_policy

    # ------------------------------------------------------------------
    # demand-aware TE
    # ------------------------------------------------------------------
    def _demand_aware_policy(
        self, app: TrafficEngineeringApp, group: EgressGroup
    ) -> str:
        """Place all groups against peering capacities, then answer.

        The full placement is computed once per control round (cached on
        the simulation clock) so per-group answers are consistent.
        Groups are placed largest-demand first onto the candidate with
        the most remaining capacity, keeping the current selection
        whenever it still fits -- stability by construction.
        """
        if self._plan_time != self.sim.now:
            self._plan = self._compute_plan(app)
            self._plan_time = self.sim.now
            if TRACER.enabled:
                # Reroutes installed from this plan descend from the A2I
                # demand answer that shaped it (None under fallback or
                # when no A2I glass is coupled -- exactly the status-quo
                # information base, so no parent is honest).
                self.controller.pending_parent = self._last_demand_cause
        return self._plan.get(group.name, group.selection or group.candidates[0])

    def _compute_plan(self, app: TrafficEngineeringApp) -> Dict[str, str]:
        demands = self._demand_estimates(app)
        remaining: Dict[str, float] = {}
        for group in app.groups.values():
            for candidate in group.candidates:
                link_id = group.egress_links[candidate]
                remaining.setdefault(
                    link_id, self.network.topology.link(link_id).capacity_mbps
                )
        plan: Dict[str, str] = {}
        ordered = sorted(
            app.groups.values(), key=lambda g: demands.get(g.name, 0.0), reverse=True
        )
        for group in ordered:
            demand = demands.get(group.name, 0.0)
            choice = None
            # Preference order: the economically preferred peering if the
            # demand fits, else the current selection (stability), else
            # the candidate with the most headroom.
            for favourite in (group.preferred, group.selection):
                if (
                    favourite in group.candidates
                    and remaining[group.egress_links[favourite]] >= demand * 1.1
                ):
                    choice = favourite
                    break
            if choice is None:
                best = max(
                    group.candidates,
                    key=lambda candidate: remaining[group.egress_links[candidate]],
                )
                best_headroom = remaining[group.egress_links[best]]
                if (
                    self.use_splits
                    and len(group.candidates) > 1
                    and best_headroom < demand * 1.1
                ):
                    # No single peering fits: split proportionally to
                    # the remaining headroom of each candidate.
                    weights = {
                        candidate: max(0.0, remaining[group.egress_links[candidate]])
                        for candidate in group.candidates
                    }
                    if sum(weights.values()) > 0:
                        plan[group.name] = weights
                        for candidate, weight in weights.items():
                            share = weight / sum(weights.values())
                            remaining[group.egress_links[candidate]] -= (
                                demand * share
                            )
                        continue
                choice = best
            plan[group.name] = choice
            remaining[group.egress_links[choice]] -= demand
        return plan

    def _demand_estimates(self, app: TrafficEngineeringApp) -> Dict[str, float]:
        if self.appp_a2i_list:
            if self.fallback_active:
                # One probe per TE round; re-engagement needs
                # ``reengage_ticks`` consecutive good probes.
                self._probe_a2i()
            if not self.fallback_active:
                combined: Dict[str, float] = {}
                got_any = False
                errors_before = self.glass_errors
                for glass in self.appp_a2i_list:
                    result = self._query_demand(glass)
                    if result is None:
                        continue
                    payload = result.payload
                    if isinstance(payload, dict) and "demand_mbps" in payload:
                        got_any = True
                        for cdn, demand in payload["demand_mbps"].items():
                            combined[cdn] = combined.get(cdn, 0.0) + demand
                if got_any:
                    self._note_glass_ok()
                    return combined
                if self.glass_errors > errors_before:
                    self._note_glass_failure()
        # Fallback: measure current egress loads (network-level only).
        measured: Dict[str, float] = {}
        for group in app.groups.values():
            selected = group.selection or group.candidates[0]
            measured[group.name] = self.stats.utilization(
                group.egress_links[selected]
            ) * self.network.topology.link(group.egress_links[selected]).capacity_mbps
        return measured

    def _query_demand(self, glass: LookingGlass) -> Optional[QueryResult]:
        """One guarded A2I demand query, keeping its cause ID."""
        result = self._guarded_query(glass, "demand_estimate")
        if result is not None and result.cause is not None:
            self._last_demand_cause = result.cause
        return result

    def _on_fallback_activate(self) -> None:
        """Drop the demand-built plan; TE replans on measured loads."""
        self._plan = {}
        self._plan_time = -1.0

    def _probe_a2i(self) -> None:
        """One damped re-engagement probe while in fallback."""
        if self._query_demand(self.appp_a2i_list[0]) is None:
            # Any empty probe, a denial included, breaks the good streak.
            self._glass_ok_streak = 0
        else:
            self._note_glass_ok()

    def reset_soft_state(self) -> None:
        super().reset_soft_state()
        self._plan = {}
        self._plan_time = -1.0
        self._glass_fail_streak = 0
        self._glass_ok_streak = 0

    # ------------------------------------------------------------------
    # I2A export
    # ------------------------------------------------------------------
    def _make_i2a(self, refresh_period_s: float) -> LookingGlass:
        glass = LookingGlass(
            self.sim, owner=self.name, registry=self.registry, kind="i2a"
        )
        glass.register(
            "congestion", self.congestion_signals, refresh_period_s=refresh_period_s
        )
        glass.register(
            "peering_points", self.peering_points, refresh_period_s=refresh_period_s
        )
        glass.register(
            "peering_decisions",
            self.peering_decisions,
            refresh_period_s=refresh_period_s,
        )
        # In fully coupled worlds the I2A answers reflect a control loop
        # informed by A2I demand; the glass stamps that demand query's
        # cause as the hint's parent (None when no A2I is consumed).
        glass.provenance = lambda: self._last_demand_cause
        return glass

    def congestion_signals(self) -> List[CongestionSignal]:
        """Per-segment congestion attribution (the Figure 3 signal)."""
        signals = []
        for scope, link_ids in self._segments().items():
            worst_link = ""
            worst = 0.0
            for link_id in link_ids:
                smoothed = self.stats.smoothed_utilization(link_id)
                if smoothed >= worst:
                    worst = smoothed
                    worst_link = link_id
            congested = any(self.stats.is_congested(link_id) for link_id in link_ids)
            signals.append(
                CongestionSignal(
                    time=self.sim.now,
                    scope=scope,
                    congested=congested,
                    severity=worst,
                    bottleneck_link=worst_link,
                )
            )
        return signals

    def peering_points(self) -> List[PeeringPointInfo]:
        points = []
        for group in self.te.groups.values():
            for candidate in group.candidates:
                link_id = group.egress_links[candidate]
                link = self.network.topology.link(link_id)
                points.append(
                    PeeringPointInfo(
                        peering_node=candidate,
                        cdn=group.name,
                        capacity_mbps=link.capacity_mbps,
                        load_mbps=self.network.link_load_mbps(link_id),
                        congested=self.stats.is_congested(link_id),
                    )
                )
        return points

    def peering_decisions(self) -> List[PeeringDecision]:
        return [
            PeeringDecision(
                time=self.sim.now,
                cdn=group.name,
                selected_peering=group.selection or "",
            )
            for group in self.te.groups.values()
        ]

    def _segments(self) -> Dict[str, List[str]]:
        """Partition InfP links into access / peering / core segments."""
        segments: Dict[str, List[str]] = {"access": [], "peering": [], "core": []}
        access_set = set(self.access_links)
        for link in self.network.topology.links():
            if link.link_id in access_set or "access" in link.tags:
                segments["access"].append(link.link_id)
            elif "peering" in link.tags:
                segments["peering"].append(link.link_id)
            else:
                segments["core"].append(link.link_id)
        return segments


# ----------------------------------------------------------------------
# CDN-side I2A (a CDN is an InfP too -- paper §1)
# ----------------------------------------------------------------------
def make_cdn_i2a(
    sim: Simulator,
    cdn: Cdn,
    registry: OptInRegistry,
    refresh_period_s: float = 5.0,
) -> LookingGlass:
    """Build a CDN's I2A looking glass exporting server hints and load."""
    glass = LookingGlass(sim, owner=cdn.name, registry=registry, kind="i2a")

    def server_hints() -> List[dict]:
        return [
            {
                "cdn": cdn.name,
                "server_id": hint.server_id,
                "node_id": hint.node_id,
                "load": hint.load,
                "degraded": hint.degraded,
            }
            for hint in cdn.server_hints()
        ]

    glass.register("server_hints", server_hints, refresh_period_s=refresh_period_s)
    glass.register("mean_load", lambda: {"mean_load": cdn.mean_load})
    return glass


# ----------------------------------------------------------------------
# Energy management (§2 "impacts of configuration changes")
# ----------------------------------------------------------------------
@dataclass
class EnergyLogEntry:
    time: float
    servers_on: int
    action: str


class EnergyManager:
    """Powers a CDN's edge clusters up/down off-peak.

    Three policies, compared in experiment E5:

    * ``"conservative"`` -- never powers anything off (wastes energy);
    * ``"schedule"`` -- blindly follows a demand forecast, powering off
      a fixed fraction off-peak (risks QoE when the forecast is wrong);
    * ``"eona"`` -- closed loop on A2I QoE: shed capacity while QoE is
      healthy, restore it as soon as QoE degrades.

    Args:
        sim: Simulator.
        cdn: The CDN whose servers are managed.
        period_s: Decision period.
        policy: One of the three policy names.
        schedule: For ``"schedule"``: maps sim-time to the target
            fraction of servers on.
        qoe_fetch: For ``"eona"``: returns the current fleet buffering
            ratio (from the A2I looking glass), or None when unknown.
        qoe_threshold: Buffering ratio above which QoE counts degraded.
        demand_fetch: For ``"eona"``: returns the AppP's current demand
            estimate toward this CDN in Mbit/s (A2I), or None.
        server_capacity_mbps: Serving capacity of one cluster; together
            with ``demand_fetch`` this gives the feed-forward sizing
            (A2I demand), with ``qoe_fetch`` as the feedback guardrail.
        headroom: Capacity margin kept above the demand estimate.
        min_on: Never power below this many servers.
    """

    POLICIES = ("conservative", "schedule", "eona")

    def __init__(
        self,
        sim: Simulator,
        cdn: Cdn,
        period_s: float = 30.0,
        policy: str = "eona",
        schedule: Optional[Callable[[float], float]] = None,
        qoe_fetch: Optional[Callable[[], Optional[float]]] = None,
        qoe_threshold: float = 0.02,
        demand_fetch: Optional[Callable[[], Optional[float]]] = None,
        server_capacity_mbps: Optional[float] = None,
        headroom: float = 1.3,
        min_on: int = 1,
    ):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if policy == "schedule" and schedule is None:
            raise ValueError("schedule policy needs a schedule function")
        self.sim = sim
        self.cdn = cdn
        self.policy = policy
        self.schedule = schedule
        self.qoe_fetch = qoe_fetch
        self.qoe_threshold = qoe_threshold
        self.demand_fetch = demand_fetch
        self.server_capacity_mbps = server_capacity_mbps
        self.headroom = headroom
        self.min_on = min_on
        self.log: List[EnergyLogEntry] = []
        self.server_seconds_on = 0.0
        self._last_account = sim.now
        self._process = PeriodicProcess(sim, period_s, self.step, name="energy")

    def stop(self) -> None:
        self._account()
        self._process.stop()

    @property
    def servers_on(self) -> int:
        return sum(1 for s in self.cdn.servers.values() if s.powered_on)

    def step(self) -> None:
        self._account()
        if self.policy == "conservative":
            target = len(self.cdn.servers)
        elif self.policy == "schedule":
            fraction = self.schedule(self.sim.now)
            target = max(self.min_on, round(len(self.cdn.servers) * fraction))
        else:
            target = self._eona_target()
        self._drive_to(target)

    def _eona_target(self) -> int:
        on = self.servers_on
        qoe = self.qoe_fetch() if self.qoe_fetch is not None else None
        if qoe is not None and qoe > self.qoe_threshold:
            # Feedback guardrail: QoE degraded, restore capacity now.
            return min(len(self.cdn.servers), on + 1)
        demand = self.demand_fetch() if self.demand_fetch is not None else None
        if demand is not None and self.server_capacity_mbps:
            # Feed-forward sizing from the A2I demand estimate.
            needed = max(
                self.min_on,
                math.ceil(demand * self.headroom / self.server_capacity_mbps),
            )
            if needed < on:
                return on - 1  # shed gradually, one cluster per period
            return min(len(self.cdn.servers), needed)
        # QoE healthy, no demand signal: shed on clear session headroom.
        if self.cdn.mean_load < 0.5 and on > self.min_on:
            return on - 1
        return on

    def _drive_to(self, target: int) -> None:
        target = max(self.min_on, min(len(self.cdn.servers), target))
        on_servers = [s for s in self.cdn.servers.values() if s.powered_on]
        off_servers = [s for s in self.cdn.servers.values() if not s.powered_on]
        while len(on_servers) > target:
            # Power off the least-loaded server; its sessions re-home.
            victim = min(on_servers, key=lambda s: s.active_sessions)
            self.cdn.power_off_server(victim.server_id)
            on_servers.remove(victim)
            self.log.append(
                EnergyLogEntry(self.sim.now, len(on_servers), f"off:{victim.server_id}")
            )
        while len(on_servers) < target and off_servers:
            revived = off_servers.pop()
            revived.power_on()
            on_servers.append(revived)
            self.log.append(
                EnergyLogEntry(self.sim.now, len(on_servers), f"on:{revived.server_id}")
            )

    def _account(self) -> None:
        elapsed = self.sim.now - self._last_account
        if elapsed > 0:
            self.server_seconds_on += elapsed * self.servers_on
            self._last_account = self.sim.now
