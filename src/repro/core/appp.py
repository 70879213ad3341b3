"""Application-provider control logic: status quo vs. EONA-enhanced.

Both controllers implement the player-policy interface, so the *player
mechanics are identical* across worlds -- only the control logic
differs, as the paper prescribes:

* :class:`StatusQuoAppP` is today's blackbox trial-and-error loop: it
  observes only its own client-side measurements and, when a session
  looks bad, pulls the one coarse knob it has -- switch the whole CDN.
* :class:`EonaAppP` consults EONA-I2A before reacting.  If the ISP
  attributes the bottleneck to its access network, the right move is a
  bitrate down-shift, not a CDN switch (Figure 3).  If the CDN's hints
  identify a degraded server with healthy alternatives, the right move
  is an intra-CDN server switch (the "coarse control" scenario).  Only
  when neither applies does it switch CDNs -- through a hysteresis gate,
  and never when the ISP's published peering decision shows the problem
  is already being fixed (Figure 5).

The base class also owns the AppP's telemetry plane (collector →
aggregator → store) and exports the A2I looking glass from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cdn.provider import Cdn
from repro.core.context import SimContext
from repro.core.damping import HysteresisGate
from repro.core.fallback import GlassFallback
from repro.core.interfaces import LookingGlass, QueryResult
from repro.core.registry import OptInRegistry
from repro.core.schemas import DemandEstimate, QoeAggregate
from repro.obs.trace import TRACER
from repro.simkernel.kernel import Simulator
from repro.telemetry.aggregate import GroupByAggregator
from repro.telemetry.collector import Collector
from repro.telemetry.records import record_from_qoe
from repro.telemetry.streamdb import TimeSeriesStore
from repro.video.player import AdaptivePlayer, ChunkRecord, PlayerPolicy, SessionAssignment


@dataclass
class _SessionState:
    """Per-session control state held by the AppP."""

    consecutive_bad: int = 0
    rate_cap_mbps: float = math.inf
    last_rebuffer_s: float = 0.0
    #: Cause ID of the last traced control action on this session; the
    #: next good chunk emits ``qoe-recovery`` pointing back at it
    #: (DESIGN.md §13).  Only ever set while tracing is enabled and
    #: never read by control logic, so untraced behavior is identical.
    pending_recovery_cause: Optional[int] = None


class AppPController(PlayerPolicy):
    """Shared AppP machinery: assignment, QoE watching, telemetry, A2I.

    Args:
        sim: Simulator, or a :class:`SimContext` (in which case ``cdns``
            may be omitted and defaults to the context's registered CDNs).
        cdns: CDNs in preference order (first is the default).
        name: Provider name (used in grants and telemetry attrs).
        isp: The access ISP attribute stamped on beacons.
        bad_chunk_threshold: Consecutive bad chunks before reacting.
        aggregation_window_s: Telemetry window feeding A2I aggregates.
    """

    def __init__(
        self,
        sim: Simulator,
        cdns: Optional[List[Cdn]] = None,
        name: str = "appp",
        isp: str = "isp",
        bad_chunk_threshold: int = 3,
        aggregation_window_s: float = 10.0,
    ):
        if isinstance(sim, SimContext):
            if cdns is None:
                cdns = list(sim.cdns)
            sim = sim.sim
        if not cdns:
            raise ValueError("AppP needs at least one CDN")
        self.sim = sim
        self.cdns = list(cdns)
        self.cdn_by_name = {cdn.name: cdn for cdn in cdns}
        self.name = name
        self.isp = isp
        self.bad_chunk_threshold = bad_chunk_threshold
        self._sessions: Dict[str, _SessionState] = {}
        self._active_players: Dict[str, AdaptivePlayer] = {}
        self.finished_qoe: List = []
        self.cohort_sessions_reported = 0.0

        # Telemetry plane: beacons -> windowed aggregates -> store.
        self.collector = Collector()
        self.store = TimeSeriesStore()
        self.aggregator = GroupByAggregator(
            window_s=aggregation_window_s,
            group_keys=("cdn", "isp"),
            metrics=(
                "buffering_ratio",
                "mean_bitrate_mbps",
                "join_time_s",
                "abandoned",
            ),
            sink=self.store.append,
        )
        self.collector.subscribe(self.aggregator.add)

    # ------------------------------------------------------------------
    # PlayerPolicy interface
    # ------------------------------------------------------------------
    def assign(self, player: AdaptivePlayer) -> SessionAssignment:
        self._sessions[player.session_id] = _SessionState()
        self._active_players[player.session_id] = player
        return SessionAssignment(cdn=self._default_cdn())

    def on_chunk(self, player: AdaptivePlayer, record: ChunkRecord) -> None:
        state = self._sessions.get(player.session_id)
        if state is None:
            return
        if self._chunk_is_bad(player, record, state):
            state.consecutive_bad += 1
        else:
            state.consecutive_bad = 0
            if state.pending_recovery_cause is not None:
                if TRACER.enabled:
                    TRACER.emit(
                        "qoe-recovery",
                        cause=TRACER.new_cause(),
                        parent=state.pending_recovery_cause,
                        session=player.session_id,
                        policy=self.name,
                    )
                state.pending_recovery_cause = None
        state.last_rebuffer_s = record.rebuffer_time_s
        if state.consecutive_bad >= self.bad_chunk_threshold:
            reacted = self._react(player, record, state)
            if reacted:
                state.consecutive_bad = 0

    def rate_cap_mbps(self, player: AdaptivePlayer) -> float:
        state = self._sessions.get(player.session_id)
        return state.rate_cap_mbps if state else math.inf

    def on_session_end(self, player: AdaptivePlayer) -> None:
        self._sessions.pop(player.session_id, None)
        self._active_players.pop(player.session_id, None)
        qoe = player.qoe()
        self.finished_qoe.append(qoe)
        server = player.cdn.server_of(player.session_id) if player.cdn else None
        cause: Optional[int] = None
        if TRACER.enabled:
            # Session-end beacons are the A2I pipeline's input, so they
            # count as a2i-report even in worlds with no A2I glass built.
            # Emitted before ingestion so the flush this beacon may
            # trigger appears after it in the trace.
            cause = TRACER.new_cause()
            TRACER.emit(
                "a2i-report",
                via="beacon",
                cause=cause,
                owner=self.name,
                session=player.session_id,
                cdn=player.cdn.name if player.cdn else "",
                isp=self.isp,
            )
        self.collector.ingest(
            record_from_qoe(
                time=self.sim.now,
                qoe=qoe,
                cdn=player.cdn.name if player.cdn else "",
                isp=self.isp,
                server=server.server_id if server else "",
            )
        )
        if cause is not None:
            self.aggregator.note_cause(cause)

    # ------------------------------------------------------------------
    # cohort beacons
    # ------------------------------------------------------------------
    def ingest_cohort_beacons(self, beacons) -> None:
        """Ingest cohort-level A2I beacons: ``(record, sessions)`` pairs.

        A cohort beacon carries per-session *mean* metrics for
        ``sessions`` sessions that retired together, so it enters the
        aggregator with that weight -- the A2I aggregates come out as if
        every individual beacon had been sent, without any individual
        :class:`~repro.telemetry.records.SessionRecord` ever being
        materialized.  The per-record collector is bypassed on purpose:
        its subscribers expect unweighted records, and the privacy
        boundary is *stronger* here (individuals never existed).
        """
        for record, sessions in beacons:
            self.cohort_sessions_reported += sessions
            cause: Optional[int] = None
            if TRACER.enabled:
                cause = TRACER.new_cause()
                TRACER.emit(
                    "a2i-report",
                    via="cohort-beacon",
                    cause=cause,
                    owner=self.name,
                    cdn=record.attr("cdn"),
                    isp=record.attr("isp"),
                    sessions=sessions,
                )
            self.aggregator.add(record, weight=sessions)
            if cause is not None:
                self.aggregator.note_cause(cause)

    # ------------------------------------------------------------------
    # A2I export
    # ------------------------------------------------------------------
    def make_a2i(
        self,
        registry: OptInRegistry,
        refresh_period_s: float = 10.0,
        k_anonymity: int = 1,
    ) -> LookingGlass:
        """Build this AppP's A2I looking glass (QoE + demand queries)."""
        glass = LookingGlass(self.sim, owner=self.name, registry=registry, kind="a2i")
        glass.register(
            "qoe_by_cdn",
            lambda: self._qoe_aggregates(k_anonymity),
            refresh_period_s=refresh_period_s,
        )
        glass.register(
            "demand_estimate",
            self.demand_estimate,
            refresh_period_s=refresh_period_s,
        )
        # Served A2I answers derive from the latest aggregation flush;
        # the glass stamps that flush's cause as the query event's
        # parent, closing the beacon -> flush -> report chain.
        glass.provenance = lambda: self.aggregator.last_flush_cause
        self.a2i = glass
        return glass

    def demand_estimate(self) -> DemandEstimate:
        """Expected Mbit/s toward each CDN from currently active sessions."""
        demand: Dict[str, float] = {cdn.name: 0.0 for cdn in self.cdns}
        for player in self._active_players.values():
            if player.cdn is None:
                continue
            bitrate = (
                player.bitrates_played[-1]
                if player.bitrates_played
                else player.ladder.lowest
            )
            demand[player.cdn.name] = demand.get(player.cdn.name, 0.0) + bitrate
        return DemandEstimate(time=self.sim.now, demand_mbps=demand)

    def _qoe_aggregates(self, k_anonymity: int) -> List[QoeAggregate]:
        self.aggregator.flush(up_to=self.sim.now)
        aggregates = []
        for group in self.store.groups():
            row = self.store.latest(group)
            if row is None or row.count < k_anonymity:
                continue
            cdn, isp = group
            aggregates.append(
                QoeAggregate(
                    window_start=row.window_start,
                    window_s=row.window_s,
                    cdn=cdn,
                    isp=isp,
                    sessions=row.count,
                    buffering_ratio=row.mean("buffering_ratio"),
                    mean_bitrate_mbps=row.mean("mean_bitrate_mbps"),
                    join_time_s=row.mean("join_time_s"),
                    abandonment_rate=row.mean("abandoned"),
                )
            )
        return aggregates

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    def _default_cdn(self) -> Cdn:
        for cdn in self.cdns:
            if cdn.has_capacity():
                return cdn
        return self.cdns[0]

    def _chunk_is_bad(
        self,
        player: AdaptivePlayer,
        record: ChunkRecord,
        state: _SessionState,
    ) -> bool:
        """A chunk is bad if it stalled the player or starved the ladder."""
        stalled = record.rebuffer_time_s > state.last_rebuffer_s + 1e-9
        starved = record.throughput_mbps < player.ladder.lowest * 1.2
        low_buffer = record.buffer_level_s < player.buffer.startup_threshold_s
        return stalled or (starved and low_buffer)

    def _react(
        self,
        player: AdaptivePlayer,
        record: ChunkRecord,
        state: _SessionState,
    ) -> bool:
        """React to sustained badness; returns whether an action was taken."""
        raise NotImplementedError

    def _switch_cdn(
        self,
        player: AdaptivePlayer,
        target: Cdn,
        reason: str,
        parent: Optional[int] = None,
    ) -> bool:
        """Switch ``player`` to ``target``, tracing successful switches.

        All controller CDN-switch paths route through here so the
        ``cdn-switch`` trace events carry a uniform shape (and the
        policy's *reason* for the switch, which the raw player mechanics
        cannot know).  ``parent`` is the cause ID of the I2A hint that
        motivated the switch, when one did -- the status-quo controller
        never passes it, which is exactly what ``eona trace diff`` keys
        on.
        """
        previous = player.cdn.name if player.cdn else ""
        switched = player.switch_cdn(target)
        if switched and TRACER.enabled:
            cause = TRACER.new_cause()
            extra: Dict[str, object] = {} if parent is None else {"parent": parent}
            TRACER.emit(
                "cdn-switch",
                cause=cause,
                session=player.session_id,
                from_cdn=previous,
                to_cdn=target.name,
                reason=reason,
                policy=self.name,
                **extra,
            )
            state = self._sessions.get(player.session_id)
            if state is not None:
                state.pending_recovery_cause = cause
        return switched

    def _next_cdn(self, current: Cdn) -> Optional[Cdn]:
        """The next CDN in preference order with capacity, or None."""
        names = [cdn.name for cdn in self.cdns]
        index = names.index(current.name)
        for offset in range(1, len(self.cdns)):
            candidate = self.cdns[(index + offset) % len(self.cdns)]
            if candidate.has_capacity():
                return candidate
        return None


class StatusQuoAppP(AppPController):
    """Today's AppP: blackbox inference, one coarse knob.

    When a session degrades it switches the whole CDN -- even when the
    bottleneck is the client's own access network (Figure 3, where this
    thrashing fixes nothing) or a single bad server (coarse control,
    where it lands the viewer on cold caches).
    """

    def _react(
        self,
        player: AdaptivePlayer,
        record: ChunkRecord,
        state: _SessionState,
    ) -> bool:
        assert player.cdn is not None
        target = self._next_cdn(player.cdn)
        if target is None:
            return False
        return self._switch_cdn(player, target, reason="blackbox-react")


class EonaAppP(AppPController, GlassFallback):
    """EONA-enhanced AppP: consult I2A, then pick the *right* knob.

    Every I2A query counts in ``i2a_queries`` and each failed one is one
    failure of the :class:`~repro.core.fallback.GlassFallback` streak.

    Args:
        isp_i2a: The ISP's I2A looking glass (congestion + peering).
        cdn_i2a: Per-CDN I2A looking glasses (server hints).
        damper: Hysteresis gate on CDN switches; ``None`` disables
            damping (the E4/E10 ablation).
        global_cap_period_s: Period of the fleet-wide bitrate governor.
        clear_ticks_to_raise: Consecutive clear governor ticks before a
            cap is raised one rung.
        fallback_enabled, glass_error_threshold, reengage_ticks,
            stale_tolerance_s: See :class:`GlassFallback`; ``inf`` (the
            default tolerance) preserves the staleness-sweep semantics
            of E6.
    """

    def __init__(
        self,
        sim: Simulator,
        cdns: Optional[List[Cdn]] = None,
        isp_i2a: Optional[LookingGlass] = None,
        cdn_i2a: Optional[Dict[str, LookingGlass]] = None,
        damper: Optional[HysteresisGate] = None,
        ladder=None,
        global_cap_period_s: float = 5.0,
        clear_ticks_to_raise: int = 3,
        fallback_enabled: bool = True,
        glass_error_threshold: int = 3,
        reengage_ticks: int = 3,
        stale_tolerance_s: float = math.inf,
        **kwargs,
    ):
        super().__init__(sim, cdns, **kwargs)
        GlassFallback.__init__(
            self,
            fallback_enabled,
            glass_error_threshold,
            reengage_ticks,
            stale_tolerance_s,
        )
        self.isp_i2a = isp_i2a
        self.cdn_i2a = cdn_i2a or {}
        self.damper = damper
        self.i2a_queries = 0
        self.bitrate_downshifts = 0
        # Cause ID of the most recent successfully served I2A answer;
        # traced control actions point back at it as their parent.
        self._last_hint_cause: Optional[int] = None
        # Fleet-wide bitrate governor (the Figure 3 fix): while the ISP
        # reports access congestion, every session is capped, stepping
        # one rung down per control period; the cap relaxes one rung per
        # ``clear_ticks_to_raise`` consecutive clear periods.
        from repro.video.ladder import DEFAULT_LADDER

        self.ladder = ladder or DEFAULT_LADDER
        self.global_cap_mbps = math.inf
        self._clear_ticks = 0
        self.clear_ticks_to_raise = clear_ticks_to_raise
        self._governor = None
        if isp_i2a is not None and global_cap_period_s > 0:
            from repro.simkernel.processes import PeriodicProcess

            self._governor = PeriodicProcess(
                self.sim, global_cap_period_s, self._govern, name="appp-governor"
            )

    def stop(self) -> None:
        if self._governor is not None:
            self._governor.stop()

    def _govern(self) -> None:
        """One governor tick: probe in fallback, else step the caps."""
        if self.fallback_active:
            # In fallback the governor holds no caps (status-quo players
            # are uncapped) and probes the glass once per tick; only
            # ``reengage_ticks`` consecutive good probes re-engage EONA.
            self._on_fallback_activate()
            self._probe_glass()
            return
        self._govern_caps()

    def _govern_caps(self) -> None:
        """Step the one fleet-wide cap on the ISP's congestion report."""
        # Ask before reading the cap: a failed query can trip fallback,
        # which lifts it.
        congested = self._access_congested()
        self.global_cap_mbps, self._clear_ticks = self._step_cap(
            self.global_cap_mbps,
            self._clear_ticks,
            congested,
            self._active_players.values(),
        )

    def _step_cap(
        self,
        cap: float,
        clear_ticks: int,
        congested: bool,
        players: Iterable[AdaptivePlayer],
        **trace_fields: object,
    ) -> Tuple[float, int]:
        """One governor step of one cap; returns ``(cap, clear_ticks)``.

        While congested the cap goes one rung down, starting below the
        mean bitrate ``players`` play; after ``clear_ticks_to_raise``
        clear ticks it goes one rung up, and above the top rung it is
        lifted (``inf``).
        """
        if congested:
            if math.isinf(cap):
                cap = self.ladder.highest_at_most(self._mean_bitrate(players))
            cap = self.ladder.step_down(cap)
            self.bitrate_downshifts += 1
            self._trace_bitrate_cap("governor", cap, **trace_fields)
            return cap, 0
        if math.isinf(cap):
            return cap, clear_ticks
        clear_ticks += 1
        if clear_ticks < self.clear_ticks_to_raise:
            return cap, clear_ticks
        if cap >= self.ladder.highest:
            return math.inf, 0
        return self.ladder.step_up(cap), 0

    def _mean_bitrate(self, players: Iterable[AdaptivePlayer]) -> float:
        """Mean current bitrate of ``players`` (the top rung if none play)."""
        rates = [
            player.bitrates_played[-1] for player in players if player.bitrates_played
        ]
        if not rates:
            return self.ladder.highest
        return sum(rates) / len(rates)

    def _trace_bitrate_cap(
        self, via: str, cap_mbps: float, **fields: object
    ) -> Optional[int]:
        """Trace one cap-lowering action; returns its cause ID (or None).

        The parent is the I2A hint that reported the congestion -- the
        hint→action hop of the causal chain.
        """
        if not TRACER.enabled:
            return None
        cause = TRACER.new_cause()
        if self._last_hint_cause is not None:
            fields["parent"] = self._last_hint_cause
        TRACER.emit(
            "bitrate-cap",
            cause=cause,
            via=via,
            policy=self.name,
            cap_mbps=cap_mbps,
            **fields,
        )
        return cause

    def rate_cap_mbps(self, player: AdaptivePlayer) -> float:
        return min(super().rate_cap_mbps(player), self.global_cap_mbps)

    # -- glass fault tracking ------------------------------------------
    def _glass_query(
        self, glass: LookingGlass, query: str
    ) -> Optional[QueryResult]:
        """One counted I2A query; each fault or stale answer is a failure."""
        self.i2a_queries += 1
        errors_before = self.glass_errors
        result = self._guarded_query(glass, query)
        if result is not None:
            self._note_glass_ok()
            if result.cause is not None:
                self._last_hint_cause = result.cause
        elif self.glass_errors > errors_before:
            self._note_glass_failure()
        return result

    def _on_fallback_activate(self) -> None:
        """Lift every cap, so fallback really is status quo."""
        self.global_cap_mbps = math.inf
        self._clear_ticks = 0
        for state in self._sessions.values():
            state.rate_cap_mbps = math.inf

    def _probe_candidates(self) -> List[tuple]:
        """``(glass, query)`` pairs a fallback probe may try, in order."""
        candidates: List[tuple] = []
        if self.isp_i2a is not None:
            candidates.append((self.isp_i2a, "congestion"))
        for cdn_name in sorted(self.cdn_i2a):
            candidates.append((self.cdn_i2a[cdn_name], "server_hints"))
        return candidates

    def _probe_glass(self) -> None:
        """One damped re-engagement probe while in fallback."""
        candidates = self._probe_candidates()
        if candidates:
            glass, query = candidates[0]
            self._glass_query(glass, query)

    # -- I2A helpers ---------------------------------------------------
    def _i2a_list(self, glass: Optional[LookingGlass], query: str) -> List[dict]:
        """A list-valued I2A answer; ``[]`` if no glass, in fallback or failed."""
        if glass is None or self.fallback_active:
            return []
        result = self._glass_query(glass, query)
        if result is None:
            return []
        payload = result.payload
        return payload if isinstance(payload, list) else []

    def _reports_access_congestion(self, glass: Optional[LookingGlass]) -> bool:
        """Whether ``glass`` reports its access segment congested."""
        return any(
            signal.get("scope") == "access" and signal.get("congested")
            for signal in self._i2a_list(glass, "congestion")
        )

    def _access_congested(self) -> bool:
        return self._reports_access_congestion(self.isp_i2a)

    def _server_hints(self, cdn_name: str) -> List[dict]:
        return self._i2a_list(self.cdn_i2a.get(cdn_name), "server_hints")

    def _peering_being_fixed(self, cdn_name: str) -> bool:
        """True when the ISP's published peering state shows headroom.

        If any peering point for this CDN has spare capacity, the
        congestion is attributable to the peering choice, which the
        EONA InfP will repair -- so a wholesale CDN switch would only
        add churn (the Figure 5 lesson).
        """
        points = self._i2a_list(self.isp_i2a, "peering_points")
        relevant = [p for p in points if p.get("cdn") == cdn_name]
        if not relevant:
            return False
        congested_somewhere = any(p.get("congested") for p in relevant)
        headroom_somewhere = any(
            not p.get("congested", False)
            and p.get("capacity_mbps", 0.0) > p.get("load_mbps", 0.0)
            for p in relevant
        )
        return congested_somewhere and headroom_somewhere

    # -- the EONA decision procedure ------------------------------------
    def _react(
        self,
        player: AdaptivePlayer,
        record: ChunkRecord,
        state: _SessionState,
    ) -> bool:
        assert player.cdn is not None
        # 0. Degraded mode: the glasses are untrusted, so react exactly
        #    like StatusQuoAppP (blackbox CDN switch).  Each reaction
        #    also probes, so worlds without a governor can re-engage.
        if self.fallback_active:
            self._probe_glass()
        if self.fallback_active:
            target = self._next_cdn(player.cdn)
            if target is None:
                return False
            return self._switch_cdn(player, target, reason="fallback-blackbox")
        # 1. Access-network congestion => adapt bitrate, don't thrash.
        if self._access_congested():
            current = record.bitrate_mbps
            lowered = player.ladder.step_down(current)
            if lowered < state.rate_cap_mbps:
                state.rate_cap_mbps = lowered
                self.bitrate_downshifts += 1
                cause = self._trace_bitrate_cap(
                    "session", lowered, session=player.session_id
                )
                if cause is not None:
                    state.pending_recovery_cause = cause
            return True
        # 2. A bad server within the CDN => fine-grained server switch.
        hints = self._server_hints(player.cdn.name)
        current_server = player.cdn.server_of(player.session_id)
        if hints and current_server is not None:
            healthy = [h for h in hints if not h.get("degraded", False)]
            best = healthy[0].get("server_id") if healthy else None
            if best and best != current_server.server_id:
                if player.switch_server(best):
                    if TRACER.enabled:
                        cause = TRACER.new_cause()
                        extra: Dict[str, object] = (
                            {}
                            if self._last_hint_cause is None
                            else {"parent": self._last_hint_cause}
                        )
                        TRACER.emit(
                            "server-switch",
                            cause=cause,
                            session=player.session_id,
                            cdn=player.cdn.name,
                            from_server=current_server.server_id,
                            to_server=best,
                            policy=self.name,
                            **extra,
                        )
                        state.pending_recovery_cause = cause
                    return True
        # (fall through: no healthy alternative server)
        # 3. Peering problem the ISP is fixing => hold position.
        if self._peering_being_fixed(player.cdn.name):
            return True
        # 4. Last resort: CDN switch, damped.
        target = self._next_cdn(player.cdn)
        if target is None:
            return False
        if self.damper is not None:
            # Fleet-level knob: damping bounds the *rate* of CDN churn
            # across all sessions leaving this CDN, not per session --
            # a thundering herd of individually-reasonable switches is
            # exactly what Figure 5 warns about.
            knob = f"cdn-exodus:{player.cdn.name}"
            current_score = -record.rebuffer_time_s
            if not self.damper.allow(knob, current_score, current_score + 1.0):
                return False
            self.damper.record_change(knob)
        return self._switch_cdn(
            player,
            target,
            reason="damped-last-resort",
            parent=self._last_hint_cause,
        )

    def on_chunk(self, player: AdaptivePlayer, record: ChunkRecord) -> None:
        super().on_chunk(player, record)
        # Lift bitrate caps once the ISP reports the access network clear.
        state = self._sessions.get(player.session_id)
        if (
            state is not None
            and math.isfinite(state.rate_cap_mbps)
            and not self._access_congested()
        ):
            state.rate_cap_mbps = math.inf


class MultiIspEonaAppP(EonaAppP):
    """EONA AppP serving clients across several access ISPs.

    §3: A2I exports measurements "together with relevant attributes
    (e.g., the client ISP)".  This controller shows why the attributes
    matter: each ISP publishes its own congestion signal, and the fleet
    governor maintains a *per-ISP* bitrate cap, so a flash crowd inside
    one ISP does not punish viewers on a healthy one.  Setting
    ``scoped=False`` deliberately discards the attribute (any congested
    ISP caps everyone) -- the ablation experiment E12 compares the two.

    Args:
        isp_i2a_map: ISP name -> that ISP's I2A looking glass.
        isp_of: Maps a player to its access ISP's name.
        scoped: Whether caps are per-ISP (True) or fleet-global (False).
    """

    def __init__(
        self,
        sim: Simulator,
        cdns: Optional[List[Cdn]],
        isp_i2a_map: Dict[str, LookingGlass],
        isp_of: Callable[[AdaptivePlayer], str],
        scoped: bool = True,
        **kwargs,
    ):
        if not isp_i2a_map:
            raise ValueError("need at least one ISP I2A glass")
        kwargs.setdefault("global_cap_period_s", 5.0)
        super().__init__(sim, cdns, isp_i2a=None, **kwargs)
        self.isp_i2a_map = dict(isp_i2a_map)
        self.isp_of = isp_of
        self.scoped = scoped
        self._scope_caps: Dict[str, float] = {
            isp: math.inf for isp in isp_i2a_map
        }
        self._scope_clear_ticks: Dict[str, int] = {isp: 0 for isp in isp_i2a_map}
        # The base class only starts a governor when isp_i2a is set;
        # start our per-scope one explicitly.
        from repro.simkernel.processes import PeriodicProcess

        period = kwargs.get("global_cap_period_s", 5.0)
        self._governor = PeriodicProcess(
            self.sim, period, self._govern, name="appp-scope-governor"
        )

    # ------------------------------------------------------------------
    def _access_congested(self) -> bool:
        # For the per-session reaction path: "my access is congested"
        # means *some* collaborating ISP reports it; the per-session
        # rate-cap logic in EonaAppP then applies only to the sessions
        # that are actually bad, so scoping is preserved there.
        return any(
            self._reports_access_congestion(glass)
            for glass in self.isp_i2a_map.values()
        )

    def _probe_candidates(self) -> List[tuple]:
        candidates = super()._probe_candidates()
        for isp in sorted(self.isp_i2a_map):
            candidates.append((self.isp_i2a_map[isp], "congestion"))
        return candidates

    def _on_fallback_activate(self) -> None:
        super()._on_fallback_activate()
        for isp in self._scope_caps:
            self._scope_caps[isp] = math.inf
            self._scope_clear_ticks[isp] = 0

    def _govern_caps(self) -> None:
        """Step each ISP's cap on that ISP's own congestion report."""
        congested = {
            isp: self._reports_access_congestion(glass)
            for isp, glass in self.isp_i2a_map.items()
        }
        if not self.scoped and any(congested.values()):
            congested = {isp: True for isp in congested}
        for isp, is_congested in congested.items():
            self._scope_caps[isp], self._scope_clear_ticks[isp] = self._step_cap(
                self._scope_caps[isp],
                self._scope_clear_ticks[isp],
                is_congested,
                (p for p in self._active_players.values() if self.isp_of(p) == isp),
                isp=isp,
            )

    def rate_cap_mbps(self, player: AdaptivePlayer) -> float:
        session_cap = AppPController.rate_cap_mbps(self, player)
        scope_cap = self._scope_caps.get(self.isp_of(player), math.inf)
        return min(session_cap, scope_cap)

    def scope_cap(self, isp: str) -> float:
        """Current cap applied to one ISP's viewers (``inf`` = none)."""
        return self._scope_caps[isp]
