"""The simulated worlds of the ``flash-crowd`` and ``cohort-scale`` workloads.

Each world is built only through public entry points (``build_scenario``
or ``build_context``, the controllers, ``CohortEngine``,
``GroupByAggregator``) and driven through ``SimContext.run``.  A world
knows how to check its own outputs and how to digest its simulated
statistics, so a change that only claims speed can be shown to leave
them byte-identical.

A world's ``glass`` is the looking glass whose query latency an
untraced run times.  ``harness_queries`` are the queries the harness
asks it after every simulated second: none in ``flash-crowd``, whose
``EonaAppP`` asks its glass itself, at its own rate and mix.

The run is stepped one simulated second at a time so the checks can
sample state between steps; stepping ``run(until=…)`` fires exactly the
same events in the same order as one long run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Callable, Dict, List, Tuple

#: Simulated horizon of both worlds (seconds).
HORIZON_S = 600.0

#: E2's flash-crowd parameters.
FLASH_PARAMS = {
    "n_clients": 30,
    "access_capacity_mbps": 45.0,
    "peak_rate_per_s": 1.5,
}

#: e7-cohort's scale topology: 16 access ISPs, 4 cohorts each.
COHORT_ISPS = 16
COHORT_SESSIONS = 1_000_000
COHORT_CONTENT_S = 120.0

#: A cohort world has no program-side consumer of its A2I glass, so the
#: harness asks ``qoe_by_cdn`` this many times after every simulated
#: second (from :data:`QUERY_FROM_S` on): enough answers per world for
#: a p99 with ten samples beyond it.
COHORT_QUERIES_PER_STEP = 2
QUERY_FROM_S = 20.0


def _digest(parts: List[object]) -> str:
    """sha256 over the exact ``repr`` of every part (floats keep all digits)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


class FlashCrowdWorld:
    """E2's EONA world: 30 clients behind a 45 Mbps access link.

    ``EonaAppP`` reads the ISP's congestion signal through an in-process
    I2A glass (``EonaInfP``); sessions arrive along the spec's flash-crowd
    arc until 60 % of the horizon.
    """

    name = "flash-crowd"

    def __init__(self, seed: int):
        from repro.core.appp import EonaAppP
        from repro.core.infp import EonaInfP
        from repro.experiments.common import launch_video_sessions
        from repro.scenarios import build_scenario

        self.scenario = build_scenario("flash-crowd", seed=seed, params=dict(FLASH_PARAMS))
        self.ctx = self.scenario.ctx
        self.infp = EonaInfP(
            self.ctx,
            access_links=[self.scenario.access_link],
            i2a_refresh_s=10.0,
            stats_period_s=2.0,
        )
        self.ctx.registry.grant("isp", "appp")
        self.policy = EonaAppP(self.ctx, isp_i2a=self.infp.i2a, name="appp")
        catalog = self.scenario.catalog
        self.players = launch_video_sessions(
            self.ctx,
            catalog=catalog,
            policy=self.policy,
            content_picker=lambda index: catalog.by_rank(0),
            **self.scenario.world.population("viewers").launch_kwargs(
                until=HORIZON_S * 0.6
            ),
        )
        # The AppP asks this glass itself, at its own rate and mix.
        self.glass = self.infp.i2a
        self.harness_queries: Tuple[str, ...] = ()
        self.problems: List[str] = []
        self._access = self.scenario.network.link_stats[self.scenario.access_link]

    def step(self, until: float) -> None:
        self.ctx.run(until=until)
        # Loads only change at reallocations; the current load is read
        # without syncing so the check cannot perturb the world.
        load, capacity = self._access.current_load_mbps, self._access.capacity_mbps
        if load > capacity * (1.0 + 1e-9):
            self.problems.append(
                f"access link at {load!r} Mbps over {capacity!r} at t={until:g}"
            )

    def finish(self) -> None:
        self.infp.stop()
        self.scenario.network.sync()

    def check(self) -> None:
        utilization = self._access.mean_utilization
        if utilization > 1.0 + 1e-9:
            self.problems.append(f"access link mean utilization {utilization!r} > 1")
        unfinished = [p.session_id for p in self.players if not p.ended]
        if unfinished:
            self.problems.append(
                f"{len(unfinished)} session(s) neither ended nor abandoned by the "
                f"horizon: {unfinished[:5]}"
            )
        if not self.players:
            self.problems.append("no session launched")

    def digest(self) -> str:
        parts: List[object] = [
            len(self.players),
            self.ctx.sim.events_executed,
            sorted(self.ctx.allocation_counters().items()),
            self._access.mbit_carried,
            self._access.busy_seconds,
            self.policy.i2a_queries,
        ]
        parts.extend(dataclasses.astuple(player.qoe()) for player in self.players)
        return _digest(parts)

    def program_counts(self) -> Dict[str, float]:
        """The program's own counters, for the trace cross-checks."""
        return {
            "events": self.ctx.sim.events_executed,
            "solve_calls": self.ctx.allocation_counters()["solve_calls"],
            "records_processed": self.policy.aggregator.records_processed,
        }


class CohortScaleWorld:
    """e7-cohort's scale point: a million sessions in 64 fluid cohorts.

    The population is prefilled at steady state and churns for
    :data:`HORIZON_S` at dt = 1 s.  Cohort beacons reach a
    ``StatusQuoAppP`` through the engine's ``attach_appp`` path, so they
    go through the AppP's ``ingest_cohort_beacons`` into its
    ``GroupByAggregator`` (10 s windows by cdn/isp) and its
    ``TimeSeriesStore``; the AppP's own A2I glass (``make_a2i``) answers
    ``qoe_by_cdn`` from snapshots of that store.
    """

    name = "cohort-scale"

    def __init__(self, seed: int):
        from repro.cdn.provider import Cdn
        from repro.cdn.server import CdnServer
        from repro.cohorts.engine import CohortEngine
        from repro.cohorts.specs import CohortSpec
        from repro.core.appp import StatusQuoAppP
        from repro.core.context import build_context
        from repro.network.topology import NodeKind, Topology

        topology = Topology("cohort-scale")
        topology.add_node("origin", NodeKind.SERVER)
        specs = []
        n_cohorts = COHORT_ISPS * 4
        for index in range(COHORT_ISPS):
            node = f"isp{index}"
            topology.add_node(node, NodeKind.CLIENT)
            topology.add_link("origin", node, capacity_mbps=400_000.0)
            for tier in ("hd", "sd"):
                for device in ("tv", "mobile"):
                    specs.append(
                        CohortSpec(
                            node=node,
                            cdn="cdnX",
                            tier=tier,
                            device=device,
                            src_node="origin",
                            isp=node,
                            content_duration_s=COHORT_CONTENT_S,
                            device_cap_mbps=6.0 if device == "tv" else 1.5,
                            # Steady state: arrivals replace departures.
                            arrival_rate_per_s=(
                                COHORT_SESSIONS / n_cohorts / COHORT_CONTENT_S
                            ),
                        )
                    )
        self.ctx = build_context(topology=topology, seed=seed)
        cdn = Cdn("cdnX", [CdnServer("cdnX-origin", "origin", capacity_sessions=1)])
        self.appp = StatusQuoAppP(self.ctx.sim, cdns=[cdn], name="appp")
        self.engine = CohortEngine(self.ctx, specs, dt_s=1.0, until=HORIZON_S)
        self.engine.attach_appp(self.appp)
        self.engine.prefill([COHORT_SESSIONS / n_cohorts] * n_cohorts)
        self.engine.start()

        self.glass = self.appp.make_a2i(self.ctx.registry, refresh_period_s=10.0)
        self.ctx.registry.grant("appp", "isp")
        self.requester = "isp"
        self.harness_queries = ("qoe_by_cdn",) * COHORT_QUERIES_PER_STEP
        self.problems: List[str] = []

    def rows(self) -> List[object]:
        """Every aggregate row the AppP's store holds, group by group."""
        store = self.appp.store
        return [row for group in sorted(store.groups()) for row in store.series(group)]

    def step(self, until: float) -> None:
        self.ctx.run(until=until)

    def finish(self) -> None:
        # Let the last tick at the horizon fire, then close the window.
        self.ctx.run(until=HORIZON_S + 1.0)
        self.appp.aggregator.flush()

    def check(self) -> None:
        counters = self.engine.counters
        weight_in = self.appp.cohort_sessions_reported
        arrivals = float(counters["cohort.arrivals"])
        accounted = self.engine.concurrent_sessions + weight_in
        if not math.isclose(arrivals, accounted, rel_tol=1e-9):
            self.problems.append(
                f"arrivals {arrivals!r} != active + completed + abandoned {accounted!r}"
            )
        retired = counters["cohort.completed"] + counters["cohort.abandoned"]
        if abs(retired - weight_in) > 0.5 * counters["cohort.beacons"] + 1e-6:
            self.problems.append(
                f"engine retired {retired} sessions but beacons carried {weight_in!r}"
            )
        rows = self.rows()
        if len(rows) != self.appp.store.rows_stored:
            self.problems.append(
                f"store kept {len(rows)} of {self.appp.store.rows_stored} rows"
            )
        weight_out = math.fsum(row.count for row in rows)
        if not math.isclose(weight_in, weight_out, rel_tol=1e-9):
            self.problems.append(
                f"aggregator weight in {weight_in!r} != out {weight_out!r}"
            )
        if counters["cohort.ticks"] < HORIZON_S:
            self.problems.append(f"only {counters['cohort.ticks']} ticks ran")

    def digest(self) -> str:
        parts: List[object] = [
            sorted(self.engine.counters.items()),
            sorted(self.engine.gauges.items()),
            self.engine.concurrent_sessions,
            self.ctx.sim.events_executed,
            sorted(self.ctx.allocation_counters().items()),
            self.appp.cohort_sessions_reported,
        ]
        parts.extend(
            (row.window_start, row.group, row.count, sorted(row.means.items()))
            for row in self.rows()
        )
        return _digest(parts)

    def program_counts(self) -> Dict[str, float]:
        """The program's own counters, for the trace cross-checks."""
        return {
            "events": self.ctx.sim.events_executed,
            "solve_calls": self.ctx.allocation_counters()["solve_calls"],
            "ticks": self.engine.counters["cohort.ticks"],
            "records_processed": self.appp.aggregator.records_processed,
            "peak_state_bytes": self.engine.gauges["cohort.peak_state_bytes"],
        }


WORLDS: Dict[str, Callable[[int], object]] = {
    FlashCrowdWorld.name: FlashCrowdWorld,
    CohortScaleWorld.name: CohortScaleWorld,
}

