"""E20 -- live service mode: the control loop on a wire (DESIGN.md §14).

The paper's planes are *services*: an AppP and an InfP that exchange
A2I/I2A state over a network, not method calls inside one process.
E20 exercises the transport subsystem that makes that real, in three
escalating regimes:

* ``loopback-equivalence`` -- the keystone gate.  The E2 flash-crowd
  world run with its I2A glass behind a zero-latency loopback wire
  (encode → dispatch → decode on every query) must be *byte-identical*
  in its causal trace to the plain in-process run, modulo the
  ``transport.*`` bookkeeping events.  The wire is pure plumbing.
* ``latency-sweep`` -- the measurement.  Injected wire latency delays
  I2A answers; the PR 9 ``hint_to_action`` loop stage stretches from
  same-control-tick (in-process) to multiple seconds as the hint a
  governor tick acts on grows stale.  Control-loop latency is the cost
  of distribution, and the sweep prices it.
* ``degraded`` -- wire faults behave like glass faults.  A transport
  that drops every request drives the PR 5 graceful-degradation
  machinery (error streak → fallback engage → reengage probes) through
  the *same* counters and trace kinds as an in-process glass in
  ``drop`` fault mode: the AppP cannot tell the difference, by design.
* ``tcp-service`` -- the real thing.  ``eona serve infp`` runs as a
  second OS process; the AppP world reaches it over TCP, remaps its
  cause IDs into the local trace, rides out injected drops with
  retries, and streams the server's trace events back over the same
  wire.  The server paces its simulation by the host clock, so this
  variant's simulated columns (``queries_sent``, ``i2a_queries``,
  ``buffering_ratio``, ``server_trace_events``) vary between same-seed
  runs: two seed-0 runs gave 443 vs 386 I2A queries and a buffering
  ratio of 0.04987 vs 0.04255.  Only its liveness checks gate it, and
  no committed artifact pins its values.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.baselines.modes import Mode
from repro.core.appp import EonaAppP
from repro.core.infp import EonaInfP
from repro.experiments.common import (
    ExperimentResult,
    launch_video_sessions,
    loop_latency_row,
    qoe_of,
)
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, VariantSpec, check
from repro.obs import spans
from repro.scenarios import build_scenario
from repro.transport.base import FaultKnobs, FaultyTransport
from repro.transport.glass import RemoteLookingGlass
from repro.transport.loopback import LoopbackTransport
from repro.transport.service import CONTROL_OWNER, GlassService, drain_trace
from repro.transport.tcp import TcpTransport
from repro.video.qoe import summarize

#: Compact flash-crowd configuration every E20 world shares (the E2
#: loop-latency sizing: small enough for CI, congested enough to hint).
WORLD = dict(
    n_clients=20,
    access_capacity_mbps=30.0,
    peak_rate_per_s=1.0,
)
HORIZON_S = 500.0

_CAUSE_FIELDS = ("cause", "parent")


def canonical_trace(
    events: Sequence[Dict[str, object]],
) -> List[str]:
    """Reduce a captured trace to comparable canonical JSONL lines.

    Drops the ``transport.*`` bookkeeping events (the wire's own
    send/recv markers -- precisely the allowed difference) and
    renumbers cause IDs to start at 1: under an outer tracer (``eona
    trace``, the bench harness) the global cause counter does not
    restart between runs, so raw IDs differ by a constant offset even
    when the causal structure is identical.
    """
    kept = [
        event
        for event in events
        if not str(event.get("kind", "")).startswith("transport.")
    ]
    ids: List[int] = []
    for event in kept:
        for field in _CAUSE_FIELDS:
            value = event.get(field)
            if isinstance(value, int):
                ids.append(value)
        for value in event.get("parents") or ():
            if isinstance(value, int):
                ids.append(value)
    remap = {old: new for new, old in enumerate(sorted(set(ids)), start=1)}
    lines = []
    for event in kept:
        norm = dict(event)
        for field in _CAUSE_FIELDS:
            value = norm.get(field)
            if isinstance(value, int):
                norm[field] = remap[value]
        if isinstance(norm.get("parents"), (list, tuple)):
            norm["parents"] = [
                remap.get(value, value) for value in norm["parents"]
            ]
        lines.append(json.dumps(norm, sort_keys=True, default=str))
    return lines


def run_equivalence(seed: int = 0, **kwargs) -> ExperimentResult:
    """The keystone gate: loopback wire == in-process, byte for byte."""
    from repro.experiments.exp_e2_flash_crowd import run_mode

    kwargs = {**WORLD, "horizon_s": HORIZON_S, **kwargs}
    result = ExperimentResult(
        name="E20-loopback-equivalence",
        notes="E2 EONA world, in-process vs codec+loopback wire",
    )

    def wire_wrap(glass):
        service = GlassService(clock=lambda: glass.sim.now)
        service.add_glass(glass)
        return RemoteLookingGlass(
            LoopbackTransport(service.handle_frame),
            owner=glass.owner,
            kind=glass.kind,
            clock=lambda: glass.sim.now,
        )

    rows = []
    for wire, wrap in (("in-process", None), ("loopback", wire_wrap)):
        with spans.capture() as events:
            row = run_mode(Mode.EONA, seed=seed, wrap_i2a=wrap, **kwargs)
        result.merge_counters(row["_counters"])  # type: ignore[arg-type]
        transport_events = sum(
            1
            for event in events
            if str(event.get("kind", "")).startswith("transport.")
        )
        trace = canonical_trace(events)
        rows.append(
            {
                "wire": wire,
                "trace_events": len(trace),
                "transport_events": transport_events,
                "buffering_ratio": row["buffering_ratio"],
                "mean_bitrate_mbps": row["mean_bitrate_mbps"],
                "_trace": trace,
            }
        )
    identical = int(rows[0]["_trace"] == rows[1]["_trace"])
    for row in rows:
        row.pop("_trace")
        result.add_row(**row, identical=identical)
    return result


def _wired_world_row(
    wire: str,
    seed: int,
    latency_s: float = 0.0,
    drop_every: int = 0,
    retries: int = 2,
    glass_fault: Optional[str] = None,
    horizon_s: float = HORIZON_S,
) -> Dict[str, object]:
    """One flash-crowd world whose AppP↔InfP loop runs over a wire.

    Server and client share one simulator (the loopback regime), so
    injected latency is *simulated* latency: the handler runs -- and
    the I2A glass stamps its hint -- at ``send + latency/2`` sim time,
    and the reply reaches the proxy's cache a half-latency later.
    ``glass_fault`` skips the wire entirely and faults the glass
    itself: the PR 5 in-process baseline the ``degraded`` variant
    compares against.
    """
    # The capture must open before the world is built: enabling the
    # tracer resets its clock binding, and ``make_context`` rebinds it
    # to the new world's simulator.
    with spans.capture() as events:
        scenario = build_scenario("flash-crowd", seed=seed, params=dict(WORLD))
        ctx = scenario.ctx
        infp = EonaInfP(
            ctx,
            access_links=[scenario.access_link],
            i2a_refresh_s=10.0,
            stats_period_s=2.0,
        )
        ctx.registry.grant("isp", "appp")
        proxy = None
        if glass_fault is not None:
            infp.i2a.set_fault_mode(glass_fault)
            isp_i2a = infp.i2a
        else:
            service = GlassService(clock=lambda: ctx.sim.now)
            service.add_glass(infp.i2a)
            if latency_s > 0:
                transport = LoopbackTransport(
                    service.handle_frame,
                    sim=ctx.sim,
                    knobs=FaultKnobs(latency_s=latency_s),
                )
            else:
                transport = LoopbackTransport(service.handle_frame)
            if drop_every:
                transport = FaultyTransport(
                    transport, FaultKnobs(drop_every=drop_every)
                )
            proxy = RemoteLookingGlass(
                transport,
                owner="isp",
                kind="i2a",
                clock=lambda: ctx.sim.now,
                retries=retries,
            )
            isp_i2a = proxy
        policy = EonaAppP(ctx, isp_i2a=isp_i2a, name="appp")
        players = launch_video_sessions(
            ctx,
            catalog=scenario.catalog,
            policy=policy,
            content_picker=lambda index: scenario.catalog.by_rank(0),
            **scenario.world.population("viewers").launch_kwargs(
                until=horizon_s * 0.6
            ),
        )
        ctx.sim.run(until=horizon_s)
        infp.stop()
        policy.stop()
    summary = summarize(qoe_of(players))
    kinds: Dict[str, int] = {}
    for event in events:
        kind = str(event["kind"])
        kinds[kind] = kinds.get(kind, 0) + 1
    row = loop_latency_row(events, wire=wire, latency_s=latency_s)
    row.update(
        buffering_ratio=summary["mean_buffering_ratio"],
        mean_bitrate_mbps=summary["mean_bitrate_mbps"],
        i2a_queries=policy.i2a_queries,
        glass_errors=policy.glass_errors,
        fallback_activations=policy.fallback_activations,
        fallback_reengagements=policy.fallback_reengagements,
        fallback_engage_events=kinds.get("fallback-engage", 0),
        fallback_reengage_events=kinds.get("fallback-reengage", 0),
        _counters=ctx.allocation_counters(),
    )
    if proxy is not None:
        row.update(proxy.stats())
    return row


def run_latency_sweep(seed: int = 0, **kwargs) -> ExperimentResult:
    """Control-loop latency as injected wire latency scales.

    With the 5 s governor tick, a hint served at ``send + λ/2`` is
    acted on at the next tick that sees it delivered, so the
    ``hint_to_action`` stage grows with λ (0 → same-tick, 2 → ~4 s,
    8 → ~6 s) -- the quantity the paper's feasibility story needs to
    stay small.
    """
    result = ExperimentResult(
        name="E20-latency-sweep",
        notes="hint→action loop stage vs injected wire latency (sim s)",
    )
    for label, latency_s in (("lat-0", 0.0), ("lat-2", 2.0), ("lat-8", 8.0)):
        result.add_row(
            **_wired_world_row(label, seed, latency_s=latency_s, **kwargs)
        )
    return result


def run_degraded(seed: int = 0, **kwargs) -> ExperimentResult:
    """Wire faults == glass faults, counter for counter.

    A transport dropping every request and an in-process glass in
    ``drop`` fault mode must walk the AppP through the identical PR 5
    degradation path: same ``glass_errors``, same single fallback
    engage, same reengage probes, same trace kinds.
    """
    result = ExperimentResult(
        name="E20-degraded",
        notes="total wire loss vs in-process glass drop fault (PR 5 parity)",
    )
    result.add_row(
        **_wired_world_row("wire-drop", seed, drop_every=1, retries=1, **kwargs)
    )
    result.add_row(
        **_wired_world_row("local-drop", seed, glass_fault="drop", **kwargs)
    )
    return result


def run_tcp_service(seed: int = 0, **kwargs) -> ExperimentResult:
    """AppP and InfP as two real OS processes, joined only by TCP."""
    from repro.experiments.service_worlds import (
        run_appp_client,
        spawn_infp_server,
        stop_server,
    )

    result = ExperimentResult(
        name="E20-tcp-service",
        notes="eona serve infp subprocess; AppP world queries it over TCP",
    )
    process, port = spawn_infp_server(
        seed=seed, time_scale=240.0, horizon_s=600.0, run_for_s=120.0
    )
    rows: List[Dict[str, object]] = []
    try:
        for wire, drop_every in (("tcp", 0), ("tcp-faulty", 3)):
            tcp = TcpTransport(port=port)
            transport = (
                FaultyTransport(tcp, FaultKnobs(drop_every=drop_every))
                if drop_every
                else tcp
            )
            proxy = RemoteLookingGlass(
                transport,
                owner="isp",
                kind="i2a",
                timeout_s=5.0,
                retries=2,
            )
            with spans.capture():
                row = run_appp_client(
                    proxy, seed=seed, horizon_s=300.0, **WORLD, **kwargs
                )
            control = RemoteLookingGlass(tcp, owner=CONTROL_OWNER, timeout_s=5.0)
            server_events, _ = drain_trace(control, requester="appp")
            tcp.close()
            row.update(
                wire=wire,
                server_trace_events=len(server_events),
                server_alive=int(process.poll() is None),
            )
            rows.append(row)
    finally:
        exit_code = stop_server(process)
    for row in rows:
        row.pop("mode", None)
        result.add_row(**row, server_exit=exit_code)
    return result


register(
    ExperimentSpec(
        exp_id="e20",
        title="live service mode: the control loop over a wire transport",
        source="DESIGN.md §14; paper §3 (planes as deployable services)",
        module=__name__,
        variants=(
            VariantSpec(
                name="loopback-equivalence",
                runner=run_equivalence,
                row_key="wire",
                checks=(
                    # The gate: modulo transport.* events, the wire run's
                    # causal trace is byte-identical to in-process.
                    check("identical", "*", "==", 1),
                    check("transport_events", "loopback", ">", 0),
                    check("transport_events", "in-process", "==", 0),
                    check("trace_events", "loopback", "==", of="in-process"),
                    check("buffering_ratio", "loopback", "==", of="in-process"),
                ),
            ),
            VariantSpec(
                name="latency-sweep",
                runner=run_latency_sweep,
                row_key="wire",
                checks=(
                    check("i2a_hints", "*", ">", 0),
                    check("hint_to_action_n", "*", ">", 0),
                    # Zero-latency wire: hints still land same control tick.
                    check("hint_to_action_p95_s", "lat-0", "<", 0.5),
                    # Injected latency stretches the loop, monotonically.
                    check("hint_to_action_p50_s", "lat-2", ">", of="lat-0"),
                    check("hint_to_action_p50_s", "lat-8", ">", of="lat-2"),
                    check("fallback_activations", "*", "==", 0),
                ),
            ),
            VariantSpec(
                name="degraded",
                runner=run_degraded,
                row_key="wire",
                checks=(
                    # Both worlds fall back exactly once and keep probing.
                    check("fallback_activations", "*", "==", 1),
                    check("fallback_engage_events", "*", "==", 1),
                    check("glass_errors", "wire-drop", "==", of="local-drop"),
                    check("i2a_queries", "wire-drop", "==", of="local-drop"),
                    check(
                        "fallback_reengagements",
                        "wire-drop",
                        "==",
                        of="local-drop",
                    ),
                    check("i2a_hints", "*", "==", 0),
                ),
            ),
            VariantSpec(
                name="tcp-service",
                runner=run_tcp_service,
                row_key="wire",
                checks=(
                    check("queries_answered", "*", ">", 0),
                    # Cross-process causes are remapped into local spans.
                    check("causes_remapped", "*", ">", 0),
                    check("glass_errors", "tcp", "==", 0),
                    check("fallback_activations", "*", "==", 0),
                    # Injected drops are absorbed by the retry path.
                    check("retries_used", "tcp-faulty", ">", 0),
                    check("server_trace_events", "*", ">", 0),
                    check("server_alive", "*", "==", 1),
                ),
            ),
        ),
    )
)
